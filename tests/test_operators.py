"""Operator representations, the Rota-Baxter residual and canonicalization."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rbx
from rbx import operators
from rbx.operators import (
    AnalyticOp,
    Inconsistent,
    NoRationalBasePoint,
    NotMultiplierType,
    TruncOp,
    TruncationTooSmall,
    ZeroMultiplier,
    _scaled_residuals,
    derived_multiplier,
    first_rb_failure,
    is_rb_upto,
    odd_halving_example,
    operator_to_point,
)
from rbx.poly import Poly, common_root
from test_linalg import ref_gauss
from random_values import random_poly


def random_rat(rng, span=5):
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


class TestApply:
    def test_plain_integration_of_monomials(self):
        op = AnalyticOp(0, Poly.one())
        for n in range(5):
            assert op.apply(Poly.monomial(n)) == Poly.monomial(n + 1, Fraction(1, n + 1))

    def test_zero_argument(self):
        assert AnalyticOp(3, Poly((1, 2))).apply(Poly.zero()) == Poly.zero()

    def test_multiplier_then_integration(self):
        assert AnalyticOp(2, Poly.x()).apply(Poly.one()) == Poly((-2, 0, Fraction(1, 2)))

    def test_images_vanish_at_base_point(self):
        rng = random.Random(5)
        for _ in range(10):
            op = AnalyticOp(random_rat(rng), random_poly(rng, 4))
            f = random_poly(rng, 4)
            assert op.apply(f)(op.a) == 0

    def test_zero_multiplier_rejected(self):
        with pytest.raises(ZeroMultiplier):
            AnalyticOp(0, Poly.zero())


class TestTruncation:
    def test_first_two_images(self):
        trunc = AnalyticOp(0, Poly.one()).truncate(1)
        assert trunc.images == (Poly.x(), Poly.monomial(2, Fraction(1, 2)))

    def test_single_image(self):
        assert AnalyticOp(1, Poly.one()).truncate(0).images == (Poly((-1, 1)),)

    def test_composition_with_extra_multiplier(self):
        # applying (a, r) to r2*f agrees with applying (a, r*r2) to f
        rng = random.Random(11)
        for _ in range(10):
            a = random_rat(rng)
            r1, r2 = random_poly(rng, 3), random_poly(rng, 3)
            f = random_poly(rng, 3)
            assert AnalyticOp(a, r1).apply(r2 * f) == AnalyticOp(a, r1 * r2).apply(f)


class TestResidual:
    def test_analytic_operators_satisfy_identity(self):
        trunc = AnalyticOp(Fraction(1, 2), Poly((1, 2))).truncate(12)
        assert is_rb_upto(trunc, 0, 5)

    def test_odd_halving_is_weight_zero(self):
        assert is_rb_upto(odd_halving_example(12), 0, 5)

    def test_identity_operator_fails_at_origin(self):
        ident = TruncOp(tuple(Poly.monomial(n) for n in range(6)))
        assert residual(ident, 0, 0, 0) == Poly.constant(-1)
        assert first_rb_failure(ident, 0, 2) == (0, 0)

    def test_zero_operator_passes(self):
        zero = TruncOp(tuple(Poly.zero() for _ in range(6)))
        assert is_rb_upto(zero, 0, 2)

    def test_nonzero_weight_breaks_plain_integration(self):
        trunc = AnalyticOp(0, Poly.one()).truncate(8)
        assert not is_rb_upto(trunc, 1, 2)

    def test_minus_weight_times_the_identity(self):
        # R = -weight * id is not of multiplier type and satisfies the identity
        # of its own weight: weight^2 (1 - 2 + 1) x^(n+m) = 0
        op = TruncOp(tuple(Poly.monomial(i, Fraction(3, 2)) for i in range(7)))
        assert first_rb_failure(op, Fraction(-3, 2), 3) is None
        assert first_rb_failure(op, 1, 3) == ref_first_failure(op, 1, 3) == (0, 0)

    def test_truncation_guard(self):
        trunc = AnalyticOp(0, Poly.one()).truncate(3)
        with pytest.raises(TruncationTooSmall):
            residual(trunc, 0, 2, 2)

    def test_negative_degree_rejected(self):
        trunc = AnalyticOp(0, Poly.one()).truncate(3)
        with pytest.raises(ValueError, match="non-negative, got -1"):
            first_rb_failure(trunc, 0, -1)


def residual(op, weight, n, m):
    """The residual on (x^n, x^m) from ``_scaled_residuals``, scaled back by D^2*q."""
    weight = Fraction(weight)
    (scaled,) = _scaled_residuals(op, weight, [(n, m)])
    scale = math.lcm(*(p.den for p in op.images)) ** 2 * weight.denominator
    return Poly(Fraction(c, scale) for c in scaled)


# -- reference: the residual as Poly arithmetic, reach checks and messages included --

def ref_rb_residual(op, weight, n, m):
    weight = Fraction(weight)
    top = op.n_max
    if n > top or m > top or n + m > top:
        raise TruncationTooSmall(f"pair ({n},{m}) is out of reach at truncation {top}")
    rn, rm = op.images[n], op.images[m]
    if rn.degree + m > top or rm.degree + n > top:
        raise TruncationTooSmall(f"inner images for pair ({n},{m}) exceed truncation {top}")
    inner = rn * Poly.monomial(m) + rm * Poly.monomial(n)
    # the truncation applied to inner, extended by linearity over its monomials
    applied = sum((op.images[i] * c for i, c in enumerate(inner.coeffs)), Poly.zero())
    return rn * rm - applied - op.images[n + m] * weight


def ref_first_failure(op, weight, d):
    for n in range(d + 1):
        for m in range(n, d + 1):
            if not ref_rb_residual(op, weight, n, m).is_zero():
                return (n, m)
    return None


def outcome(fn, *args):
    """The return value, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


weights = st.sampled_from([0, 1, 5, Fraction(-3, 2)]) | st.integers(-4, 4) | st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)
small_images = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=5), max_size=9
).map(lambda cs: Poly(tuple(cs)))


@st.composite
def random_truncations(draw):
    """Generic TruncOps: zero images and images of degree above N included."""
    n_max = draw(st.integers(0, 6))
    images = draw(st.lists(st.just(Poly.zero()) | small_images, min_size=n_max + 1,
                           max_size=n_max + 1))
    return TruncOp(tuple(images))


def tall_rat(draw, bits=64):
    return Fraction(draw(st.integers(-(2**bits), 2**bits)), draw(st.integers(1, 2**bits)))


@st.composite
def bumped_truncations(draw):
    """Analytic truncations at 64-bit heights, some with one image constant bumped.

    A bump of R(x^t) with t > k (k the multiplier degree) is first read by a
    pair after (0, 0).
    """
    k, d = draw(st.integers(0, 3)), draw(st.integers(0, 5))
    r = Poly(tuple(tall_rat(draw) for _ in range(k)) + (tall_rat(draw) or Fraction(1),))
    images = list(AnalyticOp(tall_rat(draw), r).truncate(2 * d + k + 1).images)
    if draw(st.booleans()):
        t = draw(st.integers(k + 1, len(images) - 1))
        images[t] = images[t] + Poly.constant(tall_rat(draw) or 1)
    return TruncOp(tuple(images)), d


@st.composite
def reach_truncations(draw):
    """Analytic truncations at heights up to 2^64, around the reach of degree d.

    The check at degree d reads the images up to 2d + k + 1 (k the multiplier
    degree); the truncation stops between two below and one above that.  A
    constant bump keeps the rows of multiplier type, so the check reads the
    coordinate equation; a bump of degree 1 or more breaks them and the check
    falls back to residual vectors.
    """
    k, d, bits = draw(st.integers(0, 3)), draw(st.integers(0, 6)), draw(st.integers(1, 64))
    r = Poly(tuple(tall_rat(draw, bits) for _ in range(k)) + (tall_rat(draw, bits) or Fraction(1),))
    n = draw(st.integers(max(2 * d + k - 1, 0), 2 * d + k + 2))
    images = list(AnalyticOp(tall_rat(draw, bits), r).truncate(n).images)
    kind, t = draw(st.sampled_from(["none", "constant", "term"])), draw(st.integers(0, n))
    if kind == "constant":
        images[t] = images[t] + Poly.constant(tall_rat(draw, bits) or 1)
    elif kind == "term":
        exp = draw(st.integers(1, n + k + 2))
        images[t] = images[t] + Poly.monomial(exp, tall_rat(draw, bits) or 1)
    return TruncOp(tuple(images)), d


class TestResidualMatchesReference:
    """The scaled residuals and first_rb_failure agree with the Poly formula, errors included."""

    @settings(deadline=None, max_examples=200)
    @given(random_truncations(), weights, st.integers(0, 8), st.integers(0, 8))
    def test_residual_on_random_truncations(self, op, weight, n, m):
        assert outcome(residual, op, weight, n, m) == outcome(ref_rb_residual, op, weight, n, m)

    @settings(deadline=None, max_examples=200)
    @given(random_truncations(), weights, st.integers(0, 8))
    def test_first_failure_on_random_truncations(self, op, weight, d):
        assert outcome(first_rb_failure, op, weight, d) == outcome(ref_first_failure, op, weight, d)

    @settings(deadline=None, max_examples=150)
    @given(bumped_truncations(), st.just(0) | weights, st.integers(-1, 2))
    def test_first_failure_on_bumped_analytic_truncations(self, case, weight, extra):
        # extra > 0 asks for more pairs than the truncation reaches
        op, d = case
        d = max(d + extra, 0)
        assert outcome(first_rb_failure, op, weight, d) == outcome(ref_first_failure, op, weight, d)

    @settings(deadline=None, max_examples=60)
    @given(bumped_truncations(), weights, st.data())
    def test_residual_on_bumped_analytic_truncations(self, case, weight, data):
        op = case[0]
        n, m = data.draw(st.integers(0, op.n_max)), data.draw(st.integers(0, op.n_max))
        assert outcome(residual, op, weight, n, m) == outcome(ref_rb_residual, op, weight, n, m)

    @settings(deadline=None, max_examples=300)
    @given(reach_truncations(), st.just(0) | weights)
    def test_first_failure_around_the_reach(self, case, weight):
        op, d = case
        assert outcome(first_rb_failure, op, weight, d) == outcome(ref_first_failure, op, weight, d)

    def test_later_failing_pair_and_reach_messages(self):
        # plain integration with R(x^2) bumped by 1: (0, 0) holds and (0, 1),
        # whose inner image R(1)*x = x^2 reads R(x^2), is the first failure
        images = list(AnalyticOp(0, Poly.one()).truncate(6).images)
        images[2] = images[2] + Poly.one()
        op = TruncOp(tuple(images))
        assert first_rb_failure(op, 0, 3) == ref_first_failure(op, 0, 3) == (0, 1)
        plain = AnalyticOp(0, Poly.one()).truncate(4)
        assert first_rb_failure(plain, 0, 1) is None
        assert outcome(first_rb_failure, plain, 0, 3) == (
            TruncationTooSmall, "inner images for pair (1,3) exceed truncation 4"
        )
        zero = TruncOp((Poly.zero(),) * 5)
        assert outcome(first_rb_failure, zero, 0, 5) == (
            TruncationTooSmall, "pair (0,5) is out of reach at truncation 4"
        )


class ResidualsBuilt(Exception):
    pass


TALL = AnalyticOp(
    Fraction(123456789, 987654321), Poly.from_text("x^3 + 12345678901234567890*x - 7/11")
)


class TestIdentityCheckRouting:
    """A multiplier-type truncation is checked without residual vectors, at every weight."""

    @pytest.fixture(autouse=True)
    def refuse_residuals(self, monkeypatch):
        def refuse(*args):
            raise ResidualsBuilt

        monkeypatch.setattr(operators, "_scaled_residuals", refuse)

    @pytest.mark.parametrize("weight", [0, Fraction(0), "0"], ids=["int", "Fraction", "text"])
    def test_analytic_truncations_take_the_coordinate_equation(self, weight):
        op = AnalyticOp(Fraction(-7, 3), Poly((1, 0, 2)))
        trunc = op.truncate(13)
        assert first_rb_failure(trunc, weight, 5) is None
        # c_6 is first read by (0, 3), through the x^2 term of the multiplier
        images = list(trunc.images)
        images[6] = images[6] + Poly.constant(1)
        assert first_rb_failure(TruncOp(tuple(images)), weight, 5) == (0, 3)
        assert outcome(first_rb_failure, op.truncate(9), weight, 4) == (
            TruncationTooSmall, "inner images for pair (3,4) exceed truncation 9"
        )

    @pytest.mark.parametrize(
        "op,weight",
        [
            (AnalyticOp(Fraction(-7, 3), Poly((1, 0, 2))).truncate(12), 1),
            (AnalyticOp(Fraction(-7, 3), Poly((1, 0, 2))).truncate(12), Fraction(-3, 2)),
            (TALL.truncate(40), 1),
        ],
        ids=["weight-1", "weight-minus-three-halves", "tall"],
    )
    def test_other_weights_fail_in_reach(self, op, weight):
        # -E(n, m) - weight * R(x^(n+m)) is never zero: every pair in reach
        # fails, the first of them (0, 0); a short truncation is out of reach
        assert first_rb_failure(op, weight, 3) == ref_first_failure(op, weight, 3) == (0, 0)
        short = TruncOp(op.images[: len(op.images[0].num) - 1])
        assert outcome(first_rb_failure, short, weight, 0) == outcome(
            ref_first_failure, short, weight, 0
        ) == (TruncationTooSmall, f"inner images for pair (0,0) exceed truncation {short.n_max}")

    @pytest.mark.parametrize(
        "op,weight",
        [
            (odd_halving_example(12), 0),
            (TruncOp((Poly.constant(3), Poly.zero(), Poly.constant(Fraction(-1, 2)))), 0),
            (TruncOp((Poly.x(),)), 0),
            (TruncOp(tuple(Poly.monomial(i, Fraction(3, 2)) for i in range(7))), Fraction(-3, 2)),
        ],
        ids=["odd-halving", "all-constant", "one-image", "minus-weight-times-id"],
    )
    def test_other_inputs_build_residual_vectors(self, op, weight):
        with pytest.raises(ResidualsBuilt):
            first_rb_failure(op, weight, 0)


def ref_images(a, rs, n):
    """Image i is sum_j r_j (x^(i+j+1) - a^(i+j+1)) / (i+j+1), as dense Fractions."""
    images = []
    for i in range(n + 1):
        dense = [Fraction(0)] * (i + len(rs) + 1)
        for j, rj in enumerate(rs):
            dense[i + j + 1] += rj / (i + j + 1)
            dense[0] -= rj * a ** (i + j + 1) / (i + j + 1)
        images.append(Poly(tuple(dense)))
    return images


class TestTruncateMatchesReference:
    @settings(deadline=None, max_examples=60)
    @given(st.data(), st.integers(0, 5), st.integers(0, 30), st.booleans())
    def test_images_at_tall_heights(self, data, k, n, at_origin):
        draw = data.draw
        r = Poly(tuple(tall_rat(draw) for _ in range(k)) + (tall_rat(draw) or Fraction(1),))
        a = Fraction(0) if at_origin else tall_rat(draw)
        op = AnalyticOp(a, r)
        images = op.truncate(n).images
        assert list(images) == ref_images(a, r.coeffs, n)
        assert images == tuple(op.apply(Poly.monomial(i)) for i in range(n + 1))


class TestOddHalving:
    def test_quoted_images(self):
        trunc = odd_halving_example(4)
        assert trunc.images[0] == Poly.zero()
        assert trunc.images[1] == Poly.monomial(2, Fraction(1, 2))
        assert trunc.images[3] == Poly.monomial(4, Fraction(1, 4))

    def test_not_multiplier_type(self):
        with pytest.raises(NotMultiplierType):
            derived_multiplier(odd_halving_example(4))


class TestDerivedMultiplier:
    def test_linear_multiplier(self):
        assert derived_multiplier(AnalyticOp(2, Poly.x()).truncate(4)) == Poly.x()

    def test_constant_multiplier(self):
        assert derived_multiplier(AnalyticOp(0, Poly.one()).truncate(3)) == Poly.one()

    def test_zero_operator(self):
        zero = TruncOp(tuple(Poly.zero() for _ in range(4)))
        with pytest.raises(ZeroMultiplier):
            derived_multiplier(zero)

    def test_needs_two_images(self):
        with pytest.raises(TruncationTooSmall):
            derived_multiplier(TruncOp((Poly.x(),)))

    def test_extra_term_in_one_derivative(self):
        # R(x^3) + x^2 differentiates to r*x^3 + 2x
        images = list(AnalyticOp(2, Poly.x()).truncate(4).images)
        images[3] = images[3] + Poly.monomial(2)
        with pytest.raises(NotMultiplierType, match="image 3 "):
            derived_multiplier(TruncOp(tuple(images)))

    def test_right_numerators_over_another_denominator(self):
        # r = x; the derivative of x^4/12 is x^3/3: r*x^2's numerators over 3
        images = list(AnalyticOp(0, Poly.x()).truncate(3).images)
        images[2] = Poly.monomial(4, Fraction(1, 12))
        assert images[2].derive().num == (Poly.x() * Poly.monomial(2)).num
        with pytest.raises(NotMultiplierType, match="image 2 "):
            derived_multiplier(TruncOp(tuple(images)))


class TestCanonicalization:
    def test_root_filtering(self):
        # images[0] = x^2/2 - 2 has roots +-2; only +2 kills x^3/3 - 8/3
        point = operator_to_point(AnalyticOp(2, Poly.x()).truncate(4))
        assert point == AnalyticOp(2, Poly.x())

    def test_round_trip_linear(self):
        op = AnalyticOp(0, Poly((1, 1)))
        assert operator_to_point(op.truncate(3)) == op

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(20):
            op = AnalyticOp(random_rat(rng), random_poly(rng, 5))
            assert operator_to_point(op.truncate(op.r.degree + 2)) == op

    def test_irrational_base_point(self):
        # multiplier-type rows (r = x) whose first image x^2/2 - 1 vanishes
        # only at the irrational points +-sqrt(2)
        images = (
            Poly.monomial(2, Fraction(1, 2)) - Poly.one(),
            Poly.monomial(3, Fraction(1, 3)),
            Poly.monomial(4, Fraction(1, 4)),
        )
        with pytest.raises(NoRationalBasePoint):
            operator_to_point(TruncOp(images))

    def test_inconsistent_high_image(self):
        op = AnalyticOp(1, Poly.one())
        images = list(op.truncate(3).images)
        images[3] = images[3] + Poly.constant(5)
        with pytest.raises(Inconsistent):
            operator_to_point(TruncOp(tuple(images)))

    @pytest.mark.parametrize("bits", [64, 256, 1024])
    def test_round_trip_tall_heights(self, bits):
        # base point and multiplier coefficients of ``bits`` bits
        rng = random.Random(bits)

        def tall():
            return Fraction(rng.getrandbits(bits) - 2 ** (bits - 1), rng.getrandbits(bits) | 1)

        for k in (0, 1, 3):
            op = AnalyticOp(tall(), Poly(tuple(tall() for _ in range(k + 1))))
            assert operator_to_point(op.truncate(k + 1)) == op

    def test_json_round_trip(self):
        op = AnalyticOp(Fraction(-5, 2), Poly((1, 0, Fraction(2, 3))))
        assert AnalyticOp.from_json(op.to_json()) == op
        trunc = op.truncate(4)
        assert TruncOp.from_json(trunc.to_json()) == trunc

    @pytest.mark.parametrize(
        "cls,data,message",
        [
            (AnalyticOp, {"r": "x"}, "operator object needs field 'a'"),
            (AnalyticOp, {"a": "0"}, "operator object needs field 'r'"),
            (AnalyticOp, {}, "operator object needs field 'a'"),
            (TruncOp, {"images": ["x"]}, "truncation object needs field 'N'"),
            (TruncOp, {"N": 0}, "truncation object needs field 'images'"),
        ],
    )
    def test_json_missing_field_is_named(self, cls, data, message):
        # a ValueError that names the field, not a bare KeyError
        with pytest.raises(ValueError) as excinfo:
            cls.from_json(data)
        assert excinfo.value.args == (message,)


# -- reference: canonicalisation as before, Poly.derive rows and a second truncation --

def ref_derived_multiplier(op):
    if op.n_max < 1:
        raise TruncationTooSmall("multiplier extraction needs at least the images of 1 and x")
    r = op.images[0].derive()
    for n, image in enumerate(op.images):
        row = image.derive()
        if row.den != r.den or row.num[n:] != r.num or any(row.num[:n]):
            raise NotMultiplierType(
                f"derivative of image {n} is not the row of a fixed multiplier"
            )
    if r.is_zero():
        raise ZeroMultiplier("derived multiplier is zero")
    return r


def ref_operator_to_point(op):
    r = ref_derived_multiplier(op)
    k = r.degree
    if op.n_max < k:
        raise TruncationTooSmall(
            f"need images up to degree {k} to pin the base point, have {op.n_max}"
        )
    a = common_root(*op.images[: k + 1])
    if a is None:
        raise NoRationalBasePoint("no rational point kills every low-degree image")
    if TruncOp(tuple(ref_images(a, r.coeffs, op.n_max))) != op:
        raise Inconsistent("recovered moduli point does not reproduce the truncation")
    return AnalyticOp(a, r)


PERTURBATIONS = [
    "none", "low constant", "high constant", "block coefficient", "dropped top",
    "extra term", "zero image", "short truncation",
]


@st.composite
def perturbed_truncations(draw):
    """Analytic truncations at 64-bit heights with one perturbation of the given kinds.

    A constant bumped at t <= k moves the base point; at t > k only the
    vanishing check sees it.  A block coefficient sits in x^(t+1) .. x^(t+k+1),
    an extra term in the gap x^1 .. x^t or just above the block.
    """
    kind = draw(st.sampled_from(PERTURBATIONS))
    k = draw(st.integers(1 if kind == "short truncation" else 0, 3))
    r = Poly(tuple(tall_rat(draw) for _ in range(k)) + (tall_rat(draw) or Fraction(1),))
    n = draw(st.integers(0, k - 1)) if kind == "short truncation" else draw(st.integers(k + 1, 8))
    images = list(AnalyticOp(tall_rat(draw), r).truncate(n).images)
    bump = Poly.monomial(0, tall_rat(draw) or 1)
    t = draw(st.integers(0, n))
    if kind == "low constant":
        t = draw(st.integers(0, min(k, n)))
        images[t] += bump
    elif kind == "high constant":
        images[draw(st.integers(k + 1, n))] += bump
    elif kind == "block coefficient":
        images[t] += Poly.monomial(draw(st.integers(t + 1, t + k + 1)), tall_rat(draw) or 1)
    elif kind == "dropped top":
        images[t] = Poly(images[t].coeffs[:-1])
    elif kind == "extra term":
        exp = draw(st.integers(1, t) | st.integers(t + k + 2, t + k + 3)) if t else t + k + 2
        images[t] += Poly.monomial(exp, tall_rat(draw) or 1)
    elif kind == "zero image":
        images[t] = Poly.zero()
    return TruncOp(tuple(images))


class TestCanonicalisationMatchesReference:
    """One-pass canonicalisation agrees with derive-and-re-truncate, errors and messages included."""

    @settings(deadline=None, max_examples=300)
    @given(perturbed_truncations())
    def test_perturbed_analytic_truncations(self, op):
        assert outcome(derived_multiplier, op) == outcome(ref_derived_multiplier, op)
        assert outcome(operator_to_point, op) == outcome(ref_operator_to_point, op)

    @settings(deadline=None, max_examples=200)
    @given(random_truncations())
    def test_random_truncations(self, op):
        assert outcome(derived_multiplier, op) == outcome(ref_derived_multiplier, op)
        assert outcome(operator_to_point, op) == outcome(ref_operator_to_point, op)

    @pytest.mark.parametrize("t", [3, 4, 5])
    def test_high_constant_is_inconsistent(self, t):
        # the rows still differentiate to r*x^n and images 0 .. k still meet at a
        op = AnalyticOp(Fraction(-3, 2), Poly((1, 0, 2)))
        images = list(op.truncate(5).images)
        images[t] += Poly.constant(Fraction(1, 7))
        trunc = TruncOp(tuple(images))
        assert derived_multiplier(trunc) == op.r
        assert outcome(operator_to_point, trunc) == (
            Inconsistent, "recovered moduli point does not reproduce the truncation"
        )

    def test_constant_images_have_zero_multiplier(self):
        op = TruncOp((Poly.constant(3), Poly.zero(), Poly.constant(Fraction(-1, 2))))
        assert outcome(derived_multiplier, op) == (ZeroMultiplier, "derived multiplier is zero")
        op = TruncOp((Poly.constant(3), Poly.x(), Poly.constant(1)))
        assert outcome(derived_multiplier, op) == outcome(ref_derived_multiplier, op) == (
            NotMultiplierType, "derivative of image 1 is not the row of a fixed multiplier"
        )


def test_inconsistent_under_optimize():
    # the vanishing check is not an assert: python -O must still reject the bumped image
    script = "\n".join([
        "import sys",
        "from fractions import Fraction",
        "from rbx import AnalyticOp, Inconsistent, Poly, TruncOp, operator_to_point",
        "images = list(AnalyticOp(Fraction(-3, 2), Poly((1, 0, 2))).truncate(5).images)",
        "images[4] = images[4] + Poly.constant(1)",
        "try:",
        "    operator_to_point(TruncOp(tuple(images)))",
        "except Inconsistent as exc:",
        "    print('optimize', sys.flags.optimize, 'Inconsistent', exc)",
    ])
    src = str(Path(rbx.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "optimize 1 Inconsistent recovered moduli point does not reproduce the truncation\n"
    )


class TestEvaluationBasis:
    def test_reciprocal_sum_determinants_nonzero(self):
        for k in range(11):
            mat = [[Fraction(1, i + j + 1) for i in range(k + 1)] for j in range(k + 1)]
            assert ref_gauss(mat) == k + 1  # full rank: the determinant is nonzero
