"""Functional coordinates: the quadratic system, elimination and curve membership."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rbx import functionals
from rbx.functionals import (
    FunctionalCoords,
    IndexTooSmall,
    _equation,
    _extend,
    coordinate_equation,
    coords_from_operator,
    curve_coords,
    curve_coords_symbolic,
    elimination_polynomial,
    functional_residual,
    operator_from_coords,
    recover_base_point,
    reduced_equation,
    satisfies_system,
    vanishes_on_curve,
)
from rbx.mpoly import DegreeCapExceeded, MPoly
from rbx.operators import (
    AnalyticOp,
    TruncationTooSmall,
    TruncOp,
    _scaled_equation,
    first_rb_failure,
    is_rb_upto,
)
from rbx.poly import Poly, common_root
from random_values import random_poly, random_rat

ONE = Poly.one()
X = Poly.x()
ONE_PLUS_X = Poly((1, 1))


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def multipliers(draw, max_deg=3):
    """A nonzero multiplier of degree at most ``max_deg``."""
    low = draw(st.lists(small_rats, max_size=max_deg))
    lead = draw(small_rats.filter(bool))
    return Poly(tuple(low) + (lead,))


def extend(r, head, length):
    """Coordinates c_0 .. c_(length-1): the head, then each elimination polynomial evaluated."""
    coords = {i: Fraction(v) for i, v in enumerate(head)}
    for t in range(r.degree + 1, length):
        coords[t] = elimination_polynomial(r, t).eval_at(coords)
    return coords


def ref_satisfies_system(r, head, budget):
    """Membership by the symbolic elimination polynomials and the pair loop written out."""
    coords = extend(r, head, 2 * budget + r.degree + 2)
    terms = [(i, ri) for i, ri in enumerate(r.coeffs) if ri]
    for n in range(budget + 1):
        for m in range(n, budget + 1):
            value = coords[n] * coords[m]
            for i, ri in terms:
                value += (
                    (Fraction(1, i + n + 1) + Fraction(1, i + m + 1))
                    * ri
                    * coords[i + n + m + 1]
                )
            if value:
                return False
    return True


ZERO_CONTEXT_CALLS = {
    "FunctionalCoords": lambda r: FunctionalCoords(r, (Fraction(0),)),
    "curve_coords": lambda r: curve_coords(r, 1, 3),
    "curve_coords_symbolic": lambda r: curve_coords_symbolic(r, 3),
    "coordinate_equation": lambda r: coordinate_equation(r, 0, 0),
    "elimination_polynomial": lambda r: elimination_polynomial(r, 2),
    "reduced_equation": lambda r: reduced_equation(r, 1, 1),
    "vanishes_on_curve": lambda r: vanishes_on_curve(r, 1, 1),
    "satisfies_system": lambda r: satisfies_system(r, (Fraction(0),)),
    "recover_base_point": lambda r: recover_base_point(r, (Fraction(0),)),
}

PAIR_FUNCTIONS = [coordinate_equation, reduced_equation, vanishes_on_curve]


class TestContextChecks:
    @pytest.mark.parametrize("name", sorted(ZERO_CONTEXT_CALLS))
    def test_zero_context_rejected(self, name):
        with pytest.raises(ValueError, match="nonzero"):
            ZERO_CONTEXT_CALLS[name](Poly.zero())

    @pytest.mark.parametrize("fn", PAIR_FUNCTIONS, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("n,m", [(-1, 0), (0, -1), (2, -3)])
    def test_negative_pair_index_rejected(self, fn, n, m):
        with pytest.raises(ValueError, match="non-negative"):
            fn(X, n, m)


def ref_curve(rs, a, length):
    """-(integral from 0 to a of r(t) t^i dt) for i < length, in Fractions."""
    return [
        -sum(rj * a ** (i + j + 1) / (i + j + 1) for j, rj in enumerate(rs))
        for i in range(length)
    ]


tall_base_points = st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64))


class TestCoordsFromOperator:
    def test_curve_values(self):
        # constant terms of the images of (a=1, r=1) are -1/(i+1)
        fc = coords_from_operator(AnalyticOp(1, ONE).truncate(2))
        assert fc.c == (Fraction(-1), Fraction(-1, 2), Fraction(-1, 3))
        assert fc.r == ONE

    def test_base_point_zero_gives_zeros(self):
        fc = coords_from_operator(AnalyticOp(0, Poly((2, 1))).truncate(3))
        assert fc.c == (0, 0, 0, 0)

    def test_matches_parametrization(self):
        rng = random.Random(3)
        for _ in range(10):
            r, a = random_poly(rng, 3), random_rat(rng)
            fc = coords_from_operator(AnalyticOp(a, r).truncate(5))
            assert fc.c == curve_coords(r, a, 6).c


class TestCurveCoords:
    def test_constant_context(self):
        assert curve_coords(ONE, Fraction(3), 2).c == (-3, Fraction(-9, 2))

    def test_zero_base_point(self):
        assert curve_coords(X, 0, 4).c == (0, 0, 0, 0)

    def test_linear_context(self):
        assert curve_coords(X, 1, 2).c == (Fraction(-1, 2), Fraction(-1, 3))

    def test_symbolic_entries(self):
        entries = curve_coords_symbolic(ONE, 1)
        assert entries[0] == Poly((0, -1))
        entries = curve_coords_symbolic(X, 2)
        assert entries[1] == Poly.monomial(3, Fraction(-1, 3))

    def test_symbolic_lengths_zero_and_one(self):
        assert curve_coords_symbolic(ONE_PLUS_X, 0) == []
        assert curve_coords_symbolic(ONE_PLUS_X, 1) == [Poly((0, -1, Fraction(-1, 2)))]
        with pytest.raises(ValueError, match="context multiplier must be nonzero"):
            curve_coords_symbolic(Poly.zero(), 0)

    def test_symbolic_degrees(self):
        r = Poly((1, 0, 1))
        for i, entry in enumerate(curve_coords_symbolic(r, 5)):
            assert entry.degree == i + r.degree + 1

    @settings(deadline=None)
    @given(multipliers(max_deg=4), tall_base_points, st.integers(1, 6))
    def test_matches_dense_integral(self, r, a, length):
        rs = r.coeffs
        c = ref_curve(rs, a, length)
        fc = curve_coords(r, a, length)
        assert fc.c == tuple(c)
        # image of x^i is c_i + sum_j r_j x^(i+j+1) / (i+j+1)
        for i, image in enumerate(operator_from_coords(fc, length - 1).images):
            dense = [c[i]] + [Fraction(0)] * (i + len(rs))
            for j, rj in enumerate(rs):
                dense[i + j + 1] += rj / (i + j + 1)
            assert image.degree == i + len(rs)
            assert [image.coeff(e) for e in range(len(dense))] == dense

    def test_symbolic_specialises_to_values(self):
        rng = random.Random(8)
        for _ in range(10):
            r, a = random_poly(rng, 3), random_rat(rng)
            entries = curve_coords_symbolic(r, 5)
            values = curve_coords(r, a, 5).c
            assert tuple(entry(a) for entry in entries) == values


class TestResidual:
    def test_curve_points_annihilate(self):
        rng = random.Random(21)
        for r in (ONE, X, ONE_PLUS_X):
            a = random_rat(rng)
            fc = curve_coords(r, a, r.degree + 8)
            for n in range(3):
                for m in range(3):
                    assert functional_residual(fc, Poly.monomial(n), Poly.monomial(m)) == 0

    def test_zero_coordinates(self):
        fc = FunctionalCoords(X, (Fraction(0),) * 8)
        assert functional_residual(fc, Poly((1, 2)), Poly.monomial(2)) == 0

    def test_perturbed_head_detected(self):
        fc = curve_coords(ONE, 1, 8)
        bad = FunctionalCoords(ONE, (Fraction(-2),) + fc.c[1:])
        # direct expansion: c0^2 + 2*c1 = 4 - 1 = 3
        assert functional_residual(bad, ONE, ONE) == 3

    def test_coverage_guard(self):
        fc = curve_coords(ONE, 1, 3)
        with pytest.raises(TruncationTooSmall):
            functional_residual(fc, Poly.monomial(2), Poly.monomial(2))


class TestCoordinateEquation:
    def test_unit_context_origin(self):
        assert coordinate_equation(ONE, 0, 0) == MPoly(
            {((0, 2),): 1, ((1, 1),): 2}
        )

    def test_linear_context_origin(self):
        assert coordinate_equation(X, 0, 0) == MPoly({((0, 2),): 1, ((2, 1),): 1})

    def test_mixed_pair(self):
        assert coordinate_equation(ONE, 1, 0) == MPoly(
            {((0, 1), (1, 1)): 1, ((2, 1),): Fraction(3, 2)}
        )

    def test_huge_indices_touch_few_variables(self):
        n = 10**8
        assert coordinate_equation(X, n, 0) == MPoly(
            {((0, 1), (n, 1)): 1, ((n + 2, 1),): Fraction(1, n + 2) + Fraction(1, 2)}
        )

    def test_symmetry(self):
        rng = random.Random(2)
        for _ in range(10):
            r = random_poly(rng, 3)
            n, m = rng.randint(0, 4), rng.randint(0, 4)
            assert coordinate_equation(r, n, m) == coordinate_equation(r, m, n)

    def test_vanishes_on_curve_values(self):
        rng = random.Random(4)
        for r in (ONE, X, ONE_PLUS_X):
            a = random_rat(rng)
            coords = curve_coords(r, a, 12).c
            for n in range(3):
                for m in range(3):
                    eq = coordinate_equation(r, n, m)
                    assert eq.eval_at(dict(enumerate(coords))) == 0


# -- the fused equation against a term-by-term reference and the operator loop ----

tall_coefs = st.one_of(st.just(0), st.integers(-(2**64), 2**64), tall_base_points)


@st.composite
def tall_multipliers(draw, max_deg=4):
    """A nonzero multiplier with coefficients up to 2^64, zero interior ones included."""
    low = draw(st.lists(tall_coefs, max_size=max_deg))
    return Poly(tuple(low) + (draw(tall_coefs.filter(bool)),))


mpoly_keys = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=2).map(tuple)

# coordinates in each ring the equation is evaluated in
RINGS = {
    "int": st.integers(-(2**64), 2**64),
    "Fraction": tall_base_points,
    "Poly": st.lists(tall_coefs, max_size=3).map(lambda cs: Poly(tuple(cs))),
    "MPoly": st.dictionaries(mpoly_keys, tall_coefs, max_size=2).map(MPoly),
}


def ring_terms(v):
    """A coordinate as its Fraction coefficients: by key, by power of a, or at the key ()."""
    if isinstance(v, MPoly):
        return v.terms
    if isinstance(v, Poly):
        return dict(enumerate(v.coeffs))
    return {(): Fraction(v)}


def from_terms(like, terms):
    """The element of the ring of ``like`` with the Fraction coefficients ``terms``."""
    if isinstance(like, MPoly):
        return MPoly(terms)
    if isinstance(like, Poly):
        return Poly(tuple(terms.get(e, 0) for e in range(max(terms, default=-1) + 1)))
    return terms.get((), Fraction(0))


def ref_scale(r, n, m):
    return math.lcm(*((i + n + 1) * (i + m + 1) for i in range(r.degree + 1))) * r.den


def ref_weights(r, n, m):
    return [(Fraction(1, i + n + 1) + Fraction(1, i + m + 1)) * ri for i, ri in enumerate(r.coeffs)]


def ref_scaled_equation(r, c, n, m, solve):
    """s times c_n c_m + sum_i (1/(i+n+1) + 1/(i+m+1)) r_i c_(i+n+m+1), term by term.

    With ``solve`` the top term is left out and the rest divided by minus its
    coefficient, in place of the factor s.
    """
    ws = ref_weights(r, n, m)
    acc = dict(ring_terms(c(n) * c(m)))
    for i, w in enumerate(ws[:-1] if solve else ws):
        for key, q in ring_terms(c(i + n + m + 1)).items():
            acc[key] = acc.get(key, 0) + w * q
    scale = -1 / ws[-1] if solve else ref_scale(r, n, m)
    return from_terms(c(n) * c(m), {key: q * scale for key, q in acc.items() if q})


def loop_scaled_equation(r, c, n, m, solve):
    """The same value by the ring operators: one product and one sum per term."""
    s = ref_scale(r, n, m)
    ws = [int(w * s) for w in ref_weights(r, n, m)]
    value = c(n) * c(m) * s
    for i, w in enumerate(ws[:-1] if solve else ws):
        if w:
            value = value + c(i + n + m + 1) * w
    return value * Fraction(-1, ws[-1]) if solve else value


def canonical(v):
    """What must agree between two equal results: ``MPoly`` is unhashable, so its fields."""
    return (v.num, v.den) if isinstance(v, MPoly) else hash(v)


class TestFusedEquation:
    """``_scaled_equation`` in every ring against a Fraction reference and the operator loop."""

    @pytest.mark.parametrize("ring", sorted(RINGS))
    @settings(deadline=None, max_examples=40)
    @given(tall_multipliers(), st.integers(0, 8), st.integers(0, 8), st.data())
    def test_matches_term_by_term_reference(self, ring, r, n, m, data):
        top = n + m + r.degree + 1
        coords = data.draw(st.lists(RINGS[ring], min_size=top + 1, max_size=top + 1))
        c = coords.__getitem__
        for solve in (False, True):
            value, s = _scaled_equation(r, c, n, m, solve=solve)
            assert s == ref_scale(r, n, m)
            assert value == ref_scaled_equation(r, c, n, m, solve)
            loop = loop_scaled_equation(r, c, n, m, solve)
            assert value == loop and canonical(value) == canonical(loop)
        # the solved top coordinate cancels the equation to the canonical zero
        coords[top] = _scaled_equation(r, c, n, m, solve=True)[0]
        zero = _scaled_equation(r, c, n, m)[0]
        loop = loop_scaled_equation(r, c, n, m, False)
        assert not zero and zero == loop and canonical(zero) == canonical(loop)
        if isinstance(zero, MPoly):
            assert (zero.num, zero.den) == ({}, 1)
        if isinstance(zero, Poly):
            assert zero is Poly.zero()


class RingSum(Exception):
    pass


GOLDEN_TEXT = json.loads(Path(__file__).with_name("golden.json").read_text())["cli_text"]

# (golden name, function, multiplier text, arguments)
GOLDEN_EQUATIONS = [
    ("functional-system-quadratic", coordinate_equation, "x^2 + x + 1", (2, 3)),
    ("functional-system-cubic", coordinate_equation, "3*x^3 - 1/2*x + 2", (4, 4)),
    ("functional-eliminate-quadratic", elimination_polynomial, "x^2 + x + 1", (6,)),
    ("functional-eliminate-cubic", elimination_polynomial, "3*x^3 - 1/2*x + 2", (7,)),
    ("functional-reduce-linear", reduced_equation, "2*x - 3/5", (3, 4)),
    ("functional-reduce-quadratic", reduced_equation, "x^2 + x + 1", (2, 3)),
    ("functional-reduce-cubic", reduced_equation, "3*x^3 - 1/2*x + 2", (1, 2)),
]


class TestFusedEquationRouting:
    """``Poly`` and ``MPoly`` equations take the fused pass; the identity check does not."""

    def test_symbolic_equations_need_no_ring_sum(self, monkeypatch):
        def refuse(*args):
            raise RingSum

        monkeypatch.setattr(MPoly, "__add__", refuse)
        monkeypatch.setattr(Poly, "__add__", refuse)
        with pytest.raises(RingSum):
            X + X
        for name, fn, text, args in GOLDEN_EQUATIONS:
            r = Poly.from_text(text)
            assert GOLDEN_TEXT[name] == [0, fn(r, *args).to_text() + "\n"]
            if fn is reduced_equation:
                assert vanishes_on_curve(r, *args)
        assert vanishes_on_curve(Poly.from_text("x^3 - 2*x + 1/3"), 4, 5)

    def test_numeric_equations_keep_the_operator_loop(self, monkeypatch):
        def refuse(*args):
            raise RingSum

        monkeypatch.setattr(MPoly, "_lincomb", refuse)
        monkeypatch.setattr(Poly, "_lincomb", refuse)
        r = Poly((1, 0, 2))
        trunc = AnalyticOp(Fraction(-7, 3), r).truncate(13)
        assert first_rb_failure(trunc, 0, 5) is None
        images = list(trunc.images)
        images[6] = images[6] + Poly.constant(1)
        assert first_rb_failure(TruncOp(tuple(images)), 0, 5) == (0, 3)
        head = curve_coords(r, Fraction(-7, 3), 3).c
        assert satisfies_system(r, head, 4)
        assert not satisfies_system(r, (head[0] + 1,) + head[1:], 4)


class TestElimination:
    def test_unit_context_first(self):
        assert elimination_polynomial(ONE, 1) == MPoly({((0, 2),): Fraction(-1, 2)})

    def test_unit_context_second(self):
        assert elimination_polynomial(ONE, 2) == MPoly(
            {((0, 1), (1, 1)): Fraction(-2, 3)}
        )

    def test_index_guard(self):
        with pytest.raises(IndexTooSmall):
            elimination_polynomial(X, 1)

    def test_huge_index_touches_few_variables(self):
        t = 10**8
        assert elimination_polynomial(X, t) == MPoly(
            {((0, 1), (t - 2, 1)): Fraction(-2 * t, t + 2)}
        )

    def test_consistency_on_curve(self):
        for r in (ONE, X, ONE_PLUS_X):
            for a in (Fraction(0), Fraction(1), Fraction(-2)):
                coords = curve_coords(r, a, 7).c
                assign = dict(enumerate(coords))
                for t in range(r.degree + 1, 7):
                    assert elimination_polynomial(r, t).eval_at(assign) == coords[t]


class TestReducedEquation:
    def test_unit_context_reduces_to_zero(self):
        for n in range(7):
            for m in range(7):
                assert reduced_equation(ONE, n, m).is_zero()

    def test_linear_context_point_check(self):
        g = reduced_equation(X, 0, 0)
        assert g.eval_at({0: Fraction(-1, 2), 1: Fraction(-1, 3)}) == 0

    def test_defining_instances_collapse(self):
        # the (n = t-1-k, m = 0) instance is the source of the elimination
        # of c_t, so its reduction cancels to zero identically
        for r in (X, ONE_PLUS_X, Poly((1, 0, 1))):
            k = r.degree
            for t in range(k + 1, k + 4):
                assert reduced_equation(r, t - 1 - k, 0).is_zero()

    def test_reduction_only_keeps_low_coordinates(self):
        for r in (X, Poly((1, 0, 1))):
            for n in range(3):
                for m in range(3):
                    terms = reduced_equation(r, n, m).terms
                    high = {v for key in terms for v, _ in key if v > r.degree}
                    assert not high

    @settings(deadline=None, max_examples=60)
    @given(multipliers(max_deg=2), st.lists(small_rats, min_size=3, max_size=3),
           st.integers(0, 3), st.integers(0, 3))
    def test_reduction_agrees_with_numeric_extension(self, r, values, n, m):
        head = values[: r.degree + 1]
        coords = extend(r, head, n + m + r.degree + 2)
        reduced = reduced_equation(r, n, m).eval_at(dict(enumerate(head)))
        assert reduced == coordinate_equation(r, n, m).eval_at(coords)

    @settings(deadline=None, max_examples=60)
    @given(multipliers(max_deg=2), st.data(), st.integers(0, 3), st.integers(0, 3))
    def test_extension_commutes_with_evaluation(self, r, data, n, m):
        # _extend and _equation over heads in Q[a] agree, point by point,
        # with the reduced MPoly equation evaluated at the head's values
        k = r.degree
        poly_heads = st.lists(small_rats, max_size=3).map(lambda cs: Poly(tuple(cs)))
        head = data.draw(st.lists(poly_heads, min_size=k + 1, max_size=k + 1))
        points = data.draw(st.lists(small_rats, min_size=4, max_size=4))
        value = _equation(r, _extend(r, head, n + m + k + 1).__getitem__, n, m)
        reduced = reduced_equation(r, n, m)
        for a in points:
            assert value(a) == reduced.eval_at({i: h(a) for i, h in enumerate(head)})

    def test_vanishing_beyond_the_degree_cap(self):
        # the curve decision never builds the reduced MPoly equation
        assert vanishes_on_curve(ONE, 40, 40)
        with pytest.raises(DegreeCapExceeded):
            reduced_equation(ONE, 40, 40)

    def test_vanishing_on_curve(self):
        rng = random.Random(43)
        for k in range(5):
            low = tuple(random_rat(rng) for _ in range(k))
            r = Poly(low + (Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)),))
            for n in range(7):
                for m in range(7):
                    assert vanishes_on_curve(r, n, m)

    def test_wrong_extension_is_detected(self, monkeypatch):
        # the curve solves the system, so a decision that always answers True
        # passes the tests above; with every solved coordinate doubled the
        # extended curve head misses the equation
        step = functionals._step
        monkeypatch.setattr(functionals, "_step", lambda r, c, t: step(r, c, t) * 2)
        assert not vanishes_on_curve(ONE_PLUS_X, 1, 1)
        assert not vanishes_on_curve(Poly.monomial(2), 2, 3)


class TestMembership:
    def test_curve_heads_accepted(self):
        for r in (ONE, X, ONE_PLUS_X):
            for a in (Fraction(0), Fraction(1), Fraction(-2)):
                head = curve_coords(r, a, r.degree + 1).c
                assert satisfies_system(r, head, 6)

    def test_negative_budget_rejected(self):
        head = curve_coords(X, 1, 2).c
        with pytest.raises(ValueError, match="budget"):
            satisfies_system(X, head, -1)
        with pytest.raises(ValueError, match="budget"):
            satisfies_system(X, (head[0] + 1, head[1]), -1)

    def test_off_curve_rejected(self):
        assert not satisfies_system(X, (Fraction(-1, 2), Fraction(0)), 6)

    def test_degree_zero_context_fills_the_line(self):
        rng = random.Random(17)
        for _ in range(10):
            head = (random_rat(rng),)
            assert satisfies_system(ONE, head, 6)
            assert recover_base_point(ONE, head) == -head[0]

    def test_recover_from_minimal_head(self):
        assert recover_base_point(X, (Fraction(-1, 2), Fraction(-1, 3))) == 1

    def test_sign_twin_is_a_genuine_curve_point(self):
        # (-1/2, +1/3) is the curve point of base point -1, not a reject
        assert recover_base_point(X, (Fraction(-1, 2), Fraction(1, 3))) == -1

    def test_not_on_curve(self):
        assert recover_base_point(X, (Fraction(-1, 2), Fraction(5))) is None

    def test_zeros_recover_origin(self):
        assert recover_base_point(X, (Fraction(0), Fraction(0), Fraction(0))) == 0

    def test_membership_implies_recovery(self):
        rng = random.Random(29)
        for r in (X, ONE_PLUS_X):
            for _ in range(5):
                a = random_rat(rng)
                head = curve_coords(r, a, r.degree + 1).c
                assert satisfies_system(r, head, 8)
                assert recover_base_point(r, curve_coords(r, a, r.degree + 2).c) == a
                bumped = (head[0] + 1,) + head[1:]
                assert not satisfies_system(r, bumped, 8)

    @settings(deadline=None)
    @given(multipliers(), small_rats, st.integers(0, 5), st.integers(0, 3), small_rats)
    def test_matches_reference_loop(self, r, a, budget, j, bump):
        head = curve_coords(r, a, r.degree + 1).c
        assert satisfies_system(r, head, budget) is ref_satisfies_system(r, head, budget) is True
        j = min(j, r.degree)
        bumped = head[:j] + (head[j] + bump,) + head[j + 1 :]
        assert satisfies_system(r, bumped, budget) is ref_satisfies_system(r, bumped, budget)

    @settings(deadline=None, max_examples=150)
    @given(
        multipliers(max_deg=4),
        st.sampled_from(["curve", "bumped", "random"]),
        st.fractions(min_value=-1000, max_value=1000, max_denominator=50),
        st.lists(small_rats, min_size=5, max_size=5),
        st.integers(0, 4),
        st.integers(0, 8),
    )
    def test_agrees_with_reference(self, r, kind, a, entries, j, budget):
        k = r.degree
        head = curve_coords(r, a, k + 1).c
        if kind == "bumped":
            j = min(j, k)
            head = head[:j] + (head[j] + (entries[j] or 1),) + head[j + 1 :]
        elif kind == "random":
            head = tuple(entries[: k + 1])
        assert satisfies_system(r, head, budget) is ref_satisfies_system(r, head, budget)

    def test_small_budget_accepts_an_off_curve_head(self):
        # the finite check answers for its budget only: c_0 + 1 on the curve
        # head of x^4 + 3 at 0 meets every equation with n, m <= 1
        r = Poly.from_text("x^4+3")
        head = curve_coords(r, 0, 5).c
        bumped = (head[0] + 1,) + head[1:]
        assert recover_base_point(r, bumped) is None
        assert satisfies_system(r, bumped, 0)
        assert satisfies_system(r, bumped, 1)
        assert not satisfies_system(r, bumped, 2)

    def test_default_is_exact(self):
        # the bump that budgets 0 and 1 accept is rejected without a budget
        r = Poly.from_text("x^4+3")
        head = curve_coords(r, 0, 5).c
        bumped = (head[0] + 1,) + head[1:]
        assert satisfies_system(r, head) is True
        assert satisfies_system(r, bumped) is False
        assert satisfies_system(r, bumped, 1) is True

    @settings(deadline=None)
    @given(
        multipliers(max_deg=4),
        st.sampled_from(["curve", "bumped", "random"]),
        small_rats,
        st.lists(small_rats, min_size=5, max_size=5),
        st.integers(0, 4),
    )
    def test_default_is_the_base_point_decision(self, r, kind, a, entries, j):
        k = r.degree
        head = curve_coords(r, a, k + 1).c
        if kind == "bumped":
            j = min(j, k)
            head = head[:j] + (head[j] + (entries[j] or 1),) + head[j + 1 :]
        elif kind == "random":
            head = tuple(entries[: k + 1])
        assert satisfies_system(r, head) is (recover_base_point(r, head) is not None)

    def test_budget_zero_accepts_every_head(self):
        # the only pair (0, 0) is the one the step for c_(k+1) solves
        rng = random.Random(11)
        for _ in range(20):
            r = random_poly(rng, 4)
            head = tuple(random_rat(rng) for _ in range(r.degree + 1))
            assert satisfies_system(r, head, 0)

    def test_finite_check_accepts_curve_heads_on_its_own(self, monkeypatch):
        # with the base-point decision switched off, the finite check alone
        # must still accept curve heads and reject bumped ones
        monkeypatch.setattr(functionals, "recover_base_point", lambda r, head: None)
        rng = random.Random(37)
        for _ in range(10):
            r, a = random_poly(rng, 4), random_rat(rng)
            head = curve_coords(r, a, r.degree + 1).c
            assert satisfies_system(r, head, 8)
            if r.degree:
                assert not satisfies_system(r, (head[0] + 1,) + head[1:], 8)

    @pytest.mark.parametrize("bits", [64, 256, 1024])
    def test_recover_tall_base_points(self, bits):
        rng = random.Random(bits)

        def tall():
            return Fraction(rng.getrandbits(bits) - 2 ** (bits - 1), rng.getrandbits(bits) | 1)

        for k in (0, 2):
            r, a = Poly(tuple(tall() for _ in range(k + 1))), tall()
            head = curve_coords(r, a, k + 2).c
            assert recover_base_point(r, head) == a
            assert recover_base_point(r, head[: k + 1]) == a
            assert recover_base_point(r, (head[0] + 1,) + head[1:]) is None


# -- the curve entries against the construction through a truncation ------------


def ref_curve_symbolic(r, length):
    """The symbolic curve as the negated images of the truncation at base point 0."""
    return [-image for image in AnalyticOp(0, r).truncate(length - 1).images] if length else []


def ref_recover_base_point(r, head):
    """The common root of the symbolic entries, each shifted by its head value."""
    entries = ref_curve_symbolic(r, len(head))
    return common_root(*(e - Poly.constant(v) for e, v in zip(entries, head)))


class TestCurveEntries:
    """The curve entries written in one integer pass, against the truncation they replace."""

    @settings(deadline=None, max_examples=60)
    @given(
        tall_multipliers(),
        tall_base_points,
        st.integers(1, 4),
        st.integers(0, 7),
        st.one_of(st.just(0), st.just(1), tall_base_points.filter(bool)),
    )
    def test_recover_matches_the_truncation_construction(self, r, a, extra, j, bump):
        head = list(curve_coords(r, a, r.degree + extra).c)
        head[j % len(head)] += bump
        got = recover_base_point(r, head)
        assert got == ref_recover_base_point(r, head)
        if not bump:
            assert got == a

    @settings(deadline=None, max_examples=60)
    @given(tall_multipliers(), st.integers(0, 7))
    def test_symbolic_matches_the_negated_truncation(self, r, length):
        got = curve_coords_symbolic(r, length)
        want = ref_curve_symbolic(r, length)
        assert [(e.num, e.den) for e in got] == [(e.num, e.den) for e in want]


class TestCurveEntriesRouting:
    """No truncation and no polynomial sum builds the curve; no ``Fraction`` sum walks it."""

    R = Poly.from_text("x^3 - 2*x + 1/3")
    A = Fraction(-7, 3)

    def test_curve_entries_need_no_truncation(self, monkeypatch):
        def refuse(*args):
            raise RingSum

        r, a = self.R, self.A
        want = [(e.num, e.den) for e in ref_curve_symbolic(r, 6)]
        ext = curve_coords(r, a, 5).c
        head = ext[:4]
        bumped = (head[0], head[1] + 1) + head[2:]
        monkeypatch.setattr(AnalyticOp, "truncate", refuse)
        for name in ("__neg__", "__add__", "__sub__"):
            monkeypatch.setattr(Poly, name, refuse)
        with pytest.raises(RingSum):
            X - X
        assert [(e.num, e.den) for e in curve_coords_symbolic(r, 6)] == want
        assert recover_base_point(r, ext) == a
        assert recover_base_point(r, head) == a
        assert recover_base_point(r, bumped) is None
        assert vanishes_on_curve(r, 4, 5)
        for budget in (None, 8):
            assert satisfies_system(r, head, budget)
            assert not satisfies_system(r, bumped, budget)

    def test_rational_walk_sums_on_integers(self, monkeypatch):
        # each equation of the finite walk is summed on integer numerators and
        # reduced once, into one Fraction: no Fraction sum, and no Fraction
        # times an integer weight
        def refuse(*args):
            raise RingSum

        def no_weight(mul):
            def checked(self, other):
                if isinstance(other, int):
                    raise RingSum
                return mul(self, other)

            return checked

        r, small = self.R, Poly.from_text("x^4+3")
        head = curve_coords(r, self.A, 4).c
        bumped = (head[0], head[1] + 1) + head[2:]
        off = curve_coords(small, 0, 5).c
        off = (off[0] + 1,) + off[1:]
        # the base-point decision off, so the walk alone answers for the curve head
        monkeypatch.setattr(functionals, "recover_base_point", lambda r, head: None)
        monkeypatch.setattr(Fraction, "__add__", refuse)
        monkeypatch.setattr(Fraction, "__radd__", refuse)
        monkeypatch.setattr(Fraction, "__mul__", no_weight(Fraction.__mul__))
        monkeypatch.setattr(Fraction, "__rmul__", no_weight(Fraction.__rmul__))
        with pytest.raises(RingSum):
            head[0] + head[1]
        with pytest.raises(RingSum):
            head[0] * 2
        assert satisfies_system(r, head, 8)
        assert not satisfies_system(r, bumped, 8)
        assert satisfies_system(small, off, 1)
        assert not satisfies_system(small, off, 2)


class TestOperatorRoundTrip:
    def test_curve_coords_rebuild_the_operator(self):
        rng = random.Random(31)
        for _ in range(10):
            r, a = random_poly(rng, 3), random_rat(rng)
            fc = curve_coords(r, a, 6)
            assert operator_from_coords(fc, 5) == AnalyticOp(a, r).truncate(5)

    def test_zero_coordinates_give_origin_operator(self):
        fc = FunctionalCoords(X, (Fraction(0),) * 4)
        assert operator_from_coords(fc, 3) == AnalyticOp(0, X).truncate(3)

    def test_round_trip_prefix(self):
        fc = curve_coords(ONE_PLUS_X, Fraction(1, 2), 6)
        back = coords_from_operator(operator_from_coords(fc, 5))
        assert back.r == fc.r and back.c == fc.c

    def test_length_guard(self):
        fc = curve_coords(ONE, 1, 3)
        with pytest.raises(TruncationTooSmall):
            operator_from_coords(fc, 5)

    def test_residual_free_coords_give_rb_operator(self):
        # the correspondence: vanishing residuals on monomial pairs within
        # budget translate into the operator identity within budget
        rng = random.Random(37)
        for _ in range(5):
            r, a = random_poly(rng, 2), random_rat(rng)
            fc = curve_coords(r, a, 12)
            trunc = operator_from_coords(fc, 11)
            assert is_rb_upto(trunc, 0, 3)

    def test_rb_operator_coords_have_vanishing_residuals(self):
        # converse direction: extract the coordinates of an operator that
        # satisfies the identity and check the quadratic functional identity
        rng = random.Random(41)
        for _ in range(5):
            r, a = random_poly(rng, 2), random_rat(rng)
            trunc = AnalyticOp(a, r).truncate(11)
            assert is_rb_upto(trunc, 0, 3)
            fc = coords_from_operator(trunc)
            for n in range(4):
                for m in range(4):
                    assert functional_residual(fc, Poly.monomial(n), Poly.monomial(m)) == 0
