"""Univariate polynomial arithmetic, calculus operators, gcd and roots, and the text grammar."""

import copy
import math
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from rbx.poly import (
    DuplicateAbscissa,
    Poly,
    PolyParseError,
    _nodes,
    as_rat,
    common_root,
    gcd,
    rat_text,
)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polys = st.lists(rationals, max_size=7).map(lambda cs: Poly(tuple(cs)))
nonzero_rationals = rationals.filter(lambda q: q != 0)


# -- reference: plain Fraction lists, index i the coefficient of x**i ----------

def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_eval(a, t):
    return sum((c * t**i for i, c in enumerate(a)), Fraction(0))


def ref_compose_affine(a, mu, nu):
    out, power = [], [Fraction(1)]
    for c in a:
        out = ref_add(out, [c * p for p in power])
        power = ref_mul(power, [nu, mu])
    return out


tall_rationals = st.builds(
    Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**40)
) | rationals
ref_lists = st.lists(tall_rationals, max_size=6)


class TestIntegerKernel:
    """The integer-numerator kernels agree with plain Fraction arithmetic."""

    @given(ref_lists, ref_lists, tall_rationals)
    def test_ring_ops_match_reference(self, a, b, q):
        p1, p2 = Poly(tuple(a)), Poly(tuple(b))
        assert list((p1 + p2).coeffs) == ref_add(a, b)
        assert list((p1 - p2).coeffs) == ref_add(a, [-c for c in b])
        assert list((p1 * p2).coeffs) == ref_mul(a, b)
        assert list((p1 * q).coeffs) == ref_trim(c * q for c in a)
        assert list((q * p1).coeffs) == ref_trim(c * q for c in a)
        assert list((p1 * 3).coeffs) == ref_trim(c * 3 for c in a)

    @given(ref_lists, tall_rationals, tall_rationals)
    def test_calculus_and_evaluation_match_reference(self, a, t, mu):
        p = Poly(tuple(a))
        assert p(t) == ref_eval(a, t)
        assert p(7) == ref_eval(a, Fraction(7))
        assert list(p.derive().coeffs) == ref_trim(i * c for i, c in enumerate(a))[1:]
        anti = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(a)]
        anti[0] = -ref_eval(anti, t)
        assert list(p.integrate_at(t).coeffs) == ref_trim(anti)
        assert list(p.compose_affine(mu, t).coeffs) == ref_compose_affine(a, mu, t)

    @given(ref_lists)
    def test_lowest_terms_and_canonical_hash(self, a):
        p = Poly(tuple(a))
        assert p.den > 0 and math.gcd(p.den, *p.num) == 1
        assert p.coeffs == tuple(ref_trim(a))
        third = Poly.constant(Fraction(1, 3))
        rebuilt = p.derive().integrate_at(0) + Poly.constant(p(0))
        for same in ((p * 6) * Fraction(1, 6), (p + third) - third, rebuilt):
            assert same == p and hash(same) == hash(p)

    def test_equal_values_hash_equal(self):
        assert Poly((Fraction(2, 4),)) == Poly((Fraction(1, 2),))
        assert hash(Poly((Fraction(2, 4),))) == hash(Poly((Fraction(1, 2),)))
        assert Poly((Fraction(1, 2), 1)) * 2 == Poly((1, 2))
        assert hash(Poly((Fraction(1, 2), 1)) * 2) == hash(Poly((1, 2)))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Poly.one().num = (2,)

    def test_pickle_and_copy(self):
        p = Poly((Fraction(-1, 6), 0, Fraction(4, 9)))
        assert pickle.loads(pickle.dumps(p)) == p
        assert copy.deepcopy(p) == p


class TestEvaluationKernel:
    """``Poly._at``, the unreduced integer value that every evaluation goes through."""

    @given(ref_lists, tall_rationals)
    def test_matches_reference(self, a, t):
        p = Poly(tuple(a))
        n, d = p._at(t)
        assert Fraction(n, d) == ref_eval(a, t) == p(t)
        if p:
            assert d == p.den * t.denominator**p.degree

    @given(ref_lists, st.integers(-(2**70), 2**70))
    def test_integer_point_keeps_the_denominator(self, a, t):
        p = Poly(tuple(a))
        for point in (t, Fraction(t)):
            n, d = p._at(point)
            assert d == p.den
            assert Fraction(n, d) == ref_eval(a, Fraction(t))

    @given(tall_rationals)
    def test_zero_polynomial(self, t):
        assert Poly.zero()._at(t) == (0, 1)
        assert Poly.zero()(t) == 0


class TestRingOps:
    def test_add_cancellation(self):
        assert Poly((1, 1)) + Poly((0, -1)) == Poly.one()

    def test_add_identity(self):
        p = Poly((3, 0, Fraction(1, 2)))
        assert Poly.zero() + p == p

    def test_add_disjoint_supports(self):
        assert Poly.monomial(2) + Poly.x() == Poly((0, 1, 1))

    def test_mul_by_x(self):
        assert Poly.x() * Poly.monomial(2) == Poly.monomial(3)

    def test_mul_by_zero(self):
        assert Poly.zero() * Poly((1, 2, 3)) == Poly.zero()

    def test_difference_of_squares(self):
        assert Poly((1, 1)) * Poly((1, -1)) == Poly((1, 0, -1))

    def test_zero_is_empty(self):
        assert Poly((0, 0)).coeffs == ()
        assert Poly((0, 0)).is_zero()

    def test_degree_sentinel(self):
        assert Poly.zero().degree == float("-inf")
        assert Poly.one().degree == 0

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_scalar_refused(self, flag):
        # as_rat's contract: a bool is not a rational, so it scales nothing;
        # MPoly refuses it the same way
        p = Poly((1, 2))
        with pytest.raises(TypeError, match="bool"):
            p * flag
        with pytest.raises(TypeError, match="bool"):
            flag * p


class TestCalculus:
    def test_derive_cube(self):
        assert Poly.monomial(3).derive() == Poly.monomial(2, 3)

    def test_derive_constant(self):
        assert Poly.constant(7).derive() == Poly.zero()

    def test_integrate_square_at_one(self):
        assert Poly.monomial(2).integrate_at(1) == Poly(
            (Fraction(-1, 3), 0, 0, Fraction(1, 3))
        )

    def test_integrate_at_zero_is_constant_free(self):
        p = Poly((2, 0, 5))
        assert p.integrate_at(0).coeff(0) == 0

    def test_integrate_linear_at_two(self):
        # termwise: J_2(1) = x - 2, J_2(x) = x^2/2 - 2
        assert Poly((1, 1)).integrate_at(2) == Poly((-4, 1, Fraction(1, 2)))

    def test_derive_after_integrate(self):
        p = Poly((Fraction(-1, 3), 0, 2))
        for a in (0, 1, Fraction(-5, 2)):
            assert p.integrate_at(a).derive() == p

    @given(polys, rationals)
    def test_derive_undoes_integrate(self, p, a):
        assert p.integrate_at(a).derive() == p

    @given(polys, rationals)
    def test_integral_vanishes_at_base(self, p, a):
        assert p.integrate_at(a)(a) == 0

    @given(polys, polys, rationals, rationals, rationals)
    def test_integration_is_linear(self, p, q, alpha, beta, a):
        lhs = (p * alpha + q * beta).integrate_at(a)
        rhs = p.integrate_at(a) * alpha + q.integrate_at(a) * beta
        assert lhs == rhs


class TestEvaluation:
    def test_root_of_difference(self):
        assert Poly((-1, 0, 1))(1) == 0

    def test_constant_term(self):
        assert Poly((Fraction(5, 3), 2))(0) == Fraction(5, 3)

    def test_cubic_at_two(self):
        assert Poly((Fraction(-8, 3), 0, 0, Fraction(1, 3)))(2) == 0


class TestAffineSubstitution:
    def test_square_shift(self):
        assert Poly.monomial(2).compose_affine(1, 1) == Poly((1, 2, 1))

    def test_identity_substitution(self):
        p = Poly((1, -2, 0, 4))
        assert p.compose_affine(1, 0) == p

    def test_linear_case(self):
        assert Poly.x().compose_affine(2, -3) == Poly((-3, 2))

    @given(polys, nonzero_rationals, rationals)
    def test_affine_inverse(self, p, mu, nu):
        assert p.compose_affine(mu, nu).compose_affine(1 / mu, -nu / mu) == p


def ref_lagrange(points):
    """O(n**3) reference: sum of y_l * prod_{j != l} (x - x_j) / (x_l - x_j)."""
    out = []
    for l, (xl, yl) in enumerate(points):
        basis = [Fraction(yl)]
        for j, (xj, _) in enumerate(points):
            if j != l:
                w = Fraction(xl - xj)
                basis = ref_mul(basis, [-xj / w, 1 / w])
        out = ref_add(out, basis)
    return out


# integer nodes, small and tall
int_nodes = st.integers(-30, 30) | st.integers(-(2**64), 2**64)
distinct_nodes = st.lists(
    st.tuples(int_nodes, tall_rationals), max_size=8, unique_by=lambda p: p[0]
)


def through(points) -> Poly:
    """The ``_nodes`` map of the x-values applied to the y-values."""
    xs, ys = zip(*points) if points else ((), ())
    return _nodes(xs)([(Fraction(y).numerator, Fraction(y).denominator) for y in ys])


class TestLagrange:
    """Lagrange interpolation through ``_nodes``, one value vector per node set."""

    @given(distinct_nodes)
    def test_matches_reference(self, points):
        assert list(through(points).coeffs) == ref_lagrange(points)

    @given(st.lists(int_nodes, max_size=8, unique=True))
    def test_all_zero_values(self, xs):
        assert through([(x, 0) for x in xs]).is_zero()

    @given(int_nodes, tall_rationals)
    def test_one_node_is_constant(self, x, y):
        assert through([(x, y)]) == Poly.constant(y)

    @given(distinct_nodes.filter(bool), st.data())
    def test_any_repeated_node_raises(self, points, data):
        x, _ = data.draw(st.sampled_from(points))
        with pytest.raises(DuplicateAbscissa):
            through(points + [(x, data.draw(tall_rationals))])

    def test_square_through_three_points(self):
        assert through([(0, 0), (1, 1), (2, 4)]) == Poly.monomial(2)

    def test_single_point(self):
        assert through([(5, 1)]) == Poly.one()

    def test_selector_polynomial(self):
        # (x-2)(x-3)/2 expanded
        assert through([(1, 1), (2, 0), (3, 0)]) == Poly(
            (3, Fraction(-5, 2), Fraction(1, 2))
        )

    def test_duplicate_abscissa(self):
        with pytest.raises(DuplicateAbscissa):
            through([(1, 1), (1, 2)])

    @given(st.lists(st.tuples(st.integers(-9, 9), rationals), max_size=6))
    def test_reevaluates_to_inputs(self, points):
        xs = [x for x, _ in points]
        if len(set(xs)) != len(xs):
            with pytest.raises(DuplicateAbscissa):
                through(points)
            return
        p = through(points)
        assert p.degree < max(len(points), 1)
        for x, y in points:
            assert p(x) == y


def ref_weights(xs):
    return [math.prod(xl - xj for xj in xs if xj != xl) for xl in xs]


node_sets = st.lists(int_nodes, min_size=1, max_size=7, unique=True)


class TestNodeSet:
    """One ``_nodes`` map, built once, interpolates any number of value vectors."""

    @given(node_sets, st.data())
    def test_several_vectors_match_reference(self, xs, data):
        interpolate = _nodes(xs)
        vectors = data.draw(st.lists(
            st.lists(tall_rationals, min_size=len(xs), max_size=len(xs)), min_size=1, max_size=4
        ))
        vectors.append([Fraction(0)] * len(xs))
        for ys in vectors:
            got = interpolate([(y.numerator, y.denominator) for y in ys])
            assert list(got.coeffs) == ref_lagrange(list(zip(xs, ys)))
            assert got == through(list(zip(xs, ys)))

    @given(node_sets.filter(lambda xs: len(xs) >= 2), st.data())
    def test_negative_weights_and_unreduced_values(self, xs, data):
        assert any(w < 0 for w in ref_weights(xs))
        ys = data.draw(st.lists(tall_rationals, min_size=len(xs), max_size=len(xs)))
        k = data.draw(st.sampled_from([-3, -1, 2, 7]))
        got = _nodes(xs)([(y.numerator * k, y.denominator * k) for y in ys])
        assert list(got.coeffs) == ref_lagrange(list(zip(xs, ys)))

    def test_all_zero_vector(self):
        assert _nodes([2, -3, 5])([(0, 1), (0, -4), (0, 9)]).is_zero()

    @given(node_sets, st.data())
    def test_duplicate_raises_when_built(self, xs, data):
        x = data.draw(st.sampled_from(xs))
        with pytest.raises(DuplicateAbscissa):
            _nodes(xs + [x])

    def test_value_count_must_match(self):
        with pytest.raises(ValueError):
            _nodes([0, 1])([(1, 1)])


def linear(a) -> Poly:
    """x - a."""
    return Poly((-Fraction(a), 1))


class TestGcd:
    def test_coprime(self):
        assert gcd(Poly((1, 0, 1)), Poly((-1, 1))) == Poly.one()

    def test_common_linear_factor(self):
        f = linear(Fraction(2, 3)) * Poly((1, 0, 1))
        g = linear(Fraction(2, 3)) * Poly((-5, 1)) * 6
        assert gcd(f, g) == linear(Fraction(2, 3))

    def test_repeated_root(self):
        square = linear(-3) * linear(-3)
        f = square * linear(-3) * Poly((1, 1))
        g = square * Poly((1, 0, 1))
        assert gcd(f, g) == square

    def test_zero_input(self):
        p = Poly((-2, 0, Fraction(1, 2)))
        assert gcd(Poly.zero(), p) == Poly((-4, 0, 1))
        assert gcd(p, Poly.zero()) == Poly((-4, 0, 1))
        assert gcd(Poly.zero(), Poly.zero()) == Poly.zero()
        assert gcd() == Poly.zero()

    def test_many_arguments(self):
        base = linear(Fraction(-1, 7))
        assert gcd(base * Poly.x(), base * linear(1), base * base) == base

    @given(polys, polys, polys)
    def test_divides_and_is_greatest(self, f, g, h):
        d = gcd(f * h, g * h)
        if f.is_zero() and g.is_zero() or h.is_zero():
            assert d == Poly.zero()
            return
        assert d.coeff(d.degree) == 1
        # h divides both inputs, so it divides the gcd: the gcd keeps every root of h
        assert d.degree >= h.degree
        for p in (f * h, g * h):
            assert _remainder(p, d) == Poly.zero()


def _remainder(p: Poly, d: Poly) -> Poly:
    """p mod monic d, by schoolbook division on the Fraction coefficients."""
    while not p.is_zero() and p.degree >= d.degree:
        p = p - d * Poly.monomial(p.degree - d.degree, p.coeff(p.degree))
    return p


class TestRationalRoots:
    """``common_root`` reads the one rational root off a gcd, or returns None."""

    def test_plus_minus_one(self):
        assert common_root(Poly((-1, 0, 1))) is None
        assert common_root(Poly((-1, 0, 1)), Poly((-1, 1))) == 1
        assert common_root(Poly((-1, 0, 1)), Poly((1, 1))) == -1

    def test_no_real_roots(self):
        assert common_root(Poly((1, 0, 1))) is None
        assert common_root(Poly((1, 0, 1)), Poly((1, 0, 1)) * linear(2)) is None

    def test_cleared_denominators(self):
        assert common_root(Poly((-2, 0, Fraction(1, 2))), linear(2)) == 2

    def test_zero_polynomial_rejected(self):
        assert common_root(Poly.zero()) is None
        assert common_root(Poly.zero(), linear(-5)) == -5

    def test_root_at_zero_with_multiplicity(self):
        assert common_root(Poly((0, 0, 3))) == 0

    def test_fractional_roots(self):
        # (2x - 1)(3x + 2) = 6x^2 + x - 2
        assert common_root(Poly((-2, 1, 6))) is None
        assert common_root(Poly((-2, 1, 6)), Poly((-1, 2))) == Fraction(1, 2)

    def test_constant_has_no_root(self):
        assert common_root(Poly.constant(4)) is None

    @pytest.mark.parametrize("bits", [64, 256, 1024])
    def test_tall_root_with_tall_cofactor(self, bits):
        a = Fraction(3**bits // 2**(bits // 2) + 1, 2**bits + 1)
        lead = 2**bits - 1
        cofactor = Poly((lead, 1, 0, lead))
        square = linear(a) * linear(a)
        assert common_root(square * cofactor, linear(a) * cofactor.derive()) == a
        assert common_root(square * linear(a) * Poly.constant(lead)) == a


    @given(nonzero_rationals | st.integers(-(2**70), 2**70).map(Fraction), st.integers(1, 4), st.data())
    def test_power_form_only(self, a, e, data):
        power = Poly.one()
        for _ in range(e):
            power = power * linear(a)
        assert common_root(power * data.draw(nonzero_rationals)) == a
        # roots with the same mean a, not all at a
        d = data.draw(nonzero_rationals)
        assert common_root(power * linear(a + d) * linear(a - d)) is None


class TestRatText:
    """``rat_text`` is ``str`` of a rational, also past the int-to-string digit limit."""

    def test_matches_unlimited_str(self):
        values = [
            0, 7, -12, Fraction(-3, 4), 10**4300 - 1, 10**4300, 10**5000, 10**5000 + 1,
            -(7**20000), Fraction(10**5000 + 1, 3**9000), Fraction(-1, 2**20000),
        ]
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            expected = [str(v) for v in values]
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert [rat_text(v) for v in values] == expected


class TestRationalLiteral:
    """``as_rat`` reads a string exactly as the polynomial grammar reads a coefficient."""

    @pytest.mark.parametrize(
        "text,value",
        [("3", 3), ("-1/2", Fraction(-1, 2)), ("+3", 3), (" 1 / 2 ", Fraction(1, 2))],
    )
    def test_accepted(self, text, value):
        assert as_rat(text) == value
        assert Poly.from_text(text) == Poly.constant(value)

    @pytest.mark.parametrize(
        "bad", ["0.5", "1e3", "1_000", "1/0", "", "/2", "1/-2", "\u0663/\u0664"]
    )
    def test_rejected(self, bad):
        with pytest.raises(PolyParseError):
            as_rat(bad)

    def test_past_the_int_string_limit(self):
        # more digits than int() reads by default; the parse mirrors rat_text
        cases = {
            "1" * 4301: (int("1" * 2150) * 10**2151 + int("1" * 2151), 1),
            "-" + "9" * 5000 + "/7": (-(10**5000 - 1), 7),
            "+3/" + "1" + "0" * 5000: (3, 10**5000),
            "-" + "1" + "0" * 9000 + "/" + "2" * 4400: (-(10**9000), int("2" * 2200) * (10**2200 + 1)),
        }
        for text, (num, den) in cases.items():
            assert as_rat(text) == Fraction(num, den)
        with pytest.raises(PolyParseError):
            as_rat("1" * 5000 + "/0")

    @pytest.mark.parametrize(
        "bad",
        ["1" * 5000 + ".5", "1" * 5000 + "/0", "1/-" + "2" * 5000],
        ids=["decimal", "zero-denominator", "signed-denominator"],
    )
    def test_long_bad_literal_message_is_short(self, bad):
        with pytest.raises(PolyParseError) as exc:
            as_rat(bad)
        assert len(str(exc.value)) < 200
        with pytest.raises(PolyParseError) as exc:
            Poly.from_text("x + " + bad)
        assert len(str(exc.value)) < 200

    @given(tall_rationals)
    def test_str_round_trip(self, q):
        assert as_rat(str(q)) == q


def ref_poly_text(cs):
    """Text form of a dense Fraction list, highest power first."""
    parts = []
    for exp in reversed(range(len(cs))):
        c = cs[exp]
        if c == 0:
            continue
        mag = abs(c)
        mono = "" if exp == 0 else "x" if exp == 1 else f"x^{exp}"
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        sign = ("-" if c < 0 else "") if not parts else (" - " if c < 0 else " + ")
        parts.append(sign + body)
    return "".join(parts) or "0"


text_coeffs = st.lists(st.sampled_from([0, 0, 1, -1]).map(Fraction) | tall_rationals, max_size=41)


class TestTextGrammar:
    @given(text_coeffs)
    @example([])
    @example([Fraction(0)])
    @example([Fraction(-7, 3)])
    @example([Fraction(0), Fraction(-1)])
    @example([Fraction(1), Fraction(0), Fraction(-1)])
    @example([Fraction(2**80 - 1, 2**40 + 1), Fraction(0), Fraction(-(2**80))])
    @example([Fraction(0)] * 40 + [Fraction(-1)])
    def test_to_text_matches_dense_reference(self, cs):
        assert Poly(tuple(cs)).to_text() == ref_poly_text(cs)

    def test_mixed_sign_terms(self):
        p = Poly.from_text("-1/2*x^2 + x - 3")
        assert p == Poly((-3, 1, Fraction(-1, 2)))
        assert p.to_text() == "-1/2*x^2 + x - 3"

    def test_whitespace_ignored(self):
        assert Poly.from_text(" - 1/2 * x ^ 2+x-3 ") == Poly.from_text("-1/2*x^2 + x - 3")

    def test_optional_star_and_exponent(self):
        assert Poly.from_text("2x") == Poly((0, 2))
        assert Poly.from_text("x^3") == Poly.monomial(3)
        assert Poly.from_text("7") == Poly.constant(7)
        assert Poly.from_text("-x") == Poly((0, -1))

    def test_zero(self):
        assert Poly.from_text("0") == Poly.zero()
        assert Poly.zero().to_text() == "0"

    @pytest.mark.parametrize(
        "bad", ["", "x^", "3*", "1//2", "y", "2/0*x", "++", "1~2", "\u0663x^\u0662", "x^\u0662"]
    )
    def test_malformed(self, bad):
        with pytest.raises(PolyParseError):
            Poly.from_text(bad)

    @given(polys)
    def test_round_trip_bit_exact(self, p):
        assert Poly.from_text(p.to_text()) == p

    def test_round_trip_past_the_int_string_limit(self):
        p = Poly((Fraction(-(10**5000) + 1, 3), 0, 10**4999 * 7))
        text = p.to_text()
        assert text.startswith("7" + "0" * 4999 + "*x^2 - ")
        assert Poly.from_text(text) == p
