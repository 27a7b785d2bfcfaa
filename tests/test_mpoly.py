"""Sparse multivariate arithmetic, the degree cap, evaluation and text form."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rbx import mpoly
from rbx.mpoly import DegreeCapExceeded, MPoly, UnassignedVariable

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def mpolys(draw, max_vars=3, max_exp=3, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        nvars = draw(st.integers(0, max_vars))
        key = tuple(
            (v, draw(st.integers(1, max_exp)))
            for v in sorted(draw(st.sets(st.integers(0, max_vars), max_size=nvars)))
        )
        terms[key] = draw(rationals)
    return MPoly(terms)


c0 = MPoly.variable(0)
c1 = MPoly.variable(1)
c2 = MPoly.variable(2)


class TestRingOps:
    def test_add_cancellation(self):
        assert (c0 + (-c0)).is_zero()

    def test_mul_monomials(self):
        assert c0 * c1 == MPoly({((0, 1), (1, 1)): 1})

    def test_scale(self):
        p = MPoly.variable(0, 2) + c1
        assert p * 2 == MPoly({((0, 2),): 2, ((1, 1),): 2})

    def test_zero_coefficients_dropped(self):
        assert MPoly({((0, 1),): 0}).is_zero()

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_scalar_refused(self, flag):
        # as_rat's contract: a bool is not a rational, so it scales nothing;
        # Poly refuses it the same way
        with pytest.raises(TypeError, match="bool"):
            c0 * flag
        with pytest.raises(TypeError, match="bool"):
            flag * c0

    def test_integer_scalar_needs_no_coercion(self, monkeypatch):
        def refuse(value):
            raise AssertionError("integer scalar coerced")

        p = c0 * Fraction(1, 3) - c1
        tall = MPoly({((0, 1),): Fraction(2**64, 3), ((1, 1),): -(2**64)})
        small = MPoly({((0, 1),): -1, ((1, 1),): 3})
        monkeypatch.setattr(mpoly, "as_rat", refuse)
        assert p * 2**64 == tall and (-3) * p == small
        assert (p * 0).num == {} and (p * 0).den == 1

    @given(mpolys(), mpolys(), mpolys())
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


class TestSubstitution:
    def test_degree_cap(self):
        MPoly.variable(0, 32) * MPoly.variable(1, 32)
        with pytest.raises(DegreeCapExceeded):
            MPoly.variable(0, 33) * MPoly.variable(1, 32)

    def test_degree_cap_boundary(self):
        # total degree 64 is allowed, 65 raises and names the degree
        p = MPoly.variable(0, 30) * MPoly.variable(1, 10) + c2
        q = MPoly.variable(1, 20) * MPoly.variable(2, 4)
        assert (p * q).terms == {((0, 30), (1, 30), (2, 4)): 1, ((1, 20), (2, 5)): 1}
        with pytest.raises(DegreeCapExceeded) as info:
            p * (q * c0)
        assert str(info.value) == "product term degree 65 exceeds cap 64"

    def test_degree_cap_names_the_first_term_over_it(self):
        p = MPoly({((0, 40),): 1, ((0, 50),): 1})
        with pytest.raises(DegreeCapExceeded) as info:
            p * MPoly.variable(1, 30)
        assert str(info.value) == "product term degree 70 exceeds cap 64"


class TestEvaluation:
    def test_curve_identity(self):
        # 9*c1^2 + 8*c0^3 vanishes at c0 = -a^2/2, c1 = -a^3/3: a^6 - a^6
        p = MPoly.variable(1, 2) * 9 + MPoly.variable(0, 3) * 8
        for a in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-7, 3)):
            assert p.eval_at({0: -a**2 / 2, 1: -a**3 / 3}) == 0
        assert p.eval_at({0: Fraction(-1, 2), 1: Fraction(1, 2)}) == Fraction(5, 4)

    def test_unassigned_variable(self):
        with pytest.raises(UnassignedVariable):
            (c0 + c1).eval_at({0: 1})


def ref_to_text(terms):
    """Text form of a term map, terms sorted by dense exponent vectors."""
    if not terms:
        return "0"
    width = max((var for key in terms for var, _ in key), default=-1) + 1

    def dense_key(key):
        dense = [0] * width
        for var, exp in key:
            dense[var] = exp
        return (-sum(dense), [-e for e in dense])

    parts = []
    for key in sorted(terms, key=dense_key):
        coef = terms[key]
        mag = abs(coef)
        vars_part = "*".join(f"c{v}" if e == 1 else f"c{v}^{e}" for v, e in key)
        body = str(mag) if not key else vars_part if mag == 1 else f"{mag}*{vars_part}"
        sign = ("-" if coef < 0 else "") if not parts else (" - " if coef < 0 else " + ")
        parts.append(sign + body)
    return "".join(parts)


class TestTextForm:
    @given(mpolys(max_vars=6, max_terms=8))
    def test_matches_dense_reference(self, p):
        assert p.to_text() == ref_to_text(p.terms)

    def test_graded_lex_order(self):
        p = MPoly.variable(0, 2) + c1 * 2
        assert p.to_text() == "c0^2 + 2*c1"

    def test_negative_leading_coefficient(self):
        assert (MPoly.variable(0, 2) * Fraction(-1, 2)).to_text() == "-1/2*c0^2"

    def test_zero(self):
        assert MPoly.zero().to_text() == "0"

    def test_huge_variable_index(self):
        n = 10**8
        p = MPoly.variable(0) * MPoly.variable(n) + MPoly.variable(n + 2) * Fraction(1, 2)
        assert p.to_text() == f"c0*c{n} + 1/2*c{n + 2}"

    def test_mixed_terms(self):
        p = c0 * c1 + MPoly({(): 3}) - MPoly.variable(2)
        assert p.to_text() == "c0*c1 - c2 + 3"


# -- differential test against a plain dict[Key, Fraction] reference ------------

coefs = st.one_of(
    rationals,
    st.fractions(max_denominator=10**12),
    st.integers(-(10**20), 10**20),
)


@st.composite
def raw_terms(draw, max_vars=3, max_exp=3, max_terms=5):
    """Term maps with unsorted keys, repeated variables, zero exponents and zero coefficients."""
    keys = st.lists(
        st.tuples(st.integers(0, max_vars), st.integers(0, max_exp)), max_size=3
    ).map(tuple)
    return draw(st.dictionaries(keys, st.one_of(st.just(0), coefs), max_size=max_terms))


def ref_key(pairs):
    merged = {}
    for var, exp in pairs:
        if exp:
            merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


def ref_nonzero(terms):
    return {key: coef for key, coef in terms.items() if coef}


def ref_terms(raw):
    out = {}
    for key, coef in raw.items():
        k = ref_key(key)
        out[k] = out.get(k, Fraction(0)) + Fraction(coef)
    return ref_nonzero(out)


def ref_add(a, b):
    out = dict(a)
    for key, coef in b.items():
        out[key] = out.get(key, Fraction(0)) + coef
    return ref_nonzero(out)


def ref_scale(a, q):
    return ref_nonzero({key: coef * q for key, coef in a.items()})


def ref_mul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = ref_key(k1 + k2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return ref_nonzero(out)


def ref_eval(a, assign):
    total = Fraction(0)
    for key, coef in a.items():
        for var, exp in key:
            coef *= assign[var] ** exp
        total += coef
    return total


class TestMatchesFractionReference:
    """Every operation agrees with a plain ``dict[Key, Fraction]`` reference."""

    @staticmethod
    def check(p, ref):
        assert p.terms == ref
        assert all(type(coef) is Fraction for coef in p.terms.values())
        assert p.to_text() == ref_to_text(ref)
        assert p.is_zero() is (not ref) and bool(p) is bool(ref)
        assert p == MPoly(ref)

    @given(raw_terms(), raw_terms())
    def test_ring_operations(self, a, b):
        p, q = MPoly(a), MPoly(b)
        ra, rb = ref_terms(a), ref_terms(b)
        self.check(p, ra)
        self.check(p + q, ref_add(ra, rb))
        self.check(p - q, ref_add(ra, ref_scale(rb, Fraction(-1))))
        self.check(-p, ref_scale(ra, Fraction(-1)))
        self.check(p * q, ref_mul(ra, rb))
        self.check(p - p, {})
        assert (p == q) is (ra == rb)
        assert (p + q) - q == p and p * q == q * p

    @given(raw_terms(), st.one_of(st.just(0), st.just(Fraction(0)), coefs))
    def test_scalar_products(self, a, s):
        p, ra = MPoly(a), ref_terms(a)
        self.check(p * s, ref_scale(ra, Fraction(s)))
        self.check(s * p, ref_scale(ra, Fraction(s)))

    @given(raw_terms(), st.lists(coefs, min_size=4, max_size=4))
    def test_eval_at(self, a, values):
        assign = dict(enumerate(values))
        expected = ref_eval(ref_terms(a), {var: Fraction(v) for var, v in assign.items()})
        assert MPoly(a).eval_at(assign) == expected


class TestCanonicalForm:
    """Integer numerators over one positive denominator, in lowest terms."""

    @staticmethod
    def check(p):
        assert p.den > 0
        assert math.gcd(p.den, *p.num.values()) == 1
        assert all(type(c) is int and c for c in p.num.values())
        assert p.terms == {key: Fraction(c, p.den) for key, c in p.num.items()}

    @given(raw_terms(), raw_terms(), st.one_of(st.just(0), coefs))
    def test_every_result_is_in_lowest_terms(self, a, b, s):
        p, q = MPoly(a), MPoly(b)
        for result in (p, q, p + q, p - q, -p, p * q, p * s, s * p, p - p):
            self.check(result)

    def test_zero(self):
        for z in (MPoly(), MPoly.zero(), c0 - c0, c0 * 0, c0 * Fraction(0), MPoly({(): 0})):
            assert (z.num, z.den) == ({}, 1)

    def test_routes_to_one_polynomial_compare_equal(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        p = c0 * half + c0 * third
        assert p == MPoly({((0, 1),): Fraction(5, 6)})
        assert (p.num, p.den) == ({((0, 1),): 5}, 6)
        q = (c0 + c1) * Fraction(2, 3) - c1 * Fraction(2, 3)
        assert q == c0 * Fraction(4, 6) == MPoly({((0, 1),): "2/3"})
        assert (q.num, q.den) == ({((0, 1),): 2}, 3)
        assert c0 * 2 * half == c0 and (c0 * 2 * half).den == 1
        assert MPoly({((0, 1), (0, 1)): 1, ((0, 2),): 1}) == MPoly.variable(0, 2) * 2

    def test_variable(self):
        assert (c0.num, c0.den) == ({((0, 1),): 1}, 1)
        assert MPoly.variable(3, 0) == MPoly({(): 1})
        with pytest.raises(ValueError, match="variable indices must be non-negative"):
            MPoly.variable(-1)
        with pytest.raises(ValueError, match="exponents must be non-negative"):
            MPoly.variable(0, -1)
