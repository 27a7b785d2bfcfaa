"""Sparse multivariate arithmetic, the degree cap, evaluation and text form."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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


def ref_to_text(p):
    """Text form with terms sorted by dense exponent vectors."""
    if not p.terms:
        return "0"
    width = max(p.variables(), default=-1) + 1

    def dense_key(key):
        dense = [0] * width
        for var, exp in key:
            dense[var] = exp
        return (-sum(dense), [-e for e in dense])

    parts = []
    for key in sorted(p.terms, key=dense_key):
        coef = p.terms[key]
        mag = abs(coef)
        vars_part = "*".join(f"c{v}" if e == 1 else f"c{v}^{e}" for v, e in key)
        body = str(mag) if not key else vars_part if mag == 1 else f"{mag}*{vars_part}"
        sign = ("-" if coef < 0 else "") if not parts else (" - " if coef < 0 else " + ")
        parts.append(sign + body)
    return "".join(parts)


class TestTextForm:
    @given(mpolys(max_vars=6, max_terms=8))
    def test_matches_dense_reference(self, p):
        assert p.to_text() == ref_to_text(p)

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
        p = c0 * c1 + MPoly.constant(3) - MPoly.variable(2)
        assert p.to_text() == "c0*c1 - c2 + 3"
