"""Seeded random polynomials and rationals shared by the test modules."""

from fractions import Fraction

from rbx.poly import Poly


def random_poly(rng, max_deg, span=4):
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(deg)]
    lead = 0
    while lead == 0:
        lead = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    return Poly(tuple(coeffs) + (lead,))


def random_rat(rng, span=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))
