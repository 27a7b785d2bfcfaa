"""Linear functionals attached to multiplier-type operators on Q[x].

An operator R with derivative row r corresponds one-to-one to the linear
functional c(f) = R(f)(0) subject to a quadratic identity; in the
coordinates c_i = c(x^i) that identity becomes, for every pair (n, m),

    c_n c_m + sum_i (1/(i+n+1) + 1/(i+m+1)) r_i c_(i+n+m+1) = 0.

For a multiplier of degree k every coordinate c_t with t > k can be solved
for in lower coordinates (``elimination_polynomial``); ``_extend`` solves
them in turn over a head c_0 .. c_k in any ring: ``MPoly`` variables for
``reduced_equation``, rationals for ``satisfies_system`` (membership at a
finite budget) and the symbolic curve in Q[a] for ``vanishes_on_curve``.
The curve of functionals realised by an actual integration base point a is
``curve_coords``, its symbolic form in a is ``curve_coords_symbolic``, and
``recover_base_point`` decides whether a head lies on the curve.

The equation itself is ``operators._scaled_equation``, shared with the
identity check: at weight 0 the residual of a multiplier-type truncation on
(x^n, x^m) is minus the (n, m) equation of its image constants, so
``first_rb_failure`` evaluates that equation too.  Over ``MPoly``, ``Poly``
and rational coordinates it is one fused pass reduced once, the division of
an elimination step by the weight of c_t included; integer coordinates keep
the loop of ring operators.  The symbolic curve entries, shifted by a head
or not, are written straight from the integers of r (``_shifted_curve``).

Membership rests on the paper's classification (PAPER.md): an injective
weight-zero Rota-Baxter operator on Q[x] whose head lies on the curve of r
is analytically modeled, R = I_a(r*), so its functional solves every
coordinate equation.  So membership is exactly ``recover_base_point``
finding a base point, which is what ``satisfies_system`` decides by default
(``budget=None``).  With an explicit budget it accepts a head on the curve
the same way and runs the finite check only off the curve, where a small
budget can still accept.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .mpoly import MPoly
from .operators import TruncOp, TruncationTooSmall, _scaled_equation, derived_multiplier
from .poly import Poly, RatLike, _normal, _Value, as_rat, common_root


class IndexTooSmall(ValueError):
    """Coordinate index does not exceed the multiplier degree; nothing to eliminate."""


def _context(r: Poly, n: int = 0, m: int = 0) -> int:
    """The multiplier degree, once r is nonzero and n, m are non-negative."""
    if r.is_zero():
        raise ValueError("context multiplier must be nonzero")
    if n < 0 or m < 0:
        raise ValueError("pair indices must be non-negative")
    return r.degree


class FunctionalCoords(_Value):
    """Coordinates c_i = c(x^i) of a linear functional, with its context multiplier."""

    __slots__ = ("r", "c")

    def __init__(self, r: Poly, c: Sequence[RatLike]) -> None:
        _context(r)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c", tuple(as_rat(v) for v in c))
        if not self.c:
            raise ValueError("at least one coordinate is required")

    @property
    def length(self) -> int:
        return len(self.c)

    def pairing(self, f: Poly) -> Fraction:
        """c(f) by linearity; every monomial of f must be covered."""
        if f.degree >= self.length:
            raise TruncationTooSmall(
                f"functional of length {self.length} cannot pair with degree {f.degree}"
            )
        return sum((coef * self.c[i] for i, coef in enumerate(f.coeffs) if coef), Fraction(0))


def coords_from_operator(op: TruncOp) -> FunctionalCoords:
    """Constant terms of the images, tagged with the derived multiplier."""
    r = derived_multiplier(op)
    return FunctionalCoords(r, tuple(img.coeff(0) for img in op.images))


def curve_coords(r: Poly, a: RatLike, length: int) -> FunctionalCoords:
    """The functional realised by integration base point a: c_i = -I(r*x^i)(a)."""
    return FunctionalCoords(r, tuple(entry(a) for entry in curve_coords_symbolic(r, length)))


def curve_coords_symbolic(r: Poly, length: int) -> list[Poly]:
    """Entry i is -I(r*x^i) read as a polynomial in the base point; degree i + deg r + 1.

    Written in one integer pass, as ``_shifted_curve`` at a head of zeros.
    """
    _context(r)
    return _shifted_curve(r, [0] * length)


def _shifted_curve(r: Poly, head: Sequence["Fraction | int"]) -> list[Poly]:
    """Symbolic curve entry i minus head value i, for each value of the head, in one integer pass.

    With r = sum r_j x^j / den, L = lcm(i+1 .. i+k+1) and v = p/q, entry i
    minus v has the numerators -p*den*L, then i zeros, then
    -r_j*(L/(i+j+1))*q for the powers a^(i+j+1), over den*L*q: one
    reduction per entry, and no ``Poly`` built on the way.
    """
    rs, den, k = r.num, r.den, r.degree
    entries = []
    for i, v in enumerate(head):
        lcm = math.lcm(*range(i + 1, i + k + 2))
        q = v.denominator
        num = [-v.numerator * den * lcm] + [0] * i
        num += [-c * (lcm // (i + j + 1)) * q for j, c in enumerate(rs)]
        entries.append(_normal(num, den * lcm * q))
    return entries


def functional_residual(fc: FunctionalCoords, f: Poly, g: Poly) -> Fraction:
    """Defect of the quadratic functional identity on the pair (f, g).

    Evaluates c(f)c(g) + c(I(rf)g + f I(rg)); zero on every pair within reach
    exactly when the coordinates come from an operator satisfying the
    weight-zero identity.
    """
    r = fc.r
    argument = (r * f).integrate_at(0) * g + f * (r * g).integrate_at(0)
    return fc.pairing(f) * fc.pairing(g) + fc.pairing(argument)


def _equation(r: Poly, c, n: int, m: int):
    """c_n c_m + sum_i (1/(i+n+1) + 1/(i+m+1)) r_i c_(i+n+m+1), coordinates read as c(index)."""
    value, s = _scaled_equation(r, c, n, m)
    return value * Fraction(1, s)


def _step(r: Poly, c, t: int):
    """c_t solved from the (t-1-k, 0) equation, in the coordinates below it read as c(index).

    The weight of c_t, s * (1/t + 1/(k+1)) * lead(r), is nonzero in characteristic zero.
    """
    return _scaled_equation(r, c, t - 1 - r.degree, 0, solve=True)[0]


def _extend(r: Poly, head: list, top: int) -> list:
    """Extend the coordinates c_0 .. c_k .. up to c_top, each new one solved by ``_step``."""
    for t in range(len(head), top + 1):
        head.append(_step(r, head.__getitem__, t))
    return head


def coordinate_equation(r: Poly, n: int, m: int) -> MPoly:
    """The quadratic coordinate equation for the pair (n, m), as a polynomial in the c_i."""
    _context(r, n, m)
    return _equation(r, MPoly.variable, n, m)


def elimination_polynomial(r: Poly, t: int) -> MPoly:
    """Express coordinate c_t in the lower coordinates c_0 .. c_(t-1).

    Solves the (n = t-1-k, m = 0) instance of the coordinate system for c_t.
    """
    k = _context(r)
    if t <= k:
        raise IndexTooSmall(f"coordinate {t} is free; only indices above {k} are eliminable")
    return _step(r, MPoly.variable, t)


def reduced_equation(r: Poly, n: int, m: int) -> MPoly:
    """Rewrite the (n, m) coordinate equation purely in c_0 .. c_k.

    Writes c_(k+1) .. c_(n+m+k+1) in c_0 .. c_k, lowest first, each by one
    elimination step over the ones before it, then evaluates the equation.
    """
    k = _context(r, n, m)
    if min(n, m) == 0:  # the step for c_(n+m+k+1) solves this very equation
        return MPoly.zero()
    coords = _extend(r, [MPoly.variable(i) for i in range(k + 1)], n + m + k + 1)
    return _equation(r, coords.__getitem__, n, m)


def vanishes_on_curve(r: Poly, n: int, m: int) -> bool:
    """True iff the reduced (n, m) equation is identically zero along the curve.

    Extends the symbolic curve head c_0 .. c_k in Q[a] and checks for the zero
    polynomial in the base point.  Substituting the curve commutes with the
    elimination steps, so no reduced ``MPoly`` equation is built.
    """
    k = _context(r, n, m)
    coords = _extend(r, curve_coords_symbolic(r, k + 1), n + m + k + 1)
    return not _scaled_equation(r, coords.__getitem__, n, m)[0]


def satisfies_system(r: Poly, head: Sequence[RatLike], budget: "int | None" = None) -> bool:
    """Decide membership of a coordinate head in the solution set.

    The head (length deg r + 1) extends uniquely by the elimination step.
    With ``budget=None`` the answer is exact: the head is a member iff it
    lies on the curve (the classification, PAPER.md), that is iff
    ``recover_base_point`` finds its base point.  With a budget, membership
    holds iff every coordinate equation with n, m <= budget is satisfied by
    the extension.  A head on the curve satisfies them all at every budget,
    so the base point decides it; off the curve the pairs are checked in
    order of n + m, extending only as far as each needs, and the first
    failure decides.  The pairs with n = 0 or m = 0 are the ones the
    elimination steps solve.
    """
    k = _context(r)
    if len(head) != k + 1:
        raise ValueError(f"head must have length {k + 1}, got {len(head)}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    coords = [as_rat(v) for v in head]
    on_curve = recover_base_point(r, coords) is not None
    if on_curve or budget is None:
        return on_curve
    for s in range(2, 2 * budget + 1):
        _extend(r, coords, s + k + 1)
        for n in range(max(1, s - budget), s // 2 + 1):
            if _scaled_equation(r, coords.__getitem__, n, s - n)[0]:
                return False
    return True


def recover_base_point(r: Poly, head: Sequence[RatLike]) -> "Fraction | None":
    """The unique base point realising the head on the curve, or None.

    The base point is the common root of every symbolic entry shifted by
    its head value, each written in one integer pass (``_shifted_curve``);
    it is read off their gcd, which must be a power of one linear factor.
    The first deg r + 1 entries already pin at most one point, as in
    ``operator_to_point``.
    """
    k = _context(r)
    if len(head) < k + 1:
        raise ValueError(f"head must have at least {k + 1} entries, got {len(head)}")
    return common_root(*_shifted_curve(r, [as_rat(v) for v in head]))


def operator_from_coords(fc: FunctionalCoords, n: int) -> TruncOp:
    """Rebuild the truncated operator: image of x^i is c_i minus symbolic curve entry i."""
    if fc.length < n + 1:
        raise TruncationTooSmall(
            f"need {n + 1} coordinates to truncate at degree {n}, have {fc.length}"
        )
    return TruncOp(tuple(-entry for entry in _shifted_curve(fc.r, fc.c[: n + 1])))
