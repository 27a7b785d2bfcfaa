"""Sparse multivariate polynomials over the rationals in variables c0, c1, ...

A polynomial is integer numerators over one positive denominator, in lowest
terms: ``num`` maps canonical exponent keys (sorted tuples of ``(variable,
exponent)`` pairs with positive exponents) to nonzero integers, ``den`` is
coprime to them all, zero is ``({}, 1)``, and ``terms`` is the derived map to
``Fraction`` coefficients.  The form is canonical, so equality compares
``(num, den)``; the ring operations run on the integers and reduce once per
result.  A coordinate equation is reduced once in all: ``_lincomb`` sums its
integer-weighted terms over one lcm of their denominators, where a product
and a sum per term would reduce the whole term map twice per term.  Values
are immutable by convention and all operations are pure.

Products enforce a total-degree cap of 64 so a runaway elimination raises
:class:`DegreeCapExceeded` instead of hanging.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .poly import RatLike, _join_terms, as_rat

Key = tuple[tuple[int, int], ...]

_DEGREE_CAP = 64


class DegreeCapExceeded(ArithmeticError):
    """A product term exceeded the total-degree cap."""


class UnassignedVariable(LookupError):
    """Substitution map does not cover a variable of the polynomial."""


def _canonical_key(exps: Iterable[tuple[int, int]]) -> Key:
    merged: dict[int, int] = {}
    for var, exp in exps:
        if var < 0:
            raise ValueError("variable indices must be non-negative")
        if exp < 0:
            raise ValueError("exponents must be non-negative")
        if exp:
            merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


def _key_degree(key: Key) -> int:
    return sum(e for _, e in key)


class MPoly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("num", "den")

    def __new__(cls, terms: Mapping[Key, RatLike] | None = None) -> "MPoly":
        out: dict[Key, Fraction] = {}
        for key, coef in (terms or {}).items():
            q = as_rat(coef)
            if q == 0:
                continue
            k = _canonical_key(key)
            q = out.get(k, 0) + q
            if q:
                out[k] = q
            else:
                del out[k]
        den = math.lcm(*(q.denominator for q in out.values()))
        return _normal({k: q.numerator * (den // q.denominator) for k, q in out.items()}, den)

    @property
    def terms(self) -> dict[Key, Fraction]:
        """Map from exponent key to nonzero coefficient."""
        return {key: Fraction(c, self.den) for key, c in self.num.items()}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def variable(cls, index: int, exp: int = 1) -> "MPoly":
        return _normal({_canonical_key(((index, exp),)): 1}, 1)

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        if not isinstance(other, MPoly):
            return NotImplemented
        a, b, den = self.num, other.num, self.den
        if den != other.den:
            den = math.lcm(den, other.den)
            a = {k: c * (den // self.den) for k, c in a.items()}
            b = {k: c * (den // other.den) for k, c in b.items()}
        out = dict(a)
        for key, c in b.items():
            acc = out.get(key, 0) + c
            if acc:
                out[key] = acc
            else:
                del out[key]
        return _normal(out, den)

    def __neg__(self) -> "MPoly":
        return _normal({k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other: "MPoly") -> "MPoly":
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MPoly):
            out: dict[Key, int] = {}
            for k1, c1 in self.num.items():
                for k2, c2 in other.num.items():
                    key = _canonical_key(k1 + k2)
                    if _key_degree(key) > _DEGREE_CAP:
                        raise DegreeCapExceeded(
                            f"product term degree {_key_degree(key)} exceeds cap {_DEGREE_CAP}"
                        )
                    acc = out.get(key, 0) + c1 * c2
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
            return _normal(out, self.den * other.den)
        if isinstance(other, int) and not isinstance(other, bool):
            if not other:
                return MPoly()
            return _normal({k: c * other for k, c in self.num.items()}, self.den)
        if isinstance(other, Fraction):
            if not other:
                return MPoly()
            p = other.numerator
            return _normal({k: c * p for k, c in self.num.items()}, self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def _lincomb(self, s: int, terms, div: int = 1) -> "MPoly":
        """(s*self + the sum of w*p over the pairs (w, p) in terms) / div; s, w, div nonzero ints.

        One pass over the numerators, scaled to one lcm of the denominators,
        and one reduction: ``operators._scaled_equation`` sums each
        coordinate equation with it.
        """
        if div < 0:
            s, div, terms = -s, -div, [(-w, p) for w, p in terms]
        den = math.lcm(self.den, *(p.den for _, p in terms))
        f = s * (den // self.den)
        out = {key: c * f for key, c in self.num.items()}
        for w, p in terms:
            f = w * (den // p.den)
            for key, c in p.num.items():
                acc = out.get(key, 0) + c * f
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return _normal(out, den * div)

    # -- evaluation --------------------------------------------------------

    def eval_at(self, assign: Mapping[int, RatLike]) -> Fraction:
        """Evaluate at a full rational assignment."""
        acc = Fraction(0)
        for key, coef in self.terms.items():
            part = coef
            for var, exp in key:
                if var not in assign:
                    raise UnassignedVariable(f"no assignment for variable c{var}")
                part *= as_rat(assign[var]) ** exp
            acc += part
        return acc

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        """Diagnostic text form, terms in graded-lex order."""

        def sort_key(key: Key):
            # dense exponent vectors compared lexicographically, read sparsely;
            # the sentinel makes an exhausted key compare as all zeros
            return (-_key_degree(key), tuple((var, -exp) for var, exp in key) + ((math.inf, 0),))

        num, den = self.num, self.den
        return _join_terms(
            (Fraction(num[key], den), "*".join(f"c{v}" if e == 1 else f"c{v}^{e}" for v, e in key))
            for key in sorted(num, key=sort_key)
        )

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"MPoly({self.to_text()!r})"


def _normal(num: dict[Key, int], den: int) -> MPoly:
    """The MPoly num/den (den > 0, no zero numerator) brought to lowest terms."""
    g = math.gcd(den, *num.values())
    p = object.__new__(MPoly)
    p.num = {k: c // g for k, c in num.items()} if g != 1 else num
    p.den = den // g
    return p
