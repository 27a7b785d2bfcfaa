"""Sparse multivariate polynomials over the rationals in variables c0, c1, ...

Terms map canonical exponent keys (sorted tuples of ``(variable, exponent)``
pairs with positive exponents) to nonzero rational coefficients; the zero
polynomial is the empty map.  Values are immutable by convention and all
operations are pure.

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

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, RatLike] | None = None):
        out: dict[Key, Fraction] = {}
        if terms:
            for key, coef in terms.items():
                q = as_rat(coef)
                if q == 0:
                    continue
                k = _canonical_key(key)
                q = out.get(k, Fraction(0)) + q if k in out else q
                if q == 0:
                    out.pop(k, None)
                else:
                    out[k] = q
        self.terms = out

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def constant(cls, c: RatLike) -> "MPoly":
        return cls({(): c})

    @classmethod
    def variable(cls, index: int, exp: int = 1) -> "MPoly":
        return cls({((index, exp),): 1})

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def variables(self) -> set[int]:
        return {var for key in self.terms for var, _ in key}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        if not isinstance(other, MPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, coef in other.terms.items():
            acc = out.get(key, Fraction(0)) + coef
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
        result = MPoly.__new__(MPoly)
        result.terms = out
        return result

    def __neg__(self) -> "MPoly":
        result = MPoly.__new__(MPoly)
        result.terms = {k: -c for k, c in self.terms.items()}
        return result

    def __sub__(self, other: "MPoly") -> "MPoly":
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MPoly):
            out: dict[Key, Fraction] = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    key = _canonical_key(k1 + k2)
                    if _key_degree(key) > _DEGREE_CAP:
                        raise DegreeCapExceeded(
                            f"product term degree {_key_degree(key)} exceeds cap {_DEGREE_CAP}"
                        )
                    acc = out.get(key, Fraction(0)) + c1 * c2
                    if acc == 0:
                        out.pop(key, None)
                    else:
                        out[key] = acc
            result = MPoly.__new__(MPoly)
            result.terms = out
            return result
        if isinstance(other, (Fraction, int)):
            q = as_rat(other)
            result = MPoly.__new__(MPoly)
            result.terms = {} if q == 0 else {k: c * q for k, c in self.terms.items()}
            return result
        return NotImplemented

    __rmul__ = __mul__

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

        return _join_terms(
            (self.terms[key], "*".join(f"c{v}" if e == 1 else f"c{v}^{e}" for v, e in key))
            for key in sorted(self.terms, key=sort_key)
        )

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"MPoly({self.to_text()!r})"
