"""Generators acting on the moduli space of analytic operators, and words in them.

Four generator families, applied left-to-right when composed into words:

* :class:`Shear` (wire tag ``HB``): (a, r) -> (a, r + r(b)*s) with s(b) = 0,
* :class:`ShearSquared` (``HB2``): (a, r) -> (a, r + r(b)^2*s) with s(b) = 0,
* :class:`Translate` (``GA``): (a, r(x)) -> (a - nu, r(x + nu)),
* :class:`Dilate` (``GM``): (a, r(x)) -> (a/mu, r(mu*x)), mu nonzero.

Shears preserve the fiber value r(b) at their own base point, which is what
makes their per-generator inverses (negate s) exact.  Translate and Dilate
realise conjugation by the affine substitutions x -> x + nu and x -> mu*x.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence, Union

from .operators import AnalyticOp, _json_fields
from .poly import Poly, RatLike, _normal, _Value, as_rat, rat_text


class InvalidGenerator(ValueError):
    """Generator invariant violated at construction (s(b) != 0, or mu = 0)."""


class Shear(_Value):
    """Add r(b)**power times a polynomial vanishing at b to the multiplier."""

    __slots__ = ("b", "s")
    tag = "HB"
    power = 1

    def __init__(self, b: RatLike, s: Poly) -> None:
        object.__setattr__(self, "b", as_rat(b))
        if s._at(self.b)[0]:
            raise InvalidGenerator(f"shear direction must vanish at {self.b}")
        object.__setattr__(self, "s", s)

    def apply(self, op: AnalyticOp) -> AnalyticOp:
        r, s = op.r, self.s
        n, d = r._at(self.b)
        if not n:
            return op
        # r + (n/d)**power * s over the denominator d**power * s.den (r.den divides d),
        # reduced once
        n, d = n**self.power, d**self.power
        ur = d // r.den * s.den
        num = [ur * u + n * v for u, v in zip_longest(r.num, s.num, fillvalue=0)]
        return AnalyticOp(op.a, _normal(num, d * s.den))

    def inverse(self) -> "Shear":
        return type(self)(self.b, -self.s)


class ShearSquared(Shear):
    """Add r(b)^2 times a polynomial vanishing at b to the multiplier."""

    __slots__ = ()
    tag = "HB2"
    power = 2


class Translate(_Value):
    """Conjugation by x -> x + nu."""

    __slots__ = ("nu",)
    tag = "GA"

    def __init__(self, nu: RatLike) -> None:
        object.__setattr__(self, "nu", as_rat(nu))

    def apply(self, op: AnalyticOp) -> AnalyticOp:
        return AnalyticOp(op.a - self.nu, op.r.compose_affine(1, self.nu))

    def inverse(self) -> "Translate":
        return Translate(-self.nu)


class Dilate(_Value):
    """Conjugation by x -> mu*x, mu nonzero."""

    __slots__ = ("mu",)
    tag = "GM"

    def __init__(self, mu: RatLike) -> None:
        object.__setattr__(self, "mu", as_rat(mu))
        if self.mu == 0:
            raise InvalidGenerator("dilation factor must be nonzero")

    def apply(self, op: AnalyticOp) -> AnalyticOp:
        return AnalyticOp(op.a / self.mu, op.r.compose_affine(self.mu, 0))

    def inverse(self) -> "Dilate":
        return Dilate(1 / self.mu)


Generator = Union[Shear, Translate, Dilate]
Word = tuple[Generator, ...]


def apply_word(word: Iterable[Generator], op: AnalyticOp) -> AnalyticOp:
    """Left-to-right application of a word."""
    for gen in word:
        op = gen.apply(op)
    return op


def apply_word_tuple(word: Iterable[Generator], ops: Sequence[AnalyticOp]) -> list[AnalyticOp]:
    """Diagonal action: the same word applied to every member."""
    out = list(ops)
    for gen in word:
        out = [gen.apply(op) for op in out]
    return out


def inverse_word(word: Sequence[Generator]) -> Word:
    """Word undoing ``word``: reversed order, each generator inverted."""
    return tuple(gen.inverse() for gen in reversed(word))


def affine_orbit_word(op1: AnalyticOp, op2: AnalyticOp) -> "Word | None":
    """A Translate-then-Dilate word carrying op1 to op2, or None.

    The dilation factor is pinned up to sign by the leading-coefficient
    ratio, the translation by the base points; each candidate is verified
    by exact application before being returned.
    """
    k1, k2 = op1.r.degree, op2.r.degree
    if k1 != k2:
        return None
    ratio = op2.r.coeffs[-1] / op1.r.coeffs[-1]
    for mu in _rational_kth_roots(ratio, k1):
        nu = op1.a - mu * op2.a
        word: Word = (Translate(nu), Dilate(mu))
        if apply_word(word, op1) == op2:
            return word
    return None


def _int_kth_root(n: int, k: int) -> "int | None":
    """Exact non-negative k-th root of n >= 0, or None."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n
    x = max(1, round(n ** (1.0 / k)))
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x if x**k == n else None


def _rational_kth_roots(q: Fraction, k: int) -> list[Fraction]:
    """All rational k-th roots of q; two for even k, one for odd, none otherwise."""
    if k == 0:
        return [Fraction(1)] if q == 1 else []
    if q == 0:
        return [Fraction(0)]
    if q < 0 and k % 2 == 0:
        return []
    num = _int_kth_root(abs(q.numerator), k)
    den = _int_kth_root(q.denominator, k)
    if num is None or den is None:
        return []
    root = Fraction(num, den)
    if q < 0:
        return [-root]
    return [root, -root] if k % 2 == 0 else [root]


# -- wire format -----------------------------------------------------------

_GENERATORS = {cls.tag: cls for cls in (Shear, ShearSquared, Translate, Dilate)}


def generator_to_json(gen: Generator) -> dict:
    if not isinstance(gen, tuple(_GENERATORS.values())):
        raise TypeError(f"not a generator: {gen!r}")
    out = {"type": gen.tag}
    for f, v in zip(gen._fields, gen._values):
        out[f] = v.to_text() if isinstance(v, Poly) else rat_text(v)
    return out


def generator_from_json(data: dict) -> Generator:
    if not isinstance(data, dict):
        raise TypeError("expected a generator object")
    kind = data.get("type")
    cls = _GENERATORS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown generator type {kind!r}")
    values = _json_fields(data, cls._fields, f"generator {kind}")
    # a shear's direction s is the one Poly field
    return cls(*(Poly.from_text(v) if f == "s" else as_rat(v) for f, v in zip(cls._fields, values)))


def word_to_json(word: Sequence[Generator]) -> list[dict]:
    return [generator_to_json(gen) for gen in word]


def word_from_json(data: Sequence[dict]) -> Word:
    if not isinstance(data, list):
        raise TypeError("expected an array of generator objects")
    return tuple(generator_from_json(item) for item in data)
