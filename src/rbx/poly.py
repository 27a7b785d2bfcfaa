"""Exact univariate polynomial arithmetic over the rationals.

A :class:`Poly` is an immutable dense polynomial: integer numerators over
one shared positive denominator, in lowest terms, with ``coeffs`` as its
``Fraction`` view (index ``i`` holds the coefficient of ``x**i``).  The
zero polynomial has no coefficients and its degree is the sentinel
``NEG_INF`` rather than any integer, so degree arithmetic can never be
silently wrong.  ``gcd`` is a primitive remainder sequence over the
integers and ``common_root`` reads a rational root off it.

Evaluation (``Poly._at``) runs on the integers too, and interpolation
(``_nodes``) is at integer nodes.  A coordinate equation over polynomials in
the base point is one integer-weighted sum, ``_lincomb``, reduced once.

The module also owns the polynomial text grammar used by the CLI and the
JSON payloads: a sum of terms ``[+-] coef [*] [x [^ exp]]`` with ``coef``
a rational literal ``int[/posint]``, whitespace ignored.  ``to_text`` and
``from_text`` round-trip bit-exactly, and ``as_rat`` reads every rational
string, signed, in the same literal grammar.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

RatLike = Union[Fraction, int, str]

NEG_INF = float("-inf")


class PolyParseError(ValueError):
    """Polynomial text does not match the term grammar."""


class DuplicateAbscissa(ValueError):
    """Interpolation nodes share an x-value."""


# the one rational literal: unsigned in a polynomial term, signed in as_rat;
# ASCII digits only, since \d also matches every other Unicode decimal digit
_LITERAL = r"[0-9]+(?:/[0-9]+)?"
_RAT_RE = re.compile(rf"[+-]?{_LITERAL}")
_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)"
    rf"(?:(?P<coef>{_LITERAL})(?:\*?(?P<xa>x)(?:\^(?P<ea>[0-9]+))?)?"
    r"|(?P<xb>x)(?:\^(?P<eb>[0-9]+))?)"
)


def as_rat(value: RatLike) -> Fraction:
    """Coerce an int, str or Fraction to an exact rational; a bool is not one.

    A string must be a signed coefficient literal: no decimals or exponents.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        compact = "".join(value.split())
        num, slash, den = compact.partition("/")
        if _RAT_RE.fullmatch(compact) is None or (slash and not den.strip("0")):
            raise PolyParseError(f"bad rational literal {_clip(value)}")
        return Fraction(_int_text(num), _int_text(den or "1"))
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def _int_text(digits: str) -> int:
    """``int(digits)`` for signed ASCII digits, past Python's limit on string-to-int digits.

    ``int`` reads every run it can; only a run past the limit is split in
    half, the mirror of ``rat_text``.
    """
    try:
        return int(digits)
    except ValueError:
        pass
    if digits[0] == "-":
        return -_int_text(digits[1:])
    k = len(digits) // 2
    return _int_text(digits[:-k]) * 10**k + _int_text(digits[-k:])


def _clip(text: str) -> str:
    """``repr(text)``, cut after 60 characters so an error message stays short."""
    return repr(text) if len(text) <= 60 else f"{text[:60]!r}... ({len(text)} characters)"


def rat_text(value: "Fraction | int") -> str:
    """``str(value)`` at any size, past Python's limit on int-to-string digits.

    ``str`` prints every value it can; only a value past the limit is split,
    each integer at a power of 10 near half its digits.
    """
    try:
        return str(value)
    except ValueError:
        pass
    if isinstance(value, Fraction):
        if value.denominator != 1:
            return f"{rat_text(value.numerator)}/{rat_text(value.denominator)}"
        value = value.numerator
    if value < 0:
        return "-" + rat_text(-value)
    k = value.bit_length() * 3 // 20  # log10(2) > 0.3, so 10^k < value
    high, low = divmod(value, 10**k)
    return rat_text(high) + rat_text(low).zfill(k)


def _join_terms(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Signed sum of nonzero ``(coef, monomial)`` terms; ``""`` is the constant monomial."""
    parts: list[str] = []
    for coef, mono in terms:
        mag = -coef if coef < 0 else coef
        if parts:
            parts.append(" - " if coef < 0 else " + ")
        elif coef < 0:
            parts.append("-")
        parts.append(rat_text(mag) if not mono else mono if mag == 1 else f"{rat_text(mag)}*{mono}")
    return "".join(parts) or "0"


class _Value:
    """The package's one immutable value: its fields are the ``__slots__`` of its classes.

    ``==`` needs the same class and equal fields, ``hash`` is the field tuple's,
    and pickling and copying call the constructor on the fields.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = getattr(cls, "_fields", ()) + tuple(cls.__dict__.get("__slots__", ()))
        get = operator.attrgetter(*cls._fields)
        cls._values = property(get if len(cls._fields) > 1 else lambda value: (get(value),))

    def __setattr__(self, *_) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return (type(self), self._values)


class Poly(_Value):
    """Dense univariate polynomial with exact rational coefficients.

    Stored as integer numerators ``num`` over one positive denominator
    ``den``, in lowest terms: no trailing zero numerator, the gcd of ``den``
    and every numerator is 1, and the zero polynomial is ``((), 1)``.  The
    form is canonical, so equality and hashing compare ``(num, den)``; the
    arithmetic kernels run on the integers and reduce once per result.
    ``coeffs`` is the derived ``Fraction`` view.
    """

    __slots__ = ("num", "den")

    def __new__(cls, coeffs: Iterable[RatLike] = ()) -> "Poly":
        cs = [as_rat(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        return _normal([c.numerator * (den // c.denominator) for c in cs], den)

    def __reduce__(self):  # the constructor takes coefficients, not the fields
        return (_raw, (self.num, self.den))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficient tuple; index ``i`` holds the coefficient of x**i."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _raw((1,), 1)

    @classmethod
    def x(cls) -> "Poly":
        return _raw((0, 1), 1)

    @classmethod
    def constant(cls, c: RatLike) -> "Poly":
        return cls.monomial(0, c)

    @classmethod
    def monomial(cls, exp: int, coef: RatLike = 1) -> "Poly":
        if exp < 0:
            raise ValueError("monomial exponent must be non-negative")
        q = as_rat(coef)
        return _normal([0] * exp + [q.numerator], q.denominator)

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def degree(self) -> "int | float":
        """Degree of the polynomial; ``NEG_INF`` for the zero polynomial."""
        return len(self.num) - 1 if self.num else NEG_INF

    def coeff(self, n: int) -> Fraction:
        """Coefficient of x**n (zero beyond the stored length)."""
        if 0 <= n < len(self.num):
            return Fraction(self.num[n], self.den)
        return Fraction(0)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b, den = self.num, other.num, self.den
        if den != other.den:
            den = math.lcm(den, other.den)
            a = [c * (den // self.den) for c in a]
            b = [c * (den // other.den) for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _normal(out, den)

    def __neg__(self) -> "Poly":
        return _raw(tuple(-c for c in self.num), self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.num, other.num
            if not a or not b:
                return _ZERO
            out = [0] * (len(a) + len(b) - 1)
            for i, ci in enumerate(a):
                if not ci:
                    continue
                for j, cj in enumerate(b):
                    out[i + j] += ci * cj
            return _normal(out, self.den * other.den)
        if isinstance(other, int) and not isinstance(other, bool):
            return _normal([c * other for c in self.num], self.den)
        if isinstance(other, Fraction):
            p = other.numerator
            return _normal([c * p for c in self.num], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def _lincomb(self, s: int, terms, div: int = 1) -> "Poly":
        """(s*self + the sum of w*p over the pairs (w, p) in terms) / div; s, w, div nonzero ints.

        One pass over the numerators, scaled to one lcm of the denominators,
        and one reduction: ``operators._scaled_equation`` sums each
        coordinate equation with it.
        """
        if div < 0:
            s, div, terms = -s, -div, [(-w, p) for w, p in terms]
        den = math.lcm(self.den, *(p.den for _, p in terms))
        f = s * (den // self.den)
        out = [c * f for c in self.num]
        for w, p in terms:
            f = w * (den // p.den)
            if len(out) < len(p.num):
                out += [0] * (len(p.num) - len(out))
            for i, c in enumerate(p.num):
                out[i] += c * f
        return _normal(out, den * div)

    # -- calculus and evaluation ------------------------------------------

    def derive(self) -> "Poly":
        """Formal derivative: x**n -> n*x**(n-1)."""
        return _normal([i * c for i, c in enumerate(self.num)][1:], self.den)

    def integrate_at(self, a: RatLike) -> "Poly":
        """Antiderivative normalised to vanish at ``a``.

        ``integrate_at(0)`` is the constant-free antiderivative.
        """
        scale = math.lcm(*range(1, len(self.num) + 1))
        anti = _normal(
            [0] + [c * (scale // (i + 1)) for i, c in enumerate(self.num)], self.den * scale
        )
        return anti - Poly.constant(anti(a))

    def __call__(self, t: RatLike) -> Fraction:
        """Exact value at t; one ``Fraction`` from :meth:`_at`."""
        return Fraction(*self._at(as_rat(t)))

    def _at(self, t: "Fraction | int") -> tuple[int, int]:
        """Unreduced value at t = p/q as ``(num, den)``, den = self.den * q**degree.

        Horner on the numerators; den is ``self.den`` at an integer t, (0, 1) for zero.
        """
        p, q = t.numerator, t.denominator
        acc, scale = 0, 1
        for c in reversed(self.num):
            acc = acc * p + c * scale
            scale *= q
        return (acc, self.den * scale // q) if self.num else (0, 1)

    def compose_affine(self, mu: RatLike, nu: RatLike) -> "Poly":
        """Return p(mu*x + nu), by an integer Taylor shift."""
        mu, nu = as_rat(mu), as_rat(nu)
        # Horner in y = mu*x + nu = (lin1*x + lin0) / step, denominators
        # cleared: after the stage for num[i], acc is step**(n-i) times the sum
        lin1, lin0 = mu.numerator * nu.denominator, nu.numerator * mu.denominator
        step = mu.denominator * nu.denominator
        acc: list[int] = []
        scale = 1
        for c in reversed(self.num):
            acc = [u * lin0 + v * lin1 for u, v in zip(acc + [0], [0] + acc)]
            acc[0] += c * scale
            scale *= step
        return _normal(acc, self.den * scale // step) if acc else _ZERO

    # -- text grammar ------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, highest power first."""
        num, den = self.num, self.den
        return _join_terms(
            (Fraction(num[exp], den), "" if exp == 0 else "x" if exp == 1 else f"x^{exp}")
            for exp in reversed(range(len(num)))
            if num[exp]
        )

    @classmethod
    def from_text(cls, text: str) -> "Poly":
        if not isinstance(text, str):
            raise TypeError(f"polynomial text must be a string, not {type(text).__name__}")
        compact = "".join(text.split())
        if not compact:
            raise PolyParseError("empty polynomial text")
        coeffs: dict[int, Fraction] = {}
        pos = 0
        while pos < len(compact):
            m = _TERM_RE.match(compact, pos)
            if m is None or m.end() == pos:
                raise PolyParseError(f"cannot parse polynomial text at {_clip(compact[pos:])}")
            sign = -1 if m.group("sign") == "-" else 1
            coef_text = m.group("coef")
            coef = as_rat(coef_text) if coef_text else Fraction(1)
            if m.group("xa") or m.group("xb"):
                exp_text = m.group("ea") or m.group("eb")
                exp = int(exp_text) if exp_text else 1
            else:
                exp = 0
            coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coef
            pos = m.end()
        return cls(coeffs.get(exp, 0) for exp in range(max(coeffs) + 1))

    __str__ = to_text

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r})"


def _raw(num: tuple, den: int) -> Poly:
    """A Poly from numerators and denominator already in lowest terms."""
    p = object.__new__(Poly)
    object.__setattr__(p, "num", num)
    object.__setattr__(p, "den", den)
    return p


def _normal(num: list, den: int) -> Poly:
    """The Poly num/den (den > 0) brought to lowest terms."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return _ZERO
    g = math.gcd(den, *num)
    if g != 1:
        num, den = [c // g for c in num], den // g
    return _raw(tuple(num), den)


_ZERO = _raw((), 1)


def gcd(*polys: Poly) -> Poly:
    """Monic greatest common divisor of the arguments; zero when all are zero.

    Runs a primitive polynomial remainder sequence on the integer
    numerators (Collins, J. ACM 14, 1967): every pseudo-remainder is divided
    by its content, so coefficients stay near the size of the inputs.
    """
    g: list[int] = []
    for p in polys:
        b = _primitive(p.num)
        if len(g) < len(b):
            g, b = b, g
        while b:
            g, b = b, _primitive(_pseudo_remainder(g, b))
        if len(g) == 1:
            break
    return _raw(tuple(g), 1) * Fraction(1, g[-1]) if g else _ZERO


def common_root(*polys: Poly) -> "Fraction | None":
    """The a with gcd(polys) = (x - a)**e for some e >= 1, or None."""
    g = gcd(*polys)
    e = g.degree
    if e < 1:
        return None
    a = -g.coeff(e - 1) / e
    return a if g.compose_affine(1, a) == Poly.monomial(e) else None


def _primitive(num) -> list[int]:
    """Integer coefficients divided by their content."""
    g = math.gcd(*num)
    return [c // g for c in num] if g > 1 else list(num)


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """Remainder of c*a divided by b, for some nonzero integer c; len(a) >= len(b) >= 1."""
    r = list(a)
    while len(r) >= len(b):
        # scale r so its leading term is an integer multiple of b's, then cancel it
        g = math.gcd(r[-1], b[-1])
        up, down, shift = b[-1] // g, r[-1] // g, len(r) - len(b)
        r = [c * up for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= down * c
        while r and not r[-1]:
            r.pop()
    return r


def _nodes(xs: Sequence[int]) -> Callable[[Sequence[tuple[int, int]]], Poly]:
    """The interpolation map at integer nodes ``xs``: values ``(num, den)``, den != 0, to a Poly.

    The node work is done once: node l has the basis N_l / w_l, N_l = prod_{j != l}
    (x - x_j) kept with the sign of w_l = N_l(x_l).  The map sums
    n_l * N_l / (den_l * |w_l|) over one lcm.  Raises :class:`DuplicateAbscissa`
    when two nodes share an x-value.
    """
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa("interpolation nodes must have distinct x-values")
    node = [1]  # prod (x - x_j), low degree first
    for p in xs:
        node = [u - p * v for u, v in zip([0] + node, node + [0])]
    basis = []
    for pl in xs:
        w = math.prod(pl - pj for pj in xs if pj != pl)
        sign = 1 if w > 0 else -1
        # synthetic division of the node polynomial by x - x_l, top down
        quo, c = [0] * len(xs), 0
        for i in range(len(xs), 0, -1):
            c = node[i] + pl * c
            quo[i - 1] = sign * c
        basis.append((abs(w), quo))

    def combine(ys: Sequence[tuple[int, int]]) -> Poly:
        if len(ys) != len(basis):
            raise ValueError("need one value per interpolation node")
        terms = [(n, e * w, quo) for (n, e), (w, quo) in zip(ys, basis) if n]
        den = math.lcm(*(e for _, e, _ in terms))
        out = [0] * len(basis)
        for n, e, quo in terms:
            scale = n * (den // e)
            for i, c in enumerate(quo):
                out[i] += scale * c
        return _normal(out, den)

    return combine
