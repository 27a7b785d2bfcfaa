"""Rota-Baxter operators on Q[x]: representations, identity checks, canonical form.

Two representations live here.  :class:`AnalyticOp` is a moduli point
``(a, r)`` standing for the operator "multiply by the nonzero polynomial r,
then integrate with antiderivative vanishing at a".  :class:`TruncOp` is a
generic linear operator cut off at the monomials ``x^0 .. x^N``, stored as
the list of their images.

The canonicalisation path builds no ``Poly`` per monomial: ``truncate``
writes each image's integer numerators in one pass, and the multiplier is
checked against each row shifted by n by integer cross-multiplication.
The identity check picks its path from the truncation alone.  One of
multiplier type is checked through its image constants: per pair it
evaluates one integer coordinate equation (``_scaled_equation``, which
``rbx.functionals`` shares), and at a weight other than 0 every pair in
reach fails.  Other truncations get the whole residual, looping over the
nonzero entries of integer rows over one common denominator.

``operator_to_point`` recovers the moduli point from a truncation in one
pass over its images: the multiplier r comes from differentiating them,
the base point a is read off the gcd of the low-degree images, and every
image must vanish at a.  Since each image already has the derivative of
the image of (a, r), that check is exactly the round trip
``AnalyticOp(a, r).truncate(N) == op``, with no second truncation.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import Poly, RatLike, _raw, _Value, as_rat, common_root, rat_text


class TruncationTooSmall(ValueError):
    """The truncation does not reach every monomial image the check needs."""


class NotMultiplierType(ValueError):
    """Differentiating the images does not yield multiplication by one fixed polynomial."""


class ZeroMultiplier(ValueError):
    """The recovered (or supplied) multiplier is the zero polynomial."""


class NoRationalBasePoint(ValueError):
    """No rational point kills every low-degree image; the base point is irrational or absent."""


class Inconsistent(ValueError):
    """Round-trip verification of the recovered operator failed."""


class AnalyticOp(_Value):
    """Moduli point (a, r): multiply by nonzero r, then integrate, vanishing at a."""

    __slots__ = ("a", "r")

    def __init__(self, a: RatLike, r: Poly) -> None:
        object.__setattr__(self, "a", as_rat(a))
        if r.is_zero():
            raise ZeroMultiplier("analytic operators need a nonzero multiplier")
        object.__setattr__(self, "r", r)

    def apply(self, f: Poly) -> Poly:
        """Image of f; always vanishes at the base point."""
        return (self.r * f).integrate_at(self.a)

    def truncate(self, n: int) -> "TruncOp":
        """Restrict to the monomials x^0 .. x^n, in one integer pass.

        With a = p/q, r = sum r_j x^j / den, L = lcm(i+1 .. i+k+1), t_j = r_j*L/(i+j+1):
        image i is sum_j t_j*(q^(i+k+1) x^(i+j+1) - p^(i+1)*p^j*q^(k-j)) / (den*L*q^(i+k+1)).
        """
        if n < 0:
            raise ValueError("truncation degree must be non-negative")
        rs, den, k = self.r.num, self.r.den, self.r.degree
        p, q = self.a.numerator, self.a.denominator
        mixed = [p**j * q ** (k - j) for j in range(k + 1)]
        p_pow, q_pow = p, q ** (k + 1)
        images = []
        for i in range(n + 1):
            lcm = math.lcm(*range(i + 1, i + k + 2))
            ts = [c * (lcm // (i + j + 1)) for j, c in enumerate(rs)]
            const = -p_pow * sum(t * w for t, w in zip(ts, mixed))
            high = [t * q_pow for t in ts]
            scale = den * lcm * q_pow
            g = math.gcd(scale, const, *high)  # the gap of i zeros adds nothing to the gcd
            num = (const // g,) + (0,) * i + tuple(t // g for t in high)
            images.append(_raw(num, scale // g))
            p_pow, q_pow = p_pow * p, q_pow * q
        return TruncOp(tuple(images))

    def to_json(self) -> dict:
        return {"a": rat_text(self.a), "r": self.r.to_text()}

    @classmethod
    def from_json(cls, data: dict) -> "AnalyticOp":
        return cls(as_rat(data["a"]), Poly.from_text(data["r"]))


class TruncOp(_Value):
    """Linear operator known only through its images of x^0 .. x^N."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[Poly, ...]) -> None:
        object.__setattr__(self, "images", tuple(images))
        if not self.images:
            raise ValueError("a truncated operator needs at least the image of 1")

    @property
    def n_max(self) -> int:
        return len(self.images) - 1

    def to_json(self) -> dict:
        return {"N": self.n_max, "images": [p.to_text() for p in self.images]}

    @classmethod
    def from_json(cls, data: dict) -> "TruncOp":
        n, texts = data["N"], data["images"]
        if type(n) is not int or not isinstance(texts, list):
            raise TypeError("expected an integer N and an array of image texts")
        images = tuple(Poly.from_text(t) for t in texts)
        if n != len(images) - 1:
            raise ValueError("truncation degree does not match the image count")
        return cls(images)


def _scaled_equation(r: Poly, c, n: int, m: int, solve: bool = False):
    """s times the (n, m) coordinate equation, and s.

    The equation is c_n c_m + sum_i (1/(i+n+1) + 1/(i+m+1)) r_i c_(i+n+m+1),
    with the coordinates read as c(index).  With L the lcm of the
    (i+n+1)(i+m+1) and s = L * den(r), each coefficient s * (1/(i+n+1) +
    1/(i+m+1)) * r_i is an integer weight w_i, so the value s c_n c_m +
    sum_i w_i c_(i+n+m+1) needs no ``Fraction`` per term, and is zero exactly
    when the equation is.  With ``solve=True`` the i = deg r term is left out
    and the rest divided by minus its weight: the value is then the highest
    coordinate, c_(n+m+deg r+1), solved from the equation.

    Works in any ring the coordinates live in.  Integer coordinates (the
    identity check) are tested first and keep the operator loop: an integer
    sum has nothing to reduce.  Every other ring sums the weighted
    numerators over one lcm of their denominators and reduces once, where
    the ring operators would reduce once per product and once per sum: for
    a ``Fraction`` (``satisfies_system``) into one ``Fraction``, divided by
    minus the top weight when solving, and for a ``Poly`` (in the base
    point) or an ``MPoly`` by ``_lincomb``, which also spares copying the
    whole term map per operation.  The one quadratic form of the package:
    ``first_rb_failure`` and every equation of ``rbx.functionals`` evaluate
    it.
    """
    rs = r.num
    dens = [(i + n + 1) * (i + m + 1) for i in range(len(rs))]
    lcm = math.lcm(*dens)
    s = lcm * r.den
    ws = [(2 * i + n + m + 2) * (lcm // d) * ri for i, (d, ri) in enumerate(zip(dens, rs))]
    value = c(n) * c(m)
    terms = enumerate(ws[:-1] if solve else ws, n + m + 1)
    if isinstance(value, int):
        value *= s
        for j, w in terms:
            if w:
                value += c(j) * w
        return (value * Fraction(-1, ws[-1]) if solve else value), s
    terms = [(w, c(j)) for j, w in terms if w]
    if isinstance(value, Fraction):
        den = math.lcm(value.denominator, *(v.denominator for _, v in terms))
        acc = s * value.numerator * (den // value.denominator)
        for w, v in terms:
            acc += w * v.numerator * (den // v.denominator)
        return Fraction(acc, -den * ws[-1] if solve else den), s
    return value._lincomb(s, terms, -ws[-1] if solve else 1), s


def _reach(images, n: int, m: int) -> tuple[int, int]:
    """The lengths of images n and m, once the pair and its inner images are within reach."""
    top = len(images) - 1
    if n > top or m > top or n + m > top:
        raise TruncationTooSmall(f"pair ({n},{m}) is out of reach at truncation {top}")
    ln, lm = len(images[n].num), len(images[m].num)
    if ln - 1 + m > top or lm - 1 + n > top:
        raise TruncationTooSmall(f"inner images for pair ({n},{m}) exceed truncation {top}")
    return ln, lm


def _scaled_residuals(op: TruncOp, weight: Fraction, pairs):
    """Yield the residual on each pair (n, m), times D^2*q, as an integer vector.

    The residual is R(x^n)R(x^m) - R(R(x^n)x^m + x^n R(x^m)) - weight*R(x^(n+m)).
    With the images R(x^i) = M[i]/D over one denominator and weight p/q it is
    q*(M[n]*M[m] - sum_i M[n][i]*M[i+m] - sum_i M[m][i]*M[i+n]) - p*D*M[n+m].
    Each row M[i] is kept as its nonzero ``(index, numerator)`` pairs.

    ``first_rb_failure`` uses it, at any weight, only for truncations that
    are not of multiplier type: the odd-halving example, -weight times the
    identity, the zero multiplier and a single image.
    """
    images = op.images
    den = math.lcm(*(p.den for p in images))
    rows = []
    for p in images:
        scale = den // p.den
        rows.append([(i, c * scale) for i, c in enumerate(p.num) if c])
    wq, wp = weight.denominator, weight.numerator * den
    width = max(len(p.num) for p in images)
    for n, m in pairs:
        ln, lm = _reach(images, n, m)
        out = [0] * max(ln + lm, width)
        rn, rm = rows[n], rows[m]
        for i, a in rn:
            for j, b in rm:
                out[i + j] += a * b
        for row, shift in ((rn, m), (rm, n)):
            for i, a in row:
                for j, b in rows[i + shift]:
                    out[j] -= a * b
        if wp:
            out = [wq * c for c in out]
            for j, b in rows[n + m]:
                out[j] -= wp * b
        yield out


def _scaled_equations(op: TruncOp, r: Poly, pairs):
    """Yield a nonzero integer multiple of each (n, m) equation of the image constants.

    For a truncation of multiplier type with multiplier r, e is the lcm of
    the image denominators and C_i = e * R(x^i)(0) are integers.  The (n, m)
    equation of the multiplier e*r at the C_i is e^2 times that of r at the
    constants, so each value is one integer ``_scaled_equation``.
    """
    images = op.images
    e = math.lcm(*(p.den for p in images))
    consts = [p.num[0] * (e // p.den) for p in images]  # no image is zero
    er = r * e
    for n, m in pairs:
        _reach(images, n, m)
        yield _scaled_equation(er, consts.__getitem__, n, m)[0]


def first_rb_failure(op: TruncOp, weight: RatLike, d: int) -> "tuple[int, int] | None":
    """First pair (n, m), n <= m <= d, where the identity fails; None if all hold.

    The path depends on the truncation alone.  When ``derived_multiplier``
    passes, each image is R(x^i) = J(x^i) + c_i, with J(f) the antiderivative
    of r*f from 0 and c_i = R(x^i)(0), and the check reads only the image
    constants.  J is itself a weight-zero Rota-Baxter operator (integration
    by parts), so on (x^n, x^m) the residual is -E(n, m) - weight*R(x^(n+m)),
    E(n, m) = c_n c_m + c(J(x^n) x^m + x^n J(x^m)) being the (n, m) coordinate
    equation: one integer per pair.  At a weight other than 0 every pair in
    reach fails: E(n, m) is a constant and R(x^(n+m)) has degree
    n + m + k + 1 >= 1 (k = deg r), so the residual is never zero.  Image n
    has length n + k + 2 on this path, so the pairs out of reach are the
    same.  Every other truncation gets the residual vectors of
    ``_scaled_residuals``.
    """
    if d < 0:
        raise ValueError(f"identity check degree must be non-negative, got {d}")
    weight = as_rat(weight)
    pairs = [(n, m) for n in range(d + 1) for m in range(n, d + 1)]
    try:
        defects = _scaled_equations(op, derived_multiplier(op), pairs)
    except (TruncationTooSmall, NotMultiplierType, ZeroMultiplier):
        defects = map(any, _scaled_residuals(op, weight, pairs))
    else:
        if weight:
            defects = (True for _ in defects)  # each pair still checks its reach
    for pair, defect in zip(pairs, defects):
        if defect:
            return pair
    return None


def is_rb_upto(op: TruncOp, weight: RatLike, d: int) -> bool:
    """True iff the weight-``weight`` identity holds on all pairs of degree <= d.

    By bilinearity this certifies the identity for every pair of polynomials
    of degree at most d.
    """
    return first_rb_failure(op, weight, d) is None


def odd_halving_example(n: int) -> TruncOp:
    """The non-injective weight-zero example: kills even powers, halves odd ones.

    x^(2t) -> 0 and x^(2t+1) -> x^(2t+2)/(2t+2).
    """
    images = tuple(
        Poly.monomial(i + 1, Fraction(1, i + 1)) if i % 2 else Poly.zero()
        for i in range(n + 1)
    )
    return TruncOp(images)


def derived_multiplier(op: TruncOp) -> Poly:
    """The fixed polynomial r with d/dx of R(x^n) equal to r*x^n for all rows.

    r is the derivative of R(1).  Row n, numerators c_j over den, passes when
    c_1 .. c_n vanish, j*c_j*den(r) == r_(j-n-1)*den for j > n, and the row
    stops at x^(n + 1 + deg r) (is a constant when r = 0): one integer
    cross-multiplication per coefficient, with no Poly built per row.

    Raises :class:`NotMultiplierType` when some row fails the check and
    :class:`ZeroMultiplier` when all rows agree on r = 0.
    """
    if op.n_max < 1:
        raise TruncationTooSmall("multiplier extraction needs at least the images of 1 and x")
    r = op.images[0].derive()
    rs, r_den = r.num, r.den
    for n, image in enumerate(op.images):
        num, den = image.num, image.den
        high = zip(range(n + 1, len(num)), num[n + 1 :], rs)
        if (
            (len(num) != n + 1 + len(rs) if rs else len(num) > 1)
            or any(num[1 : n + 1])
            or any(j * c * r_den != b * den for j, c, b in high)
        ):
            raise NotMultiplierType(
                f"derivative of image {n} is not the row of a fixed multiplier"
            )
    if r.is_zero():
        raise ZeroMultiplier("derived multiplier is zero")
    return r


def operator_to_point(op: TruncOp) -> AnalyticOp:
    """Canonical form: recover the moduli point (a, r) from a truncation.

    The base point must be a common root of the images of x^0 .. x^k (k the
    multiplier degree), so their gcd is a power of x - a.  No second point,
    rational or complex, kills all k + 1 images: between two such points
    the integrals of r*x^j for j <= k would all vanish, and pairing r with
    its own conjugate along that segment then forces r = 0.

    The result is verified without a second truncation.  Once
    ``derived_multiplier`` has checked that every image R(x^n) has the
    derivative r*x^n, R(x^n) is the image of x^n under (a, r) plus the
    constant R(x^n)(a).  So (a, r) truncates back to the input exactly when
    every image vanishes at a, and that is what is checked.
    """
    r = derived_multiplier(op)
    k = r.degree
    if op.n_max < k:
        raise TruncationTooSmall(
            f"need images up to degree {k} to pin the base point, have {op.n_max}"
        )
    a = common_root(*op.images[: k + 1])
    if a is None:
        raise NoRationalBasePoint("no rational point kills every low-degree image")
    if any(image._at(a)[0] for image in op.images):
        raise Inconsistent("recovered moduli point does not reproduce the truncation")
    return AnalyticOp(a, r)
