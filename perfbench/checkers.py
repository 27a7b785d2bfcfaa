"""Checks of rbx outputs that share no code with rbx.

Polynomials here are plain lists of ``Fraction`` coefficients, index ``i``
holding the coefficient of ``x**i``, with no trailing zeros.  Everything is
computed from the definitions in the rbx README:

* the four generators ``HB``, ``HB2``, ``GA``, ``GM`` are replayed on moduli
  points ``(a, r)`` (``replay_word``);
* the truncation image of ``x**i`` under ``(a, r)`` is ``int_a^x r(t) t^i dt``
  (``truncation_images``);
* curve coordinates are ``c_i = -int_0^a r(t) t^i dt`` (``curve_coords``);
* the coordinate system ``c_n c_m + sum_i (1/(i+n+1) + 1/(i+m+1)) r_i
  c_(i+n+m+1) = 0`` is solved and tested numerically (``is_member``);
* ``MPoly`` term maps ``{((var, exp), ...): coef}`` are evaluated directly
  (``eval_terms``).

Each ``check_*`` function returns ``None`` when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import re
from fractions import Fraction

Coeffs = list  # list[Fraction]


# -- polynomial text (the grammar documented in the rbx README) ---------------

_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(\*?x(?:\^(\d+))?)?")


def parse_poly(text: str) -> Coeffs:
    """Coefficients of a polynomial written as ``[+-] coef [*] [x [^ exp]]`` terms."""
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty polynomial text")
    out: dict[int, Fraction] = {}
    pos = 0
    while pos < len(compact):
        m = _TERM.match(compact, pos)
        if m is None or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"bad polynomial text at {compact[pos:]!r}")
        coef = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if m.group(3) and m.group(3).startswith("*") and not m.group(2):
            raise ValueError(f"bad polynomial text at {compact[pos:]!r}")
        exp = (int(m.group(4)) if m.group(4) else 1) if m.group(3) else 0
        out[exp] = out.get(exp, Fraction(0)) + (-coef if m.group(1) == "-" else coef)
        pos = m.end()
    return trim([out.get(e, Fraction(0)) for e in range(max(out) + 1)])


def format_poly(cs: Coeffs) -> str:
    """Text form of a coefficient list in the README grammar, highest power first."""
    parts = []
    for exp in range(len(cs) - 1, -1, -1):
        c = cs[exp]
        if c == 0:
            continue
        mag = abs(c)
        x = "" if exp == 0 else ("x" if exp == 1 else f"x^{exp}")
        body = str(mag) if not x else (x if mag == 1 else f"{mag}*{x}")
        sign = "-" if c < 0 else "+"
        parts.append(("-" if c < 0 else "") + body if not parts else f" {sign} {body}")
    return "".join(parts) or "0"


# -- dense Fraction polynomials ----------------------------------------------

def trim(cs: Coeffs) -> Coeffs:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def padd(p: Coeffs, q: Coeffs) -> Coeffs:
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def pscale(p: Coeffs, c: Fraction) -> Coeffs:
    return trim([c * v for v in p])


def pmul(p: Coeffs, q: Coeffs) -> Coeffs:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return trim(out)


def peval(p: Coeffs, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def pshift_scale(p: Coeffs, mu: Fraction, nu: Fraction) -> Coeffs:
    """p(mu*x + nu)."""
    acc: Coeffs = []
    for c in reversed(p):
        acc = padd(pmul(acc, [nu, mu]), [c])
    return acc


# -- closed forms ---------------------------------------------------------------

def truncation_images(a: Fraction, r: Coeffs, n: int) -> list[Coeffs]:
    """Images of x^0 .. x^n under (a, r): int_a^x r(t) t^i dt."""
    images = []
    for i in range(n + 1):
        img: dict[int, Fraction] = {0: Fraction(0)}
        for j, rj in enumerate(r):
            e = i + j + 1
            img[e] = img.get(e, Fraction(0)) + rj / e
            img[0] -= rj * a**e / e
        images.append(trim([img.get(e, Fraction(0)) for e in range(max(img) + 1)]))
    return images


def curve_coords(r: Coeffs, a: Fraction, length: int) -> list[Fraction]:
    """c_i = -int_0^a r(t) t^i dt for i < length."""
    return [-sum((rj * a ** (i + j + 1) / (i + j + 1) for j, rj in enumerate(r)), Fraction(0))
            for i in range(length)]


def extend_head(r: Coeffs, head: list[Fraction], length: int) -> list[Fraction]:
    """Solve the (t-1-k, 0) coordinate equation for c_t, t = k+1 .. length-1."""
    k = len(r) - 1
    c = list(head)
    for t in range(k + 1, length):
        n = t - 1 - k
        rest = c[n] * c[0] + sum(
            (Fraction(1, i + n + 1) + Fraction(1, i + 1)) * r[i] * c[i + n + 1]
            for i in range(k)
        )
        c.append(-rest / ((Fraction(1, t) + Fraction(1, k + 1)) * r[k]))
    return c


def is_member(r: Coeffs, head: list[Fraction], budget: int) -> bool:
    """Membership of a head (length deg r + 1) in the coordinate system up to ``budget``."""
    k = len(r) - 1
    c = extend_head(r, head, 2 * budget + k + 2)
    for n in range(budget + 1):
        for m in range(n, budget + 1):
            value = c[n] * c[m] + sum(
                (Fraction(1, i + n + 1) + Fraction(1, i + m + 1)) * ri * c[i + n + m + 1]
                for i, ri in enumerate(r)
            )
            if value:
                return False
    return True


def eval_terms(terms: dict, assign: dict[int, Fraction]) -> Fraction:
    """Value of an MPoly term map at a rational assignment of its variables."""
    total = Fraction(0)
    for key, coef in terms.items():
        part = Fraction(coef)
        for var, exp in key:
            part *= assign[var] ** exp
        total += part
    return total


# -- the four generators ---------------------------------------------------------

def apply_generator(gen: dict, a: Fraction, r: Coeffs) -> tuple[Fraction, Coeffs]:
    """One generator in wire form applied to the moduli point (a, r)."""
    kind = gen["type"]
    if kind in ("HB", "HB2"):
        b, s = Fraction(gen["b"]), parse_poly(gen["s"])
        if peval(s, b) != 0:
            raise ValueError(f"{kind} direction does not vanish at b = {b}")
        value = peval(r, b)
        if kind == "HB2":
            value = value * value
        return a, padd(r, pscale(s, value))
    if kind == "GA":
        nu = Fraction(gen["nu"])
        return a - nu, pshift_scale(r, Fraction(1), nu)
    if kind == "GM":
        mu = Fraction(gen["mu"])
        if mu == 0:
            raise ValueError("GM with mu = 0")
        return a / mu, pshift_scale(r, mu, Fraction(0))
    raise ValueError(f"unknown generator type {kind!r}")


def replay_word(word: list, ops: list) -> list:
    """Apply a wire-form word left to right to every (a, r) of ``ops``."""
    out = [(Fraction(a), trim(r)) for a, r in ops]
    for gen in word:
        out = [apply_generator(gen, a, r) for a, r in out]
    return out


# -- checks -------------------------------------------------------------------------

def check_word(word: list, src: list, dst: list, cap: int) -> "str | None":
    """``word`` must carry every member of ``src`` to the same member of ``dst`` within ``cap``."""
    if len(word) > cap:
        return f"word has {len(word)} generators, cap {cap}"
    try:
        got = replay_word(word, src)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        return f"word does not replay: {exc}"
    want = [(Fraction(a), trim(r)) for a, r in dst]
    if got != want:
        return "replayed word does not reach the destination"
    return None


def tuple_cap(m: int) -> int:
    return 10 * m * m + 20 * m


def check_images(images: list[Coeffs], a: Fraction, r: Coeffs) -> "str | None":
    """Truncation images must equal the closed form for (a, r)."""
    if [trim(p) for p in images] != truncation_images(a, r, len(images) - 1):
        return "truncation images differ from the closed form"
    return None


def check_point(point: tuple, a: Fraction, r: Coeffs) -> "str | None":
    """A canonical point must be exactly (a, r)."""
    if Fraction(point[0]) != a:
        return f"base point {point[0]} is not {a}"
    if trim(point[1]) != trim(r):
        return "multiplier differs"
    return None


def check_verdict(got: bool, want: bool, what: str) -> "str | None":
    if got is not want:
        return f"{what}: got {got}, expected {want}"
    return None


def check_elimination(terms: dict, r: Coeffs, a: Fraction, t: int) -> "str | None":
    """The elimination polynomial for c_t must give c_t on the curve at a."""
    c = curve_coords(r, a, t + 1)
    if eval_terms(terms, dict(enumerate(c[:t]))) != c[t]:
        return f"elimination polynomial for c_{t} is wrong at a = {a}"
    if any(var >= t for key in terms for var, _ in key):
        return f"elimination polynomial for c_{t} uses c_{t} or higher"
    return None


def check_reduced(terms: dict, r: Coeffs, a: Fraction) -> "str | None":
    """A reduced equation lives in c_0 .. c_k and vanishes on the curve."""
    k = len(r) - 1
    if any(var > k for key in terms for var, _ in key):
        return "reduced equation keeps an eliminable coordinate"
    if eval_terms(terms, dict(enumerate(curve_coords(r, a, k + 1)))) != 0:
        return f"reduced equation does not vanish on the curve at a = {a}"
    return None


def check_recovered(got: "Fraction | None", r: Coeffs, head: list[Fraction],
                    on_curve: bool) -> "str | None":
    """A recovered base point must realise the head; a head on the curve must get one."""
    if got is None:
        return "curve head has no recovered base point" if on_curve else None
    if curve_coords(r, Fraction(got), len(head)) != list(head):
        return f"recovered base point {got} does not realise the head"
    return None
