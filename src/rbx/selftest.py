"""Deterministic release-gate checks, shared by ``rbx selftest`` and the test suite.

Each criterion is a callable taking a seeded :class:`random.Random`; it
raises ``AssertionError`` on failure and returns a one-line summary on
success.  All arithmetic is exact, so every comparison is equality, never a
tolerance.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from typing import Callable

from . import linalg, transitivity
from .actions import (
    Dilate,
    Shear,
    ShearSquared,
    Translate,
    affine_orbit_word,
    apply_word,
    apply_word_tuple,
)
from .functionals import (
    FunctionalCoords,
    coords_from_operator,
    curve_coords,
    elimination_polynomial,
    functional_residual,
    operator_from_coords,
    recover_base_point,
    reduced_equation,
    satisfies_system,
    vanishes_on_curve,
)
from .operators import (
    AnalyticOp,
    NotMultiplierType,
    derived_multiplier,
    is_rb_upto,
    odd_halving_example,
)
from .poly import Poly, _Value
from .transitivity import (
    solve_distinct_tuple,
    solve_single,
    solve_tuple_independent,
)

DEFAULT_SEED = 271828


class CriterionResult(_Value):
    __slots__ = ("number", "name", "passed", "detail", "seconds")

    def __init__(self, number: int, name: str, passed: bool, detail: str, seconds: float) -> None:
        for field, value in zip(self.__slots__, (number, name, passed, detail, seconds)):
            object.__setattr__(self, field, value)


# -- random sampling helpers -------------------------------------------------

def _rational(rng: random.Random, span: int = 6, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def _poly(rng: random.Random, max_deg: int, span: int = 5) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [_rational(rng, span, 3) for _ in range(deg)]
    lead = Fraction(0)
    while lead == 0:
        lead = _rational(rng, span, 3)
    return Poly(tuple(coeffs) + (lead,))


def _vanishing_poly(rng: random.Random, b: Fraction, max_deg: int = 3) -> Poly:
    return Poly((-b, Fraction(1))) * _poly(rng, max_deg)


def _operator(rng: random.Random, max_deg: int, a: "Fraction | None" = None) -> AnalyticOp:
    base = _rational(rng) if a is None else a
    return AnalyticOp(base, _poly(rng, max_deg))


def _independent_tuple(rng: random.Random, m: int, a: Fraction) -> list[AnalyticOp]:
    while True:
        ops = [_operator(rng, m + 1, a) for _ in range(m)]
        if transitivity._rank([op.r for op in ops]) == m:
            return ops


def _distinct_tuple(
    rng: random.Random, m: int, a: Fraction, force_dependent: bool
) -> list[AnalyticOp]:
    while True:
        ops = [_operator(rng, m, a) for _ in range(m)]
        if force_dependent and m >= 2:
            scale = Fraction(0)
            while scale in (0, 1):
                scale = _rational(rng, 4, 2)
            ops[-1] = AnalyticOp(a, ops[0].r * scale)
        if len(set(ops)) == m:
            return ops


# -- criteria ----------------------------------------------------------------

def _require(cond: bool, msg: str = "") -> None:
    """Fail the running criterion unless ``cond``; unlike ``assert``, kept under ``python -O``."""
    if not cond:
        raise AssertionError(msg)


def criterion_rb_identity(rng: random.Random) -> str:
    halves = [Fraction(i, 2) for i in range(-6, 7)]
    for _ in range(20):
        op = AnalyticOp(rng.choice(halves), _poly(rng, 5))
        trunc = op.truncate(2 * 10 + op.r.degree + 1)
        _require(is_rb_upto(trunc, 0, 10), f"identity failed for {op}")
    return "20 random analytic operators satisfy the weight-0 identity up to degree 10"


def criterion_odd_halving(rng: random.Random) -> str:
    trunc = odd_halving_example(26)
    _require(is_rb_upto(trunc, 0, 12))
    try:
        derived_multiplier(trunc)
    except NotMultiplierType:
        pass
    else:
        raise AssertionError("odd-halving operator must not be of multiplier type")
    return "odd-halving operator passes the identity yet has no fixed multiplier"


def criterion_functional_correspondence(rng: random.Random) -> str:
    for _ in range(20):
        r = _poly(rng, 3)
        a = _rational(rng)
        k = r.degree
        length = k + 8
        fc = curve_coords(r, a, length)
        trunc = operator_from_coords(fc, length - 1)
        back = coords_from_operator(trunc)
        _require(back.r == r and back.c == fc.c)
        for n in range(7):
            for m in range(n, 7 - n):
                _require(functional_residual(fc, Poly.monomial(n), Poly.monomial(m)) == 0)
        for j in range(length):
            bumped = FunctionalCoords(
                r, fc.c[:j] + (fc.c[j] + 1,) + fc.c[j + 1 :]
            )
            _require(
                any(
                    functional_residual(bumped, Poly.monomial(n), Poly.monomial(m)) != 0
                    for n in range(4)
                    for m in range(4)
                ),
                f"perturbing coordinate {j} went undetected for r={r}, a={a}",
            )
    return "coordinate/operator round trip exact; every single-coordinate bump detected"


def criterion_elimination(rng: random.Random) -> str:
    contexts = [Poly.one(), Poly.x(), Poly((1, 1)), Poly((1, 0, 1))]
    samples = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)]
    for r in contexts:
        k = r.degree
        for a in samples:
            coords = curve_coords(r, a, 9).c
            assign = dict(enumerate(coords))
            for t in range(k + 1, 9):
                _require(elimination_polynomial(r, t).eval_at(assign) == coords[t])
        for n in range(5):
            for m in range(5):
                _require(vanishes_on_curve(r, n, m), f"reduced ({n},{m}) not killed for r={r}")
    for n in range(7):
        for m in range(7):
            _require(reduced_equation(Poly.one(), n, m).is_zero())
    return "coordinate elimination consistent on curve points; degree-0 context reduces to 0"


def criterion_membership(rng: random.Random) -> str:
    contexts = [Poly.one(), Poly.x(), Poly((1, 1)), Poly((0, 0, 1))]
    for r in contexts:
        k = r.degree
        samples = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 2)]
        samples += [_rational(rng) for _ in range(5)]
        for a in samples:
            head = curve_coords(r, a, k + 1).c
            _require(satisfies_system(r, head, 8), f"curve head rejected for r={r}, a={a}")
            _require(recover_base_point(r, curve_coords(r, a, k + 2).c) == a)
            for j in range(k + 1):
                bumped = head[:j] + (head[j] + 1,) + head[j + 1 :]
                if k == 0:
                    # A degree-0 context has a one-coordinate head and every
                    # head extends to a solution, so bumps stay members.
                    _require(satisfies_system(r, bumped, 8))
                    _require(recover_base_point(r, (bumped[0],)) == -bumped[0])
                else:
                    _require(
                        not satisfies_system(r, bumped, 8),
                        f"off-curve bump accepted for r={r}, a={a}, coordinate {j}",
                    )
    return "curve heads accepted with exact base-point recovery; off-curve bumps rejected"


def criterion_group_laws(rng: random.Random) -> str:
    for _ in range(100):
        op = _operator(rng, 4)
        b = _rational(rng, 3, 2)
        s1 = _vanishing_poly(rng, b)
        s2 = _vanishing_poly(rng, b)
        # composition law at one base point
        _require(Shear(b, s2).apply(Shear(b, s1).apply(op)) == Shear(b, s1 + s2).apply(op))
        # one-parameter subgroups at one base point commute
        j, l = rng.sample(range(1, 5), 2)
        g1 = Shear(b, (Poly.monomial(j) - Poly.constant(b**j)) * _rational(rng, 3, 2))
        g2 = Shear(b, (Poly.monomial(l) - Poly.constant(b**l)) * _rational(rng, 3, 2))
        _require(g1.apply(g2.apply(op)) == g2.apply(g1.apply(op)))
        # inverses
        _require(apply_word((Shear(b, s1), Shear(b, s1).inverse()), op) == op)
        _require(apply_word((ShearSquared(b, s1), ShearSquared(b, s1).inverse()), op) == op)
        nu = _rational(rng)
        mu = Fraction(0)
        while mu == 0:
            mu = _rational(rng, 4, 3)
        _require(apply_word((Translate(nu), Translate(nu).inverse()), op) == op)
        _require(apply_word((Dilate(mu), Dilate(mu).inverse()), op) == op)
        # the evaluation at the shear's own base point is invariant
        _require(Shear(b, s1).apply(op).r(b) == op.r(b))
        _require(ShearSquared(b, s1).apply(op).r(b) == op.r(b))
        # shears act linearly on multipliers: vanishing combinations stay vanishing
        lam1, lam2 = _rational(rng, 3, 2), _rational(rng, 3, 2)
        lam3 = Fraction(0)
        while lam3 == 0:
            lam3 = _rational(rng, 3, 2)
        r1, r2 = _poly(rng, 3), _poly(rng, 3)
        r3 = (r1 * lam1 + r2 * lam2) * (Fraction(-1) / lam3)
        if r3.is_zero():
            continue
        trio = [AnalyticOp(op.a, r) for r in (r1, r2, r3)]
        shear_word = tuple(
            Shear(b, _vanishing_poly(rng, b)) for _ in range(3)
        )
        moved = apply_word_tuple(shear_word, trio)
        combo = moved[0].r * lam1 + moved[1].r * lam2 + moved[2].r * lam3
        _require(combo.is_zero())
    return "shear composition, commutation, inverses, fiber invariance and linearity exact"


def criterion_evaluation_basis(rng: random.Random) -> str:
    for k in range(11):
        lcms = [math.lcm(*range(j + 1, j + k + 2)) for j in range(k + 1)]
        rows = [[lcm // (i + j + 1) for i in range(k + 1)] for j, lcm in enumerate(lcms)]
        _require(linalg.rank(rows) == k + 1)
    return "reciprocal-sum evaluation matrices are nonsingular for sizes 1..11"


def criterion_single_transitivity(rng: random.Random) -> str:
    lengths = []
    for _ in range(50):
        op1 = _operator(rng, 6)
        op2 = _operator(rng, 6)
        word = solve_single(op1, op2)
        _require(apply_word(word, op1) == op2)
        _require(len(word) <= 3)
        lengths.append(len(word))
    return f"50 single-operator words verified, max length {max(lengths)}"


def criterion_independent_tuples(rng: random.Random) -> str:
    total = 0
    for m in (1, 2, 3, 4):
        for _ in range(10):
            a = _rational(rng)
            src = _independent_tuple(rng, m, a)
            dst = _independent_tuple(rng, m, a)
            word = solve_tuple_independent(src, dst)
            _require(apply_word_tuple(word, src) == dst)
            _require(len(word) <= 4 * m)
            total += 1
    return f"{total} independent-tuple words verified within the length cap"


def criterion_distinct_tuples(rng: random.Random) -> str:
    total = 0
    for m in (2, 3, 4):
        for i in range(10):
            a = _rational(rng)
            src = _distinct_tuple(rng, m, a, force_dependent=(i % 2 == 0))
            dst = _distinct_tuple(rng, m, a, force_dependent=(i % 3 == 0))
            word = solve_distinct_tuple(src, dst)
            _require(apply_word_tuple(word, src) == dst)
            _require(len(word) <= 8 * m - 4)
            total += 1
    return f"{total} distinct-tuple words verified, dependent inputs included"


def criterion_affine_orbits(rng: random.Random) -> str:
    for _ in range(20):
        op = _operator(rng, 4)
        nu = _rational(rng)
        mu = Fraction(0)
        while mu == 0:
            mu = _rational(rng, 4, 3)
        image = apply_word((Translate(nu), Dilate(mu)), op)
        word = affine_orbit_word(op, image)
        _require(word is not None and apply_word(word, op) == image)
    _require(affine_orbit_word(AnalyticOp(0, Poly.x()), AnalyticOp(0, Poly.monomial(2))) is None)
    _require(
        affine_orbit_word(AnalyticOp(0, Poly.monomial(2)), AnalyticOp(0, Poly.monomial(2, 2)))
        is None
    )
    _require(
        affine_orbit_word(AnalyticOp(1, Poly.monomial(2)), AnalyticOp(-1, Poly.monomial(2, 3)))
        is None
    )
    return "20 conjugation witnesses verified; mismatched degrees and leads rejected"


CRITERIA: list[tuple[int, str, Callable[[random.Random], str]]] = [
    (1, "rb-identity-analytic", criterion_rb_identity),
    (2, "odd-halving-counterexample", criterion_odd_halving),
    (3, "functional-correspondence", criterion_functional_correspondence),
    (4, "coordinate-elimination", criterion_elimination),
    (5, "curve-membership", criterion_membership),
    (6, "group-action-laws", criterion_group_laws),
    (7, "evaluation-basis-nondegeneracy", criterion_evaluation_basis),
    (8, "single-operator-words", criterion_single_transitivity),
    (9, "independent-tuple-words", criterion_independent_tuples),
    (10, "distinct-tuple-words", criterion_distinct_tuples),
    (11, "affine-orbit-words", criterion_affine_orbits),
]


def run_criterion(number: int, seed: int = DEFAULT_SEED) -> CriterionResult:
    for num, name, func in CRITERIA:
        if num == number:
            rng = random.Random(seed * 1000 + num)
            start = time.perf_counter()
            try:
                detail = func(rng)
                passed = True
            except AssertionError as exc:
                detail = str(exc) or "assertion failed"
                passed = False
            return CriterionResult(num, name, passed, detail, time.perf_counter() - start)
    raise ValueError(f"no criterion numbered {number}")


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [run_criterion(num, seed) for num, _, _ in CRITERIA]
