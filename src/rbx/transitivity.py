"""Constructive word synthesis for the shear actions on analytic operators.

Each public solver returns a word of generators and verifies it once, by one
exact application, before returning; a wrong word is a bug, not a result,
and raises :class:`VerificationFailed` (also under ``python -O``).  The
private builders ``_between`` and ``_independent`` keep only the checks that
need no replay, their callers check the shared base point, and no public
solver calls another.  The staging is private as well.  Its device is
``_DiagonalTuple``: an operator tuple whose multipliers hit prescribed
nonzero values on a diagonal evaluation pattern (r_i(b_j) = c_i when i = j,
else 0), which makes per-member fiber moves independent of each other.
A tuple word diagonalises both tuples with one shear per pivot row, each by
one elimination that also picks its points, the destination's avoiding the
source's.  It bridges the source's diagonal tuple onto the destination's
pattern, finishes with one fiber move per member there and undoes the
destination's diagonalisation.  A move that changes nothing is left out, so
a word between independent m-tuples has at most 4m generators.  A single
operator is the one-member tuple: after a translation of the base point its
word is one bridge move and one fiber move.  A distinct tuple is first made
independent by one squared shear per missing rank, a step private to
:func:`solve_distinct_tuple`, so a word between distinct m-tuples has at
most 8m - 4.

Every evaluation and shear point is the first that works in one integer
scan, 0, 1, -1, 2, -2, ..., so a fixed input yields a fixed word; a point
stays an ``int`` until it becomes a generator field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import linalg
from .actions import (
    Generator,
    Shear,
    ShearSquared,
    Translate,
    Word,
    apply_word,
    apply_word_tuple,
    inverse_word,
)
from .operators import AnalyticOp
from .poly import Poly, _nodes, _Value


class BasePointMismatch(ValueError):
    """Operators do not share the integration base point the construction needs."""


class ZeroFiberValue(ValueError):
    """A fiber move would divide by a vanishing multiplier value."""


class FiberMismatch(ValueError):
    """Source and destination sit in different fibers of the evaluation map."""


class LinearlyDependent(ValueError):
    """The multiplier tuple has no full rank, but the construction needs it."""


class BasePointCollision(ValueError):
    """Evaluation point sets that must be disjoint are not."""


class DuplicateOperators(ValueError):
    """The tuple members must be pairwise distinct."""


class VerificationFailed(ValueError):
    """A synthesized word failed its exact check before being returned."""


def _verify(ok: bool, what: str) -> None:
    if not ok:
        raise VerificationFailed(what)


class _DiagonalTuple(_Value):
    """Operator tuple with diagonal evaluation pattern r_i(b_j) = c_i * delta_ij."""

    __slots__ = ("base_points", "values", "ops")

    def __init__(self, base_points: tuple, values: tuple, ops: tuple[AnalyticOp, ...]) -> None:
        object.__setattr__(self, "base_points", base_points)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ops", ops)
        m = len(self.ops)
        if len(self.base_points) != m or len(self.values) != m:
            raise ValueError("base points, values and operators must have equal length")
        if len(set(self.base_points)) != m:
            raise ValueError("base points must be pairwise distinct")
        if any(c == 0 for c in self.values):
            raise ZeroFiberValue("diagonal values must be nonzero")
        _shared_base(self.ops)
        for i, op in enumerate(self.ops):
            for j, b in enumerate(self.base_points):
                e = self.values[i] if i == j else 0
                n, d = op.r._at(b)
                if n * e.denominator != e.numerator * d:
                    raise ValueError(
                        f"member {i} evaluates to {op.r(b)} at point {j}, expected {e}"
                    )


def _shared_base(ops: Sequence[AnalyticOp]) -> Fraction:
    if not ops:
        raise ValueError("empty operator tuple")
    a = ops[0].a
    if any(op.a != a for op in ops):
        raise BasePointMismatch("operators must share one integration base point")
    return a


def _rank(rs: Sequence[Poly]) -> int:
    """Rank of the coefficient rows, read off the numerators: scaling a row keeps the rank."""
    width = max(len(r.num) for r in rs)
    return linalg.rank([r.num + (0,) * (width - len(r.num)) for r in rs])


def _scan(n: int) -> list[int]:
    """The first n points of the one integer scan 0, 1, -1, 2, -2, ..."""
    return [(k + 1) // 2 * (-1) ** (k + 1) for k in range(n)]


def _fiber_move(src: AnalyticOp, dst: AnalyticOp, b: int) -> Shear:
    """The shear at b carrying src to dst within one fiber of the evaluation map."""
    if src.a != dst.a:
        raise BasePointMismatch("fiber moves keep the integration base point fixed")
    (n1, d1), (n2, d2) = src.r._at(b), dst.r._at(b)
    if n1 * d2 != n2 * d1:
        raise FiberMismatch(f"multiplier values at {b} differ: {src.r(b)} vs {dst.r(b)}")
    if not n1:
        raise ZeroFiberValue(f"multiplier value at {b} must be nonzero")
    return Shear(b, (dst.r - src.r) * Fraction(d1, n1))


def solve_single(op1: AnalyticOp, op2: AnalyticOp) -> Word:
    """Word of at most three generators carrying op1 to op2: the one-member tuple word.

    A translation aligns the integration base points, then ``_between`` on the
    one-member tuples gives one bridge move and one fiber move: with a single
    member the diagonalisations emit no shear.
    """
    word: Word = (Translate(op1.a - op2.a),) if op1.a != op2.a else ()
    word += _between([apply_word(word, op1)], [op2])
    _verify(len(word) <= 3 and apply_word(word, op1) == op2, "single word misses its target")
    return word


def _diagonalize_tuple(
    ops: Sequence[AnalyticOp], avoid: Sequence[int] = ()
) -> tuple[Word, _DiagonalTuple]:
    """Column-operation elimination of the evaluation matrix by shears, at points it picks.

    The matrix (r_i(b_j)) is taken at the first D + 1 points of :func:`_scan`
    outside ``avoid``, D the largest degree: the coefficient matrix times an
    invertible Vandermonde matrix, so of rank m exactly when the multipliers
    are independent.  :func:`linalg.eliminate` reduces its columns, row k the
    numerators over den(r_k), as the points are integers; a row with no pivot
    lies in the span of the rows above it and raises :class:`LinearlyDependent`.
    The pivots are the greedy columns, each independent of those before it.
    Each row's multiples at the pivot points, in scan order, interpolate one
    shear at its pivot point (shears at one point keep r there, so they add),
    left out if all are zero.  Returns the word, at most m shears, and the
    diagonal tuple, base points in row order.  Its caller has checked the
    shared base point, and the closing ``_DiagonalTuple`` checks it again.

    Final row k holds den(r_k) * prev / g[j] times the column-reduced entry
    (k, j), prev the pivot before its own, g[j] = 1 until column j is a pivot
    and lead / prev of that step after; on the pivot columns the reduced
    entries are the sheared multipliers' values.  So its multiple of column j
    is -entry * g[j] / lead, and its diagonal value lead / (den(r_k) * prev),
    which later shears leave alone.
    """
    width = max(len(op.r.num) for op in ops)
    points = [b for b in _scan(width + len(avoid)) if b not in avoid][:width]
    rows = [[op.r._at(b)[0] for b in points] for op in ops]  # over den(r), as b is an integer
    used = linalg.eliminate(rows)
    if None in used:
        raise LinearlyDependent("multipliers must be linearly independent")
    chosen = sorted(used)
    interpolate = None  # the node set at the pivot points, built by the first shear
    word: list[Generator] = []
    values: list[Fraction] = []
    g = [(1, 1)] * width
    prev = 1
    for top, pivot, op in zip(rows, used, ops):
        lead = top[pivot]
        ys = [(0, 1) if j == pivot else (-top[j] * g[j][0], g[j][1] * lead) for j in chosen]
        if any(n for n, _ in ys):
            interpolate = interpolate or _nodes([points[j] for j in chosen])
            word.append(Shear(points[pivot], interpolate(ys)))
        values.append(Fraction(lead, op.r.den * prev))
        g[pivot] = (lead, prev)
        prev = lead
    moved = tuple(apply_word_tuple(word, ops))
    return tuple(word), _DiagonalTuple(tuple(points[p] for p in used), tuple(values), moved)


def _bridge_tuple(
    src: _DiagonalTuple, dst_points: Sequence[int], dst_values: Sequence[Fraction]
) -> tuple[Word, _DiagonalTuple]:
    """Move a diagonal tuple onto a disjoint evaluation pattern.

    Target k is r_k + N * L_k: N = prod (x - p_j) over the source points, and
    L_k interpolates (d_k * delta_kj - r_k(q_j)) / N(q_j) at the destination
    points q_j, so it keeps the source pattern and meets the destination's.
    Fiber moves at the source points walk there one member at a time, each
    fixing the others, which vanish there, along N * L_k / c_k, of degree at
    most 2m - 1 whatever the members' degrees; no-op moves are left out.
    """
    m = len(src.ops)
    if len(dst_points) != m or len(dst_values) != m:
        raise ValueError("destination pattern must match the tuple length")
    if set(dst_points) & set(src.base_points):
        raise BasePointCollision("destination points must avoid the source points")
    node = math.prod((Poly((-p, 1)) for p in src.base_points), start=Poly.one())
    nodes = [node._at(q) for q in dst_points]
    interpolate = _nodes(dst_points)
    targets = []
    for k, op in enumerate(src.ops):
        ys = []  # (d_k * delta_kj - r_k(q_j)) / N(q_j), unreduced
        for j, (q, (nn, nd)) in enumerate(zip(dst_points, nodes)):
            rn, rd = op.r._at(q)
            cn, cd = (dst_values[k].numerator, dst_values[k].denominator) if j == k else (0, 1)
            ys.append(((cn * rd - rn * cd) * nd, cd * rd * nn))
        targets.append(AnalyticOp(op.a, op.r + node * interpolate(ys)))
    word = _fiber_moves(src.ops, targets, src.base_points)
    return word, _DiagonalTuple(tuple(dst_points), tuple(dst_values), tuple(targets))


def _fiber_moves(
    ops: Sequence[AnalyticOp], targets: Sequence[AnalyticOp], points: Sequence[int]
) -> Word:
    """Fiber moves carrying ops[k] to targets[k] at points[k] in turn, no-op moves left out.

    ``ops`` must be diagonal on ``points``: the move at points[k] changes only
    member k, the others vanishing there, and lands it on targets[k], so the
    word carries ops to targets without a replay.
    """
    moves = (_fiber_move(op, dst, b) for op, dst, b in zip(ops, targets, points))
    return tuple(gen for gen in moves if gen.s)


def _between(src: Sequence[AnalyticOp], dst: Sequence[AnalyticOp]) -> Word:
    """Unverified :func:`solve_tuple_independent`: the word, not replayed.

    One elimination per side, in ``_diagonalize_tuple``, picks its points and
    decides its independence; the destination's points avoid the source's.
    """
    m = len(src)
    if len(dst) != m:
        raise ValueError("tuples must have equal length")
    _shared_base(list(src) + list(dst))
    word_src, diag = _diagonalize_tuple(src)
    word_dst, diag_dst = _diagonalize_tuple(dst, diag.base_points)
    word_onto, diag = _bridge_tuple(diag, diag_dst.base_points, diag_dst.values)
    within = _fiber_moves(diag.ops, diag_dst.ops, diag.base_points)
    word = word_src + word_onto + within + inverse_word(word_dst)
    _verify(len(word) <= 4 * m, "independent-tuple word exceeds its length cap")
    return word


def solve_tuple_independent(
    src: Sequence[AnalyticOp], dst: Sequence[AnalyticOp]
) -> Word:
    """Word of shears carrying one independent tuple to another, memberwise.

    Both tuples are diagonalised, the destination at points avoiding the
    source's.  One bridge carries the source's diagonal tuple onto the
    destination's points and values; m fiber moves there match the members,
    and the destination's diagonalisation is undone by its inverse word.
    That is at most 4m generators: one shear per row to diagonalise, no
    no-op moves.
    """
    word = _between(src, dst)
    _verify(apply_word_tuple(word, src) == list(dst), "independent-tuple word misses its target")
    return word


def _squared_shear(rs: Sequence[Poly], rank: int) -> "ShearSquared | None":
    """The squared shear along x^D - b^D raising the rank of ``rs``, at the first scan point b.

    D - 1 is the top degree, so the shear adds the column (r_i(b)^2)_i at x^D: the
    rank rises, by one, iff q_l(b) = sum_i l_i r_i(b)^2 != 0 for a left-kernel vector
    l.  As deg q_l <= 2D - 2, 2D - 1 points decide unless all q_l = 0; then None.
    Row i is taken times den(r_i)^2, which keeps the rank and makes it integer.
    """
    d = max(len(r.num) for r in rs)
    for b in _scan(2 * d - 1):
        rows = []
        for r in rs:
            value = r._at(b)[0]  # over den(r), as b is an integer
            rows.append([c * r.den for c in r.num] + [0] * (d - len(r.num)) + [value**2])
        if linalg.rank(rows) > rank:
            return ShearSquared(b, Poly.monomial(d) - Poly.constant(b**d))
    return None


def _rank_step(rs: Sequence[Poly], rank: int) -> Word:
    """A squared shear raising the rank of distinct ``rs`` by one, after a plain shear if needed.

    Every q_l can vanish: at 0, r = (-4x^2+4x-6, -6x^2-3, -8x^2+8x-4, -6x^2+4x-5)
    has rank 3, and l = (1/2, 1/3, 1/4, -1) kills sum_i l_i r_i and q_l.  A plain
    shear along s = x^D - c^D is linear and invertible on the tuple, so l stays
    in the left kernel and q_l becomes 2s * P(c, x), P(y, x) = sum_i l_i r_i(y) r_i(x).
    For l of least support, r_j = t*r_i (t not 0 or 1) would give q_l = t(1 - t) r_i^2,
    so r_0 = sum_{i<=k} u_i r_i, k >= 2, r_1 .. r_k independent, all u_i != 0, and P
    has the coefficient -u_i u_j at r_i(y) r_j(x), i != j.  Of degree below D in y,
    P(c, x) is nonzero at one of the first D scan points c.
    """
    gen = _squared_shear(rs, rank)
    if gen is not None:
        return (gen,)
    d = max(len(r.num) for r in rs)
    for c in _scan(d):
        s = Poly.monomial(d) - Poly.constant(c**d)
        gen = _squared_shear([r + s * r(c) for r in rs], rank)
        if gen is not None:
            return Shear(c, s), gen
    raise VerificationFailed("no shear raises the rank of the tuple")


def _independent(ops: Sequence[AnalyticOp]) -> tuple[Word, list[AnalyticOp]]:
    """A word of at most 2(m - rank) generators making distinct ``ops`` independent, and the images.

    One squared shear per missing rank, after a plain shear only if degenerate,
    each rank-checked.  The step of :func:`solve_distinct_tuple`, which checks
    the shared base point first and replays its whole word at the end.
    """
    m = len(ops)
    if len(set(ops)) != m:
        raise DuplicateOperators("tuple members must be pairwise distinct")
    word: Word = ()
    cur = list(ops)
    for rank in range(_rank([op.r for op in ops]), m):
        step = _rank_step([op.r for op in cur], rank)
        word += step
        cur = apply_word_tuple(step, cur)
        _verify(_rank([op.r for op in cur]) == rank + 1, "a rank step did not raise the rank")
    return word, cur


def solve_distinct_tuple(
    src: Sequence[AnalyticOp], dst: Sequence[AnalyticOp]
) -> Word:
    """Word carrying any distinct tuple to any other, memberwise.

    Makes both sides independent, solves between the independent images and
    undoes the destination preparation: at most 2(m - 1) + 4m + 2(m - 1)
    = 8m - 4 generators.
    """
    m = len(src)
    if len(dst) != m:
        raise ValueError("tuples must have equal length")
    _shared_base(list(src) + list(dst))
    word_src, src_ind = _independent(src)
    word_dst, dst_ind = _independent(dst)
    word = word_src + _between(src_ind, dst_ind) + inverse_word(word_dst)
    _verify(len(word) <= 8 * m - 4, "distinct-tuple word exceeds its length cap")
    _verify(apply_word_tuple(word, src) == list(dst), "distinct-tuple word misses its target")
    return word
