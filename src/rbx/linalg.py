"""Exact rank, pivot columns and determinant over the rationals by one fraction-free elimination."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .poly import RatLike, as_rat


def _scaled(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Values ``(num, den)`` as integers over the lcm of their denominators, and that lcm."""
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _copy(rows: Sequence[Sequence[RatLike]]) -> tuple[list[list[int]], int]:
    """The rows each scaled to integers by :func:`_scaled`, and the product of the scales."""
    out, scale = [], 1
    for row in rows:
        ints, den = _scaled([(c.numerator, c.denominator) for c in map(as_rat, row)])
        out.append(ints)
        scale *= den
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out, scale


def _eliminate(ints: list[list[int]]) -> tuple[list[int], int]:
    """Pivot columns, and determinant when square (else 0), of integer rows.

    Bareiss elimination (Math. Comp. 22, 1968), in place.  Columns are taken
    left to right, so a column is a pivot exactly when it is independent of
    the columns before it; the number of pivots is the rank.

    Every entry after the elimination step at pivot ``prev`` is a minor of
    the matrix, so the division by the previous pivot is exact and the last
    pivot is the determinant up to the sign of the row swaps.
    """
    nrows, ncols = len(ints), len(ints[0]) if ints else 0
    pivots: list[int] = []
    r, sign, prev = 0, 1, 1
    for col in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if ints[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            ints[r], ints[pivot] = ints[pivot], ints[r]
            sign = -sign
        top, lead = ints[r], ints[r][col]
        for i in range(r + 1, nrows):
            row, c = ints[i], ints[i][col]
            for j in range(col + 1, ncols):
                row[j] = (lead * row[j] - c * top[j]) // prev
            row[col] = 0
        prev = lead
        pivots.append(col)
        r += 1
    return pivots, sign * prev if r == nrows == ncols else 0


def rank(rows: Sequence[Sequence[RatLike]]) -> int:
    """Exact rank."""
    return len(_eliminate(_copy(rows)[0])[0])


def det(rows: Sequence[Sequence[RatLike]]) -> Fraction:
    """Exact determinant of a square matrix."""
    mat, scale = _copy(rows)
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("determinant needs a square matrix")
    return Fraction(_eliminate(mat)[1], scale)
