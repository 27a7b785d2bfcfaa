"""Exact rank, pivot columns and determinant over the rationals by one fraction-free elimination."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .poly import RatLike, as_rat


def _copy(rows: Sequence[Sequence[RatLike]]) -> list[list[Fraction]]:
    out = [[as_rat(c) for c in row] for row in rows]
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def _eliminate(mat: list[list[Fraction]]) -> tuple[list[int], Fraction]:
    """Pivot columns, and determinant when square, by Bareiss elimination (Math. Comp. 22, 1968).

    Columns are taken left to right, so a column is a pivot exactly when it
    is independent of the columns before it; the number of pivots is the
    rank.

    Each row is first scaled to integers by the lcm of its denominators.
    Every entry after the elimination step at pivot ``prev`` is a minor of
    the scaled matrix, so the division by the previous pivot is exact and
    the last pivot is the determinant up to the row scales and the sign of
    the row swaps.
    """
    ints, scale = [], 1
    for row in mat:
        den = math.lcm(*(c.denominator for c in row))
        ints.append([c.numerator * (den // c.denominator) for c in row])
        scale *= den
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
    square_full = r == nrows == ncols
    return pivots, Fraction(sign * prev, scale) if square_full else Fraction(0)


def rank(rows: Sequence[Sequence[RatLike]]) -> int:
    """Exact rank."""
    return len(_eliminate(_copy(rows))[0])


def det(rows: Sequence[Sequence[RatLike]]) -> Fraction:
    """Exact determinant of a square matrix."""
    mat = _copy(rows)
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("determinant needs a square matrix")
    return _eliminate(mat)[1]
