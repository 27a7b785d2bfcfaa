"""Exact rank of integer rows by one fraction-free elimination."""

from __future__ import annotations

import math
from typing import Sequence


def _scaled(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Values ``(num, den)`` as integers over the lcm of their denominators, and that lcm."""
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of integer rows; a rational row scaled to integers keeps it.

    Bareiss elimination (Math. Comp. 22, 1968) on a copy: every entry after
    the step at pivot ``prev`` is a minor of the matrix, so the division by
    the previous pivot is exact.
    """
    ints = [list(row) for row in rows]
    ncols = len(ints[0]) if ints else 0
    if any(len(row) != ncols for row in ints):
        raise ValueError("ragged matrix")
    r, prev = 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(r, len(ints)) if ints[i][col]), None)
        if pivot is None:
            continue
        ints[r], ints[pivot] = ints[pivot], ints[r]
        top, lead = ints[r], ints[r][col]
        for row in ints[r + 1 :]:
            c = row[col]
            row[:] = [(lead * v - c * w) // prev for v, w in zip(row, top)]
        prev = lead
        r += 1
    return r
