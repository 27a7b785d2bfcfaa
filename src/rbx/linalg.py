"""One fraction-free elimination of integer rows, and the exact rank built on it."""

from __future__ import annotations

from typing import Sequence


def eliminate(rows: Sequence[list[int]]) -> list["int | None"]:
    """Fraction-free column elimination of integer rows, in place; each row's pivot column.

    Each row in turn pivots on its first nonzero column that no row above has
    taken and steps the rows below, so it is final once its own step begins; a
    row with none lies in the span of the rows above, gets None and takes no
    step.  A row below keeps its entry c in the pivot column, and its entry v
    becomes (lead * v - w * c) / prev, w the pivot row's entry, lead its pivot
    and prev the pivot before.  The pivots are the greedy columns.  Each
    division is exact (Bareiss, Math. Comp. 22, 1968): with B the input's pivot
    rows and columns so far, det B = prev, a row below holds in an untaken
    column the minor of B bordered by its input row and that column, and in the
    column of pivot row l det B with row l replaced by that input row.
    """
    pivots: list["int | None"] = []
    prev = 1
    for i, top in enumerate(rows):
        pivot = next((j for j, w in enumerate(top) if w and j not in pivots), None)
        pivots.append(pivot)
        if pivot is None:
            continue
        lead = top[pivot]
        for row in rows[i + 1 :]:
            c = row[pivot]
            row[:] = [(lead * v - w * c) // prev for v, w in zip(row, top)]
            row[pivot] = c
        prev = lead
    return pivots


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of integer rows, the pivots of :func:`eliminate` on a copy."""
    ints = [list(row) for row in rows]
    if any(len(row) != len(ints[0]) for row in ints):
        raise ValueError("ragged matrix")
    return sum(pivot is not None for pivot in eliminate(ints))
