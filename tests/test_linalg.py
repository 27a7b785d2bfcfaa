"""Exact rank of integer rows."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rbx import linalg


def test_rank_full():
    assert linalg.rank([[1, 1], [0, 1]]) == 2
    assert linalg.rank([[0, 1], [1, 0]]) == 2  # the first row pivots on the last column


def test_rank_deficient():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 2, 0], [2, 4, 0], [0, 0, 1]]) == 2  # a dependent row between


def test_rank_rectangular():
    assert linalg.rank([[1, 0, 2], [0, 1, 3]]) == 2
    assert linalg.rank([]) == 0
    assert linalg.rank([[]]) == 0
    assert linalg.rank([[], []]) == 0


# -- differential tests against a plain Fraction Gauss elimination -------------

def ref_gauss(rows):
    """Rank by textbook Gaussian elimination over Fraction."""
    mat = [[Fraction(c) for c in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, nrows):
            factor = mat[i][col] / mat[r][col]
            for j in range(col, ncols):
                mat[i][j] -= factor * mat[r][j]
        r += 1
    return r


def scaled(rows):
    """Each rational row as integers over the lcm of its denominators."""
    out = []
    for row in rows:
        den = math.lcm(*(Fraction(c).denominator for c in row))
        out.append([int(c * den) for c in row])
    return out


# zero-heavy, so that pivots are missing and rows need swapping
entries = st.integers(-50, 50) | st.just(0)


def grids(nrows, ncols):
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


dims = st.integers(1, 6)
matrices = st.tuples(dims, dims).flatmap(lambda shape: grids(*shape))


@st.composite
def low_rank_matrices(draw):
    # a product (n x k)(k x m) has rank at most k
    n, m = draw(dims), draw(dims)
    k = draw(st.integers(0, min(n, m)))
    left, right = draw(grids(n, k)), draw(grids(k, m))
    return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


@given(matrices | low_rank_matrices())
def test_rank_matches_reference(rows):
    assert linalg.rank(rows) == ref_gauss(rows)


def greedy_columns(rows):
    """The columns independent of the columns before them, by the Fraction reference."""
    cols = [list(col) for col in zip(*rows)]
    return [j for j in range(len(cols)) if ref_gauss(cols[: j + 1]) > ref_gauss(cols[:j])]


@given(dims, dims, st.data())
def test_eliminate_pivots_are_the_greedy_columns(nrows, ncols, data):
    """A dependent row between independent ones gets None; the other pivots are the greedy columns."""
    rows = data.draw(grids(nrows, ncols))
    k = data.draw(st.integers(1, nrows))
    weights = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    rows.insert(k, [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(ncols)])
    pivots = linalg.eliminate([list(row) for row in rows])
    assert pivots[k] is None
    assert sorted(p for p in pivots if p is not None) == greedy_columns(rows)
    assert pivots.count(None) == len(rows) - ref_gauss(rows)


def test_eliminate_keeps_the_multiple_in_the_pivot_column():
    rows = [[2, 3], [4, 5], [6, 9]]
    assert linalg.eliminate(rows) == [0, 1, None]
    # row 1 keeps 4 and gets 2*5 - 3*4; row 2, three times row 0, ends zero in column 1,
    # and its column 0 is det [[6, 9], [4, 5]], row 0 of the pivot block replaced by its own
    assert rows == [[2, 3], [4, -2], [-6, 0]]


def test_random_rank_deficient_and_rectangular():
    rng = random.Random(7)
    for _ in range(200):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(m)] for _ in range(n)
        ]
        # repeat a scaled row and zero a column now and then
        if n > 1 and rng.random() < 0.5:
            rows[-1] = [c * rng.randint(-3, 3) for c in rows[0]]
        if rng.random() < 0.3:
            col = rng.randrange(m)
            for row in rows:
                row[col] = Fraction(0)
        assert linalg.rank(scaled(rows)) == ref_gauss(rows)


@pytest.mark.parametrize("n", range(1, 12))
def test_hilbert_matrices(n):
    mat = [[Fraction(1, i + j + 1) for i in range(n)] for j in range(n)]
    assert linalg.rank(scaled(mat)) == ref_gauss(mat) == n


def test_ragged_raises():
    with pytest.raises(ValueError, match="ragged"):
        linalg.rank([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged"):
        linalg.rank([[1], [2, 3]])


def test_rank_leaves_its_rows_alone():
    rows = [[0, 2, 4], [3, 1, 1], [6, 2, 2]]
    copy = [list(row) for row in rows]
    assert linalg.rank(rows) == 2 and rows == copy


@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_integer_rows_match_fraction_rows(nrows, ncols, data):
    """Integer rows, the same rows as Fractions, and rows divided by a per-row scale agree."""
    ints = data.draw(st.lists(
        st.lists(st.integers(-(2**40), 2**40) | st.integers(-2, 2), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows,
    ))
    scales = data.draw(st.lists(st.integers(1, 12), min_size=nrows, max_size=nrows))
    divided = [[Fraction(c, k) for c in row] for row, k in zip(ints, scales)]
    assert scaled([[Fraction(c) for c in row] for row in ints]) == ints
    assert linalg.rank(ints) == ref_gauss(ints) == linalg.rank(scaled(divided)) == ref_gauss(divided)
