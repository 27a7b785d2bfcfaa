"""Exact rank and determinant over the rationals."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rbx import linalg


def test_rank_full():
    assert linalg.rank([[1, 1], [0, 1]]) == 2


def test_rank_deficient():
    assert linalg.rank([[1, 2], [2, 4]]) == 1


def test_rank_rectangular():
    assert linalg.rank([[1, 0, 2], [0, 1, 3]]) == 2
    assert linalg.rank([]) == 0
    assert linalg.rank([[]]) == 0
    assert linalg.rank([[], []]) == 0


def test_det_known():
    assert linalg.det([[1, 2], [3, 4]]) == -2
    assert linalg.det([[Fraction(1, 2)]]) == Fraction(1, 2)


def test_det_singular():
    assert linalg.det([[1, 2], [2, 4]]) == 0


def test_det_swap_sign():
    assert linalg.det([[0, 1], [1, 0]]) == -1


def test_det_not_square():
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1], [2]], [[]]):
        with pytest.raises(ValueError, match="square"):
            linalg.det(rows)


def test_det_empty_is_one():
    assert linalg.det([]) == 1


def test_reciprocal_sum_matrix_exact():
    # size 4: known exact determinant 1/6048000
    mat = [[Fraction(1, i + j + 1) for i in range(4)] for j in range(4)]
    assert linalg.det(mat) == Fraction(1, 6048000)


# -- differential tests against a plain Fraction Gauss elimination -------------

def ref_gauss(rows):
    """(rank, determinant or None) by textbook Gaussian elimination over Fraction."""
    mat = [[Fraction(c) for c in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    r, d = 0, Fraction(1)
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][col] != 0), None)
        if pivot is None:
            d = Fraction(0)
            continue
        if pivot != r:
            mat[r], mat[pivot] = mat[pivot], mat[r]
            d = -d
        d *= mat[r][col]
        for i in range(r + 1, nrows):
            factor = mat[i][col] / mat[r][col]
            for j in range(col, ncols):
                mat[i][j] -= factor * mat[r][j]
        r += 1
        if r == nrows:
            break
    return r, (d if nrows == ncols else None)


entries = st.fractions(min_value=-50, max_value=50, max_denominator=30)


def grids(nrows, ncols):
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


dims = st.integers(1, 6)
matrices = st.tuples(dims, dims).flatmap(lambda shape: grids(*shape))
square_matrices = dims.flatmap(lambda n: grids(n, n))


@st.composite
def low_rank_matrices(draw, square=False):
    # a product (n x k)(k x m) has rank at most k
    n = draw(dims)
    m = n if square else draw(dims)
    k = draw(st.integers(0, min(n, m)))
    left, right = draw(grids(n, k)), draw(grids(k, m))
    return [
        [sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


@given(matrices | low_rank_matrices())
def test_rank_matches_reference(rows):
    assert linalg.rank(rows) == ref_gauss(rows)[0]


@given(square_matrices | low_rank_matrices(square=True))
def test_det_matches_reference(rows):
    assert linalg.det(rows) == ref_gauss(rows)[1]


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
        assert linalg.rank(rows) == ref_gauss(rows)[0]
        if n == m:
            assert linalg.det(rows) == ref_gauss(rows)[1]


def hilbert_det(n):
    # det H_n = c_n**4 / c_{2n} with c_n = prod_{i < n} i!
    def c(k):
        return math.prod(math.factorial(i) for i in range(1, k))
    return Fraction(c(n) ** 4, c(2 * n))


@pytest.mark.parametrize("n", range(1, 12))
def test_hilbert_matrices(n):
    mat = [[Fraction(1, i + j + 1) for i in range(n)] for j in range(n)]
    assert linalg.det(mat) == hilbert_det(n) == ref_gauss(mat)[1]
    assert linalg.rank(mat) == n


def test_ragged_raises():
    with pytest.raises(ValueError, match="ragged"):
        linalg.rank([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged"):
        linalg.det([[1, 2], [3]])


@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_integer_rows_match_fraction_rows(nrows, ncols, data):
    """Integer rows and the same rows as Fractions, or divided by a per-row scale, agree."""
    ints = data.draw(st.lists(
        st.lists(st.integers(-(2**40), 2**40) | st.integers(-2, 2), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows,
    ))
    scales = data.draw(st.lists(st.integers(1, 12), min_size=nrows, max_size=nrows))
    fracs = [[Fraction(c) for c in row] for row in ints]
    divided = [[Fraction(c, k) for c in row] for row, k in zip(ints, scales)]
    assert linalg._copy(fracs) == (ints, 1)
    pivots, det = linalg._eliminate([list(row) for row in ints])
    rank, ref_det = ref_gauss(ints)
    assert len(pivots) == rank == linalg.rank(fracs) == linalg.rank(divided)
    assert pivots == linalg._eliminate(linalg._copy(divided)[0])[0]
    if nrows == ncols:
        assert det == ref_det == linalg.det(fracs)
        assert linalg.det(divided) == Fraction(det, math.prod(scales))
