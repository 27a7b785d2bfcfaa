"""Word synthesis: fiber moves, diagonalization, bridging and the full solvers."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hypothesis import assume, given, settings, strategies as st

from rbx import linalg, selftest, transitivity
from rbx.actions import Dilate, Shear, ShearSquared, Translate, apply_word, apply_word_tuple
from rbx.operators import AnalyticOp
from rbx.poly import DuplicateAbscissa, Poly
from rbx.transitivity import (
    BasePointMismatch,
    DuplicateOperators,
    LinearlyDependent,
    VerificationFailed,
    _between,
    _bridge_tuple,
    _DiagonalTuple,
    _diagonalize_tuple,
    _fiber_move,
    _independent,
    solve_distinct_tuple,
    solve_single,
    solve_tuple_independent,
)
from test_linalg import greedy_columns, ref_gauss
from test_poly import ref_lagrange
from random_values import random_poly, random_rat


def coefficient_rank(rs):
    """Rank of the multipliers' coefficient rows, by the Fraction reference."""
    width = max(len(r.num) for r in rs)
    return ref_gauss([[r.coeff(j) for j in range(width)] for r in rs])


def random_independent(rng, m, a):
    while True:
        ops = [AnalyticOp(a, random_poly(rng, m + 1)) for _ in range(m)]
        if coefficient_rank([op.r for op in ops]) == m:
            return ops


def assert_diagonal(diag):
    """The pattern the staging builds and does not re-check: r_i(b_j) = c_i * delta_ij.

    The points are pairwise distinct, the values nonzero, and the members
    share one base point.  Returns ``diag``.
    """
    m = len(diag.ops)
    assert len(diag.base_points) == len(diag.values) == m
    assert len(set(diag.base_points)) == m, "base points must be pairwise distinct"
    assert all(diag.values), "diagonal values must be nonzero"
    assert len({op.a for op in diag.ops}) == 1, "members must share one base point"
    for i, op in enumerate(diag.ops):
        for j, b in enumerate(diag.base_points):
            e = diag.values[i] if i == j else 0
            assert op.r(b) == e, f"member {i} evaluates to {op.r(b)} at point {j}, expected {e}"
    return diag


small_polys = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=2), max_size=5
).map(lambda cs: Poly(tuple(cs)))
nonzero_polys = small_polys.filter(bool)


class TestFiberMove:
    def test_shear_direction_from_difference(self):
        src = AnalyticOp(0, Poly((1, 1)))
        dst = AnalyticOp(0, Poly((1, 0, 1)))
        gen = _fiber_move(src, dst, 0)
        assert gen.s == Poly((0, -1, 1))
        assert gen.apply(src) == dst

    def test_identity_move(self):
        op = AnalyticOp(1, Poly((2, 1)))
        gen = _fiber_move(op, op, 0)
        assert gen.s == Poly.zero()
        assert gen.apply(op) == op


class TestSolveSingle:
    def test_self(self):
        op = AnalyticOp(1, Poly((1, 2)))
        word = solve_single(op, op)
        assert apply_word(word, op) == op

    def test_concrete_pairs(self):
        pairs = [
            (AnalyticOp(0, Poly.one()), AnalyticOp(0, Poly((1, 1)))),
            (AnalyticOp(1, Poly.x()), AnalyticOp(-2, Poly((1, 0, 3)))),
        ]
        for op1, op2 in pairs:
            word = solve_single(op1, op2)
            assert apply_word(word, op1) == op2
            assert len(word) <= 3

    def test_random_pairs(self):
        rng = random.Random(61)
        for _ in range(25):
            op1 = AnalyticOp(random_rat(rng), random_poly(rng, 6))
            op2 = AnalyticOp(random_rat(rng), random_poly(rng, 6))
            word = solve_single(op1, op2)
            assert apply_word(word, op1) == op2
            assert len(word) <= 3

    @settings(deadline=None, max_examples=150)
    @given(
        st.fractions(min_value=-2, max_value=2, max_denominator=3), nonzero_polys,
        st.fractions(min_value=-2, max_value=2, max_denominator=3), nonzero_polys,
    )
    def test_matches_direct_construction(self, a1, r1, a2, r2):
        # where the direct rule (both multipliers nonzero at both points) and
        # the tuple rule (r1(p) != 0, then r2(q) != 0) pick the same points,
        # the one-member tuple word is the direct gamma-shear word
        op1, op2 = AnalyticOp(a1, r1), AnalyticOp(a2, r2)
        moved = apply_word([Translate(a1 - a2)], op1).r if a1 != a2 else r1
        points = direct_points(moved, r2)
        first = next(b for b in SCAN if moved(b))
        assume(points == (first, next(b for b in SCAN if b != first and r2(b))))
        assert solve_single(op1, op2) == ref_single_word(op1, op2, *points)

    def test_wrong_word_raises_under_optimize(self):
        # the final checks are not asserts: python -O must still reject a bad
        # word from every public solver
        import rbx

        script = "\n".join([
            "import sys",
            "from rbx import actions, transitivity",
            "from rbx.operators import AnalyticOp",
            "from rbx.poly import Poly",
            "consts = [AnalyticOp(0, Poly.one()), AnalyticOp(0, Poly.constant(2))]",
            "monos = [AnalyticOp(0, Poly.x()), AnalyticOp(0, Poly.monomial(2))]",
            "degenerate = [AnalyticOp(0, Poly(cs)) for cs in",
            "              ((-6, 4, -4), (-3, 0, -6), (-4, 8, -8), (-5, 4, -6))]",
            "cases = [",
            "    ('single', '_fiber_move', lambda src, dst, b: actions.Shear(b, Poly((-b, 1))),",
            "     lambda: transitivity.solve_single(monos[0], AnalyticOp(1, Poly((2, 0, 1))))),",
            "    ('independent', 'inverse_word', lambda word: (),",
            "     lambda: transitivity.solve_tuple_independent([consts[0], monos[0]], monos)),",
            "    ('rank-step', 'ShearSquared', lambda b, s: actions.ShearSquared(b, Poly.zero()),",
            "     lambda: transitivity.solve_distinct_tuple(consts, monos)),",
            "    ('fallback', 'Shear', lambda b, s: actions.Shear(b, Poly.zero()),",
            "     lambda: transitivity.solve_distinct_tuple(degenerate, degenerate)),",
            "    ('distinct', 'inverse_word', lambda word: (),",
            "     lambda: transitivity.solve_distinct_tuple(consts, monos)),",
            "]",
            "for case, name, broken, solve in cases:",
            "    saved = getattr(transitivity, name)",
            "    setattr(transitivity, name, broken)",
            "    try:",
            "        solve()",
            "    except transitivity.VerificationFailed:",
            "        print('optimize', sys.flags.optimize, 'raised', case)",
            "    finally:",
            "        setattr(transitivity, name, saved)",
        ])
        src = str(Path(rbx.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"optimize 1 raised {case}"
            for case in ("single", "independent", "rank-step", "fallback", "distinct")
        ]


def direct_points(r1, r2):
    """The two smallest non-negative integers where neither multiplier vanishes."""
    candidates = range(len(r1.num) + len(r2.num))
    return tuple(Fraction(b) for b in candidates if r1(b) and r2(b))[:2]


def ref_single_word(op1, op2, first, second):
    """The direct single-operator word at two given points; no shared code with the solvers.

    A translation aligns the base points, a shear at ``first`` along
    gamma * (x - first) matches the multiplier value at ``second``, and a
    fiber move at ``second`` finishes.  A shear with a zero direction is left
    out.
    """
    word = [Translate(op1.a - op2.a)] if op1.a != op2.a else []
    r1, r2 = apply_word(word, op1).r, op2.r
    gamma = (r2(second) - r1(second)) / (r1(first) * (second - first))
    word.append(Shear(first, Poly((-first, 1)) * gamma))
    moved = apply_word(word, op1).r
    word.append(Shear(second, (r2 - moved) * (1 / r2(second))))
    return tuple(gen for gen in word if not isinstance(gen, Shear) or gen.s)


def ref_select_basepoints(rs, avoid=()):
    """Points 0, 1, -1, 2, -2, ... outside ``avoid`` kept while they raise the rank of the evaluation columns."""
    points, t = [], 0
    while len(points) < len(rs):
        trial = [[r(b) for b in points + [t]] for r in rs]
        if t not in avoid and ref_gauss(trial) > len(points):
            points.append(t)
        t = -t if t > 0 else 1 - t
    return points


def scan_order(b):
    return abs(b), b < 0


def picked_points(rs, avoid=()):
    """The points ``_diagonalize_tuple`` diagonalises at, in scan order."""
    _, diag = _diagonalize_tuple([AnalyticOp(0, r) for r in rs], avoid)
    return sorted(assert_diagonal(diag).base_points, key=scan_order)


class TestSelectBasepoints:
    """``_diagonalize_tuple`` picks the greedy scan points outside ``avoid``."""

    @given(st.lists(nonzero_polys, min_size=1, max_size=4))
    def test_matches_greedy_reference(self, rs):
        if coefficient_rank(rs) < len(rs):
            with pytest.raises(LinearlyDependent):
                picked_points(rs)
        else:
            assert picked_points(rs) == ref_select_basepoints(rs)

    @given(st.lists(nonzero_polys, min_size=1, max_size=4), st.lists(st.integers(0, 8), max_size=6))
    def test_avoided_points_are_skipped(self, rs, avoid):
        if coefficient_rank(rs) < len(rs):
            with pytest.raises(LinearlyDependent):
                picked_points(rs, avoid)
            return
        points = picked_points(rs, avoid)
        assert len(set(points)) == len(rs)
        assert not set(points) & set(avoid)
        assert ref_gauss([[r(b) for b in points] for r in rs]) == len(rs)
        assert points == ref_select_basepoints(rs, avoid)

    def test_unit_and_x(self):
        assert picked_points([Poly.one(), Poly.x()]) == [0, 1]
        assert picked_points([Poly.one(), Poly.x()], (0, 1)) == [-1, 2]

    def test_single_with_root_at_origin(self):
        assert picked_points([Poly.one()]) == [0]
        assert picked_points([Poly.x()]) == [1]
        assert picked_points([Poly((0, -2, 1))]) == [1]  # x(x-2): 0 and 2 are roots

    def test_dependent_rejected(self):
        with pytest.raises(LinearlyDependent):
            picked_points([Poly.x(), Poly((0, 2))])

    def test_matrix_invertible(self):
        rng = random.Random(67)
        for m in (1, 2, 3):
            rs = [op.r for op in random_independent(rng, m, Fraction(0))]
            points = picked_points(rs)
            matrix = [[r(b) for b in points] for r in rs]
            assert ref_gauss(matrix) == m


@given(st.integers(1, 5), st.integers(0, 3), st.data())
def test_row_order_pivots_are_the_greedy_pivots(m, extra, data):
    """``linalg.eliminate``, each row pivoting on its first untaken nonzero column after the
    column steps of the rows above, picks the columns independent of the columns before them:
    the points of ``_diagonalize_tuple``."""
    width = m + extra
    entry = st.sampled_from([0, 0, 0, 1, -1]) | st.integers(-9, 9)
    rows = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=m, max_size=m))
    greedy = greedy_columns(rows)
    pivots = linalg.eliminate([list(row) for row in rows])
    if None in pivots:
        assert len(greedy) < m
    else:
        assert sorted(pivots) == greedy


class TestDiagonalize:
    def test_triangular_matrix_needs_one_operation(self):
        ops = [AnalyticOp(0, Poly((2, 1))), AnalyticOp(0, Poly((0, 1)))]
        # evaluation matrix at (0,1) is [[2,3],[0,1]]: one column op clears it
        word, diag = _diagonalize_tuple(ops)
        assert_diagonal(diag)
        assert len(word) == 1
        assert apply_word_tuple(word, ops) == list(diag.ops)

    def test_empty_word_for_diagonal_matrix(self):
        ops = [AnalyticOp(0, Poly((1, -1))), AnalyticOp(0, Poly((0, 1)))]
        # values at (0,1): r1 -> (1, 0), r2 -> (0, 1)
        word, diag = _diagonalize_tuple(ops)
        assert_diagonal(diag)
        assert word == ()
        assert diag.base_points == (0, 1)

    def test_unit_and_x_multipliers(self):
        ops = [AnalyticOp(0, Poly.one()), AnalyticOp(0, Poly.x())]
        word, diag = _diagonalize_tuple(ops)
        assert_diagonal(diag)
        moved = apply_word_tuple(word, ops)
        assert list(diag.ops) == moved
        for i, op in enumerate(moved):
            for j, b in enumerate(diag.base_points):
                assert op.r(b) == (diag.values[i] if i == j else 0)

    def test_base_point_component_fixed(self):
        rng = random.Random(71)
        for m in (2, 3):
            ops = random_independent(rng, m, Fraction(1, 2))
            word, diag = _diagonalize_tuple(ops)
            assert_diagonal(diag)
            assert all(op.a == Fraction(1, 2) for op in diag.ops)

    def test_random_instances(self):
        rng = random.Random(73)
        for _ in range(5):
            ops = random_independent(rng, 3, random_rat(rng))
            word, diag = _diagonalize_tuple(ops)
            assert_diagonal(diag)
            assert apply_word_tuple(word, ops) == list(diag.ops)


class TestNodeSetPerDiagonalisation:
    """``_diagonalize_tuple`` builds one node set for all its shears, and none without a shear."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = []
        real = transitivity._nodes
        monkeypatch.setattr(transitivity, "_nodes", lambda xs: count.append(xs) or real(xs))
        return count

    def test_one_member_builds_none(self, builds):
        word, diag = _diagonalize_tuple([AnalyticOp(0, Poly((1, 2, 3)))])
        assert_diagonal(diag)
        assert word == () and builds == []

    def test_shears_share_one(self, builds):
        ops = [AnalyticOp(0, Poly(cs)) for cs in ((-2, -1), (-1, -3), (-1, 0, -1))]
        word, diag = _diagonalize_tuple(ops, (-1,))  # at 0, 1 and 2
        assert_diagonal(diag)
        assert len(word) == 3 and len(builds) == 1


class TestSingularPattern:
    # points: the scan points the diagonalisation must avoid
    @pytest.mark.parametrize(
        "rs,points",
        [
            # a multiple of a member
            ((Poly.x(), Poly((0, 2))), (0, 1)),
            # a row that the elimination empties: the third is the second minus the first
            ((Poly.one(), Poly.monomial(2), Poly((-1, 0, 1))), (-1, 1)),
        ],
    )
    def test_raises_linearly_dependent(self, rs, points):
        ops = [AnalyticOp(0, r) for r in rs]
        with pytest.raises(LinearlyDependent):
            _diagonalize_tuple(ops, points)

    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_raises_exactly_when_singular(self, data):
        m = data.draw(st.integers(1, 4))
        rs = data.draw(st.lists(small_int_polys.filter(bool), min_size=m, max_size=m))
        avoid = data.draw(st.lists(st.integers(-3, 3), max_size=m, unique=True))
        ops = [AnalyticOp(0, r) for r in rs]
        if coefficient_rank(rs) < m:
            with pytest.raises(LinearlyDependent):
                _diagonalize_tuple(ops, avoid)
        else:
            word, diag = _diagonalize_tuple(ops, avoid)
            assert_diagonal(diag)
            assert apply_word_tuple(word, ops) == list(diag.ops)
            assert not set(diag.base_points) & set(avoid)


def ref_diagonalize(ops, points):
    """Column elimination on the Fraction evaluation matrix: the word, pivot points and diagonal values."""
    m = len(ops)
    matrix = [[op.r(b) for b in points] for op in ops]
    word, used = [], []
    for i in range(m):
        pivot = next(j for j in range(m) if j not in used and matrix[i][j] != 0)
        lams = [0 if j == pivot else -v / matrix[i][pivot] for j, v in enumerate(matrix[i])]
        if any(lams):
            word.append(Shear(points[pivot], Poly(tuple(ref_lagrange(list(zip(points, lams)))))))
            matrix = [[v + lam * row[pivot] for v, lam in zip(row, lams)] for row in matrix]
        used.append(pivot)
    return (
        tuple(word),
        tuple(points[p] for p in used),
        tuple(matrix[i][p] for i, p in enumerate(used)),
    )


# small integers, so that evaluation matrices have zero entries, and large
# numerators over large denominators, either sign
mixed_rats = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**60)),
)


class TestDiagonalizeMatchesReference:
    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_random_independent_tuples(self, data):
        m = data.draw(st.integers(1, 5))
        rs = data.draw(
            st.lists(
                st.lists(mixed_rats, min_size=1, max_size=m + 1).map(lambda cs: Poly(tuple(cs))),
                min_size=m, max_size=m,
            )
        )
        assume(all(rs))
        assume(coefficient_rank(rs) == m)
        a = data.draw(mixed_rats)
        ops = [AnalyticOp(a, r) for r in rs]
        avoid = data.draw(st.lists(st.integers(-3, 3), max_size=m, unique=True))
        self.check(ops, avoid)

    def test_negative_pivots(self):
        # every pivot is negative, and each row needs its shear
        ops = [AnalyticOp(0, Poly(cs)) for cs in ((-2, -1), (-1, -3), (-1, 0, -1))]
        for avoid in ([-1], [0, 1]):
            word, diag = self.check(ops, avoid)
            assert len(word) == 3 and all(c < 0 for c in diag.values)

    @staticmethod
    def check(ops, avoid):
        word, diag = _diagonalize_tuple(ops, avoid)
        assert_diagonal(diag)
        points = ref_select_basepoints([op.r for op in ops], avoid)
        assert (word, diag.base_points, diag.values) == ref_diagonalize(ops, points)
        return word, diag


half, two_thirds = Fraction(1, 2), Fraction(2, 3)


class TestDiagonalPatternCheck:
    """``assert_diagonal`` refuses every tuple off its pattern r_i(b_j) = c_i * delta_ij."""

    # (points, multipliers, values): diagonal at integer and at non-integer points
    INTEGER = ((0, 1), (Poly((1, -1)), Poly((0, 2))), (1, 2))
    FRACTIONAL = (
        (half, -two_thirds),
        (Poly((two_thirds, 1)), Poly((-Fraction(3, 2), 3))),
        (Fraction(7, 6), Fraction(-7, 2)),
    )

    @staticmethod
    def build(points, rs, values):
        ops = tuple(AnalyticOp(0, r) for r in rs)
        return assert_diagonal(
            _DiagonalTuple(tuple(map(Fraction, points)), tuple(map(Fraction, values)), ops)
        )

    @pytest.mark.parametrize("case", [INTEGER, FRACTIONAL], ids=["integer", "fractional"])
    def test_accepts_the_pattern(self, case):
        assert self.build(*case).values == tuple(map(Fraction, case[2]))

    @pytest.mark.parametrize("case", [INTEGER, FRACTIONAL], ids=["integer", "fractional"])
    @pytest.mark.parametrize("member", [0, 1])
    def test_rejects_a_diagonal_value_off_by_one(self, case, member):
        points, rs, values = case
        values = tuple(Fraction(c) + (i == member) for i, c in enumerate(values))
        with pytest.raises(AssertionError, match="evaluates to"):
            self.build(points, rs, values)

    @pytest.mark.parametrize("case", [INTEGER, FRACTIONAL], ids=["integer", "fractional"])
    def test_rejects_a_nonzero_off_diagonal_entry(self, case):
        points, (r0, r1), values = case
        # r1 + 1/5 keeps its diagonal value up to the shift, which the values follow,
        # and no longer vanishes at points[0]
        bumped = r1 + Poly.constant(Fraction(1, 5))
        values = (values[0], Fraction(values[1]) + Fraction(1, 5))
        with pytest.raises(AssertionError, match="member 1 evaluates to 1/5 at point 0"):
            self.build(points, (r0, bumped), values)


class TestBridge:
    def test_single_member(self):
        src = _DiagonalTuple((0,), (Fraction(1),), (AnalyticOp(2, Poly.one()),))
        word, out = _bridge_tuple(src, [1], [Fraction(1)])
        assert_diagonal(out)
        assert out.ops[0].r == Poly.one()  # interpolation through (0,1),(1,1)
        assert apply_word_tuple(word, list(src.ops)) == list(out.ops)

    def test_destination_pattern_checked_on_the_result(self):
        # repeated destination points are refused by the node set, which
        # interpolates at them; the solvers never pass any
        ops = (AnalyticOp(0, Poly((1, -1))), AnalyticOp(0, Poly((0, 2))))
        src = assert_diagonal(_DiagonalTuple((0, 1), (Fraction(1), Fraction(2)), ops))
        with pytest.raises(DuplicateAbscissa):
            _bridge_tuple(src, [2, 2], [Fraction(1), Fraction(1)])

    def test_two_members(self):
        rng = random.Random(79)
        for _ in range(5):
            ops = random_independent(rng, 2, Fraction(0))
            _, diag = _diagonalize_tuple(ops)
            assert_diagonal(diag)
            fresh = [b for b in (5, 6, 7) if b not in diag.base_points][:2]
            word, out = _bridge_tuple(diag, fresh, [Fraction(2), Fraction(3)])
            assert_diagonal(out)
            assert apply_word_tuple(word, list(diag.ops)) == list(out.ops)
            assert out.base_points == tuple(fresh)
            assert out.values == (2, 3)


class TestBridgeCorrection:
    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_targets_hit_both_patterns_along_low_degree_directions(self, data):
        m = data.draw(st.integers(1, 4))
        rs = data.draw(st.lists(small_int_polys.filter(bool), min_size=m, max_size=m))
        # one member of degree above 2m, past the bound on the bridge directions
        rs[0] = rs[0] + Poly.monomial(2 * m + data.draw(st.integers(1, 3)))
        assume(coefficient_rank(rs) == m)
        a = data.draw(st.integers(-2, 2))
        ops = [AnalyticOp(a, r) for r in rs]
        _, src = _diagonalize_tuple(ops)
        assert_diagonal(src)
        free = [b for b in SCAN[:12] if b not in src.base_points]
        dst_points = data.draw(st.lists(st.sampled_from(free), min_size=m, max_size=m, unique=True))
        dst_values = data.draw(
            st.lists(st.fractions(-5, 5, max_denominator=4).filter(bool), min_size=m, max_size=m)
        )
        word, out = _bridge_tuple(src, dst_points, dst_values)
        assert_diagonal(out)
        for k, target in enumerate(out.ops):
            assert [target.r(p) for p in src.base_points] == [
                src.values[k] if j == k else 0 for j in range(m)
            ]
            assert [target.r(q) for q in dst_points] == [
                dst_values[k] if j == k else 0 for j in range(m)
            ]
        assert apply_word_tuple(word, list(src.ops)) == list(out.ops)
        assert len(word) <= m
        for gen in word:
            assert type(gen) is Shear and gen.b in src.base_points
            assert gen.s.degree <= 2 * m - 1
            assert all(gen.s(p) == 0 for p in src.base_points)


class TestSolveTupleIndependent:
    def test_single_member(self):
        word = solve_tuple_independent(
            [AnalyticOp(0, Poly.one())], [AnalyticOp(0, Poly((1, 1)))]
        )
        assert apply_word_tuple(word, [AnalyticOp(0, Poly.one())]) == [
            AnalyticOp(0, Poly((1, 1)))
        ]
        # the bridge target through (0, 1) and (1, 2) is the destination itself,
        # so the bridge's one fiber move is the whole word
        assert len(word) == 1

    def test_shifted_constants(self):
        src = [AnalyticOp(0, Poly.one()), AnalyticOp(0, Poly.x())]
        dst = [AnalyticOp(0, Poly((1, 1))), AnalyticOp(0, Poly((-1, 1)))]
        word = solve_tuple_independent(src, dst)
        assert apply_word_tuple(word, src) == dst

    def test_random_triples(self):
        rng = random.Random(83)
        for _ in range(5):
            a = random_rat(rng)
            src = random_independent(rng, 3, a)
            dst = random_independent(rng, 3, a)
            word = solve_tuple_independent(src, dst)
            assert apply_word_tuple(word, src) == dst
            # one shear per row per diagonalisation, m in the bridge and m fiber moves
            assert len(word) <= 4 * 3

    def test_dependent_rejected(self):
        pair = [AnalyticOp(0, Poly.x()), AnalyticOp(0, Poly((0, 2)))]
        with pytest.raises(LinearlyDependent):
            solve_tuple_independent(pair, pair)
        # an independent source does not let a dependent destination through
        independent = [AnalyticOp(0, Poly.one()), AnalyticOp(0, Poly.x())]
        with pytest.raises(LinearlyDependent):
            solve_tuple_independent(independent, pair)

    def test_mixed_base_points_rejected(self):
        with pytest.raises(BasePointMismatch):
            solve_tuple_independent(
                [AnalyticOp(0, Poly.one())], [AnalyticOp(1, Poly.one())]
            )

    def test_destination_points_avoid_the_source_points(self, monkeypatch):
        seen = []
        diagonalize = transitivity._diagonalize_tuple

        def recording(ops, avoid=()):
            word, diag = diagonalize(ops, avoid)
            seen.append(sorted(diag.base_points, key=scan_order))
            return word, diag

        monkeypatch.setattr(transitivity, "_diagonalize_tuple", recording)
        # both sides would pick 0 and 1 on their own
        pair = [AnalyticOp(0, Poly.one()), AnalyticOp(0, Poly.x())]
        assert apply_word_tuple(_between(pair, pair), pair) == pair
        assert seen == [[0, 1], [-1, 2]]
        rng = random.Random(113)
        for m in (1, 2, 3, 4):
            seen.clear()
            a = random_rat(rng)
            src = random_independent(rng, m, a)
            dst = random_independent(rng, m, a)
            solve_tuple_independent(src, dst)
            src_points, dst_points = seen
            assert not set(src_points) & set(dst_points)


def independent(ops):
    """The word of ``_independent``, once its images are checked against the replay."""
    word, images = _independent(ops)
    assert apply_word_tuple(word, ops) == images
    return word


class TestMakeIndependent:
    """``_independent``, the step of ``solve_distinct_tuple`` that makes a tuple independent."""

    def test_already_independent(self):
        ops = [AnalyticOp(0, Poly.one()), AnalyticOp(0, Poly.x())]
        assert independent(ops) == ()

    def test_two_dependent_constants(self):
        ops = [AnalyticOp(0, Poly.one()), AnalyticOp(0, Poly.constant(2))]
        word = independent(ops)
        moved = apply_word_tuple(word, ops)
        assert _rank(moved) == 2

    def test_three_with_sum_relation(self):
        ops = [
            AnalyticOp(0, Poly.one()),
            AnalyticOp(0, Poly.x()),
            AnalyticOp(0, Poly((1, 1))),
        ]
        word = independent(ops)
        assert _rank(apply_word_tuple(word, ops)) == 3

    def test_duplicates_rejected(self):
        op = AnalyticOp(0, Poly.one())
        with pytest.raises(DuplicateOperators):
            independent([op, op])

    def test_dependent_no_constant_term(self):
        # last member x + x^2: q = x^2 + x^4 - (x + x^2)^2 = -2x^3 vanishes at 0,
        # so the squared shear along x^3 - 1 at 1 raises the rank
        ops = [AnalyticOp(0, r) for r in (Poly.one(), Poly.x(), Poly.monomial(2), Poly((0, 1, 1)))]
        assert independent(ops) == (ShearSquared(1, Poly((-1, 0, 0, 1))),)

    def test_probes_at_zero_and_one_degenerate(self):
        # last member 2x - x^2: q = 2x^2 - x^4 - (2x - x^2)^2 = -2x^2 (1 - x)^2
        # vanishes at 0 and 1, so the scan goes on to -1
        ops = [AnalyticOp(0, r) for r in (Poly.one(), Poly.x(), Poly.monomial(2), Poly((0, 2, -1)))]
        assert independent(ops) == (ShearSquared(-1, Poly((1, 0, 0, 1))),)

    def test_scan_passes_minus_one(self):
        # last member 3x - 2x^3: q = -6x^2 (1 - x^2)^2 vanishes at 0, 1 and -1,
        # so the scan goes on to 2, along x^4 - 16
        ops = [
            AnalyticOp(0, r)
            for r in (Poly.one(), Poly.x(), Poly.monomial(2), Poly.monomial(3), Poly((0, 3, 0, -2)))
        ]
        assert independent(ops) == (ShearSquared(2, Poly((-16, 0, 0, 0, 1))),)

    def test_random_dependent_tuples(self):
        rng = random.Random(89)
        for m in (2, 3, 4):
            for _ in range(5):
                a = random_rat(rng)
                ops = [AnalyticOp(a, random_poly(rng, m)) for _ in range(m)]
                scale = Fraction(0)
                while scale in (0, 1):
                    scale = random_rat(rng)
                ops[-1] = AnalyticOp(a, ops[0].r * scale)
                if len(set(ops)) < m:
                    continue
                word = independent(ops)
                assert word == ref_independence_word(ops)
                assert _rank(apply_word_tuple(word, ops)) == m
                assert all(isinstance(gen, ShearSquared) for gen in word)
                assert len(word) == m - _rank(ops)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_matches_brute_force_reference(self, data):
        # tuples of rank k <= m <= 5: k free members, the rest small integer
        # combinations of them
        m = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(1, m))
        free = data.draw(st.lists(small_int_polys, min_size=k, max_size=k))
        combos = data.draw(
            st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                     min_size=m - k, max_size=m - k)
        )
        rs = free + [sum((r * c for r, c in zip(free, cs)), Poly.zero()) for cs in combos]
        assume(all(rs) and len(set(rs)) == m)
        a = data.draw(st.integers(-2, 2))
        ops = [AnalyticOp(a, r) for r in rs]
        word = independent(ops)
        assert word == ref_independence_word(ops)
        if not any(type(gen) is Shear for gen in word):
            assert len(word) == m - _rank(ops)

    def test_degenerate_tuple_takes_a_plain_shear_first(self):
        # sum l_i r_i and sum l_i r_i^2 both vanish for l = (1/2, 1/3, 1/4, -1):
        # no squared shear alone raises the rank, so a plain shear comes first
        ops = [AnalyticOp(0, r) for r in DEGENERATE]
        assert _rank(ops) == 3
        for b in SCAN[:11]:
            for d in (3, 4):
                gen = ShearSquared(b, Poly.monomial(d) - Poly.constant(b**d))
                assert _rank(apply_word_tuple([gen], ops)) == 3
        word = independent(ops)
        assert [type(gen) for gen in word] == [Shear, ShearSquared]
        assert word == ref_independence_word(ops)
        assert _rank(apply_word_tuple(word, ops)) == 4

    def test_no_rank_step_raises(self, monkeypatch):
        # the proof says a plain shear always helps; a broken scan is refused
        monkeypatch.setattr(transitivity, "_squared_shear", lambda rs, rank: None)
        ops = [AnalyticOp(0, Poly.one()), AnalyticOp(0, Poly.constant(2))]
        with pytest.raises(VerificationFailed, match="no shear raises the rank"):
            independent(ops)


class TestSolveDistinct:
    def test_self(self):
        ops = [AnalyticOp(0, Poly.one()), AnalyticOp(0, Poly.constant(2))]
        word = solve_distinct_tuple(ops, ops)
        assert apply_word_tuple(word, ops) == ops

    def test_constants_to_monomials(self):
        src = [AnalyticOp(0, Poly.one()), AnalyticOp(0, Poly.constant(2))]
        dst = [AnalyticOp(0, Poly.x()), AnalyticOp(0, Poly.monomial(2))]
        word = solve_distinct_tuple(src, dst)
        assert apply_word_tuple(word, src) == dst

    def test_random_quadruples(self):
        rng = random.Random(97)
        for _ in range(3):
            a = random_rat(rng)
            src = _random_distinct(rng, 4, a)
            dst = _random_distinct(rng, 4, a)
            word = solve_distinct_tuple(src, dst)
            assert apply_word_tuple(word, src) == dst


TUPLE_SOLVERS = pytest.mark.parametrize(
    "solver", [solve_tuple_independent, solve_distinct_tuple], ids=["independent", "distinct"]
)


class TestBasePointCheckedOncePerCall:
    """Each tuple solver checks the one shared base point of its input once, before any staging."""

    @TUPLE_SOLVERS
    @pytest.mark.parametrize(
        "src_a,dst_a",
        [((0, 1), (0, 0)), ((0, 0), (0, 1)), ((1, 1), (0, 0))],
        ids=["within-source", "within-destination", "between"],
    )
    def test_mixed_base_points_raise(self, solver, src_a, dst_a):
        src = [AnalyticOp(a, r) for a, r in zip(src_a, (Poly.one(), Poly.x()))]
        dst = [AnalyticOp(a, r) for a, r in zip(dst_a, (Poly((1, 1)), Poly((-1, 1))))]
        with pytest.raises(BasePointMismatch, match="^operators must share one integration base point$"):
            solver(src, dst)

    @TUPLE_SOLVERS
    def test_lengths_checked_first(self, solver):
        with pytest.raises(ValueError, match="^tuples must have equal length$"):
            solver([AnalyticOp(0, Poly.one())], [AnalyticOp(1, Poly.one()), AnalyticOp(1, Poly.x())])

    def test_once_per_public_call(self, monkeypatch):
        calls = []
        check = transitivity._shared_base
        monkeypatch.setattr(transitivity, "_shared_base", lambda ops: calls.append(ops) or check(ops))
        src = [AnalyticOp(0, Poly.one()), AnalyticOp(0, Poly.constant(2))]
        dst = [AnalyticOp(0, Poly.x()), AnalyticOp(0, Poly.monomial(2))]
        counts = []
        for solve in (
            lambda: solve_tuple_independent(dst, dst[::-1]),
            lambda: solve_distinct_tuple(src, dst),
            # the translation lines the base points up: there is nothing to check
            lambda: solve_single(AnalyticOp(1, Poly.x()), dst[0]),
        ):
            calls.clear()
            solve()
            counts.append(len(calls))
        assert counts == [1, 1, 0]


def test_solvers_stage_diagonal_tuples(monkeypatch):
    # the staging checks nothing itself: every diagonal tuple that the three
    # solvers build must keep its pattern all the same
    staged = []
    for name in ("_diagonalize_tuple", "_bridge_tuple"):
        def checking(*args, _build=getattr(transitivity, name)):
            word, diag = _build(*args)
            staged.append(assert_diagonal(diag))
            return word, diag

        monkeypatch.setattr(transitivity, name, checking)
    rng = random.Random(131)
    degenerate = [AnalyticOp(0, r) for r in DEGENERATE]
    solve_distinct_tuple(degenerate, degenerate[::-1])
    for m in (1, 2, 3, 4):
        a = random_rat(rng)
        solve_single(AnalyticOp(random_rat(rng), random_poly(rng, 4)), AnalyticOp(a, random_poly(rng, 4)))
        solve_tuple_independent(random_independent(rng, m, a), random_independent(rng, m, a))
        dependent = _random_distinct(rng, m, a)
        if m > 1:
            dependent[-1] = AnalyticOp(a, dependent[0].r * 3)
        solve_distinct_tuple(dependent, _random_distinct(rng, m, a))
    # two diagonalisations and one bridge per word
    assert len(staged) == 3 * (1 + 3 * 4)


class TestWordLength:
    """Words are short by construction: one shear per pivot row, no no-op moves."""

    def test_one_shear_per_point_in_diagonalisation(self):
        rng = random.Random(101)
        for m in (2, 3, 4, 5):
            for _ in range(4):
                ops = random_independent(rng, m, random_rat(rng))
                word, diag = _diagonalize_tuple(ops)
                assert_diagonal(diag)
                assert apply_word_tuple(word, ops) == list(diag.ops)
                points = [gen.b for gen in word]
                assert len(points) == len(set(points)) <= m

    def test_no_zero_shears(self):
        rng = random.Random(103)
        a = Fraction(-2)
        constants = [AnalyticOp(a, Poly.one()), AnalyticOp(a, Poly.constant(2))]
        golden_src = [AnalyticOp(a, r) for r in (Poly((1, 1)), Poly((2, 2)), Poly.monomial(2))]
        golden_dst = [AnalyticOp(a, r) for r in (Poly.one(), Poly.x(), Poly((-1, 0, Fraction(5, 2))))]
        words = [
            independent(constants),
            solve_distinct_tuple(constants, constants),
            solve_distinct_tuple(golden_src, golden_dst),
            solve_tuple_independent([constants[0]], [constants[0]]),
        ]
        for m in (2, 3, 4):
            src = random_independent(rng, m, a)
            dst = random_independent(rng, m, a)
            words.append(solve_tuple_independent(src, dst))
            dependent = _random_distinct(rng, m, a)
            dependent[-1] = AnalyticOp(a, dependent[0].r * 3)
            words.append(independent(dependent))
            words.append(solve_distinct_tuple(dependent, _random_distinct(rng, m, a)))
        for word in words:
            assert not [gen for gen in word if isinstance(gen, Shear) and not gen.s]

    def test_independent_words_within_4m(self):
        rng = random.Random(107)
        for m in range(1, 7):
            for _ in range(3):
                a = random_rat(rng)
                src = random_independent(rng, m, a)
                dst = random_independent(rng, m, a)
                word = solve_tuple_independent(src, dst)
                assert apply_word_tuple(word, src) == dst
                assert len(word) <= 4 * m

    def test_distinct_words_within_their_bound(self):
        rng = random.Random(109)
        for m in (1, 2, 3, 4):
            for _ in range(3):
                a = random_rat(rng)
                src = _random_distinct(rng, m, a)
                if m > 1:
                    src[-1] = AnalyticOp(a, src[0].r * 3)
                dst = _random_distinct(rng, m, a)
                assert len(independent(src)) <= 2 * (m - _rank(src))
                assert len(solve_distinct_tuple(src, dst)) <= 8 * m - 4

    def test_distinct_cap_is_checked(self, monkeypatch):
        # opposite shears cancel, so the padded word still reaches its target:
        # only the length cap can refuse it
        b = Fraction(7)
        padding = (Shear(b, Poly((-b, 1))), Shear(b, Poly((b, -1)))) * 20
        between = transitivity._between
        monkeypatch.setattr(transitivity, "_between", lambda src, dst: between(src, dst) + padding)
        ops = [AnalyticOp(0, Poly.one()), AnalyticOp(0, Poly.constant(2))]
        with pytest.raises(VerificationFailed, match="exceeds its length cap"):
            solve_distinct_tuple(ops, ops)


def test_independent_words_are_checked_once(monkeypatch):
    # one build pass and one checking replay: at most 2*m*len(word)
    # generator applications per request, on the criterion-9 inputs
    applied = [0]
    for cls in (Shear, Translate, Dilate):
        def counting(self, op, _apply=cls.apply):
            applied[0] += 1
            return _apply(self, op)

        monkeypatch.setattr(cls, "apply", counting)
    requests = []

    def solve(src, dst):
        applied[0] = 0
        word = solve_tuple_independent(src, dst)
        requests.append((applied[0], 2 * len(src) * len(word)))
        return word

    monkeypatch.setattr(selftest, "solve_tuple_independent", solve)
    assert selftest.run_criterion(9).passed
    assert len(requests) == 40
    assert all(count <= bound for count, bound in requests), requests


def test_distinct_words_are_checked_once(monkeypatch):
    # one build pass and one checking replay: at most 2*m*len(word)
    # generator applications per request, on the criterion-10 inputs
    applied = [0]
    for cls in (Shear, Translate, Dilate):
        def counting(self, op, _apply=cls.apply):
            applied[0] += 1
            return _apply(self, op)

        monkeypatch.setattr(cls, "apply", counting)
    requests = []

    def solve(src, dst):
        applied[0] = 0
        word = solve_distinct_tuple(src, dst)
        requests.append((applied[0], 2 * len(src) * len(word)))
        return word

    monkeypatch.setattr(selftest, "solve_distinct_tuple", solve)
    assert selftest.run_criterion(10).passed
    assert len(requests) == 30
    assert all(count <= bound for count, bound in requests), requests


def test_points_are_ints_until_they_become_generator_fields(monkeypatch):
    # the scan and every diagonal base point are ints; each shear of a word
    # holds its point as a Fraction, so the wire bytes are those of a Fraction
    assert [type(b) for b in transitivity._scan(5)] == [int] * 5
    points = []
    diagonalize = transitivity._diagonalize_tuple

    def recording(ops, avoid=()):
        word, diag = diagonalize(ops, avoid)
        points.extend(diag.base_points)
        return word, diag

    monkeypatch.setattr(transitivity, "_diagonalize_tuple", recording)
    rng = random.Random(127)
    ops = [AnalyticOp(random_rat(rng), random_poly(rng, 5)) for _ in range(2)]
    words = [solve_single(*ops), independent([AnalyticOp(0, r) for r in DEGENERATE])]
    for m in (2, 3):
        a = random_rat(rng)
        words.append(solve_tuple_independent(random_independent(rng, m, a), random_independent(rng, m, a)))
        dependent = _random_distinct(rng, m, a)
        dependent[-1] = AnalyticOp(a, dependent[0].r * 3)
        words.append(solve_distinct_tuple(dependent, _random_distinct(rng, m, a)))
    assert len(points) == 2 * (1 + 2 * (2 + 3)) and {type(b) for b in points} == {int}
    shears = [gen for word in words for gen in word if isinstance(gen, Shear)]
    assert {type(gen) for gen in shears} == {Shear, ShearSquared}
    assert {type(gen.b) for gen in shears} == {Fraction}


SCAN = [0] + [sign * t for t in range(1, 40) for sign in (1, -1)]

# rank 3 at a = 0 with both sum l_i r_i = 0 and sum l_i r_i^2 = 0 for
# l = (1/2, 1/3, 1/4, -1), from a rational point of (u1 + u2 + u3)^2 = 2u1^2 + 3u2^2 + 4u3^2
DEGENERATE = [Poly((-6, 4, -4)), Poly((-3, 0, -6)), Poly((-4, 8, -8)), Poly((-5, 4, -6))]

small_int_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(
    lambda cs: Poly(tuple(cs))
)


def _squared_by_trial(ops, rank):
    """The first squared shear along x^D - b^D whose application raises the rank, or None."""
    d = max(len(op.r.coeffs) for op in ops)
    for b in SCAN[: 2 * d - 1]:
        gen = ShearSquared(b, Poly.monomial(d) - Poly.constant(b**d))
        if _rank(apply_word_tuple([gen], ops)) > rank:
            return gen
    return None


def ref_independence_word(ops):
    """Brute-force rank steps: apply each candidate generator and take the rank.

    Each step must raise the rank by exactly one.
    """
    word, cur = [], list(ops)
    rank = _rank(cur)
    while rank < len(cur):
        gen = _squared_by_trial(cur, rank)
        if gen is not None:
            step = [gen]
        else:
            d = max(len(op.r.coeffs) for op in cur)
            for c in SCAN[:d]:
                plain = Shear(c, Poly.monomial(d) - Poly.constant(c**d))
                gen = _squared_by_trial(apply_word_tuple([plain], cur), rank)
                if gen is not None:
                    step = [plain, gen]
                    break
        cur = apply_word_tuple(step, cur)
        word += step
        rank += 1
        assert _rank(cur) == rank
    return tuple(word)


def _rank(ops):
    return coefficient_rank([op.r for op in ops])


def _random_distinct(rng, m, a):
    while True:
        ops = [AnalyticOp(a, random_poly(rng, 4)) for _ in range(m)]
        if len(set(ops)) == m:
            return ops
