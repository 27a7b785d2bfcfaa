"""Each independent checker accepts rbx's output and rejects a corrupted copy.

    python3 -m pytest perfbench -q
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rbx  # noqa: E402

import checkers as ck  # noqa: E402
import workloads  # noqa: E402

F = Fraction
R = [F(1), F(1), F(1)]  # x^2 + x + 1


def op(a, r):
    return rbx.AnalyticOp(a, rbx.Poly(tuple(r)))


def test_poly_text_round_trips_with_rbx():
    for text in ["-1/2*x^2 + x - 3", "x^7", "5", "-x + 2/3", "12*x^3 - x^2"]:
        cs = ck.parse_poly(text)
        assert cs == list(rbx.Poly.from_text(text).coeffs)
        assert ck.format_poly(cs) == rbx.Poly(tuple(cs)).to_text()
    for bad in ["", "+-1", "*x", "x^"]:
        try:
            ck.parse_poly(bad)
        except ValueError:
            continue
        raise AssertionError(f"accepted {bad!r}")


def test_generator_replay_matches_rbx():
    src = (F(1, 2), [F(2), F(-1), F(3)])
    word = [{"type": "HB", "b": "1", "s": "x^2 - x"}, {"type": "HB2", "b": "-1", "s": "x + 1"},
            {"type": "GA", "nu": "3/2"}, {"type": "GM", "mu": "-2"}]
    got = ck.replay_word(word, [src])[0]
    want = rbx.apply_word(rbx.word_from_json(word), op(*src))
    assert got == (want.a, list(want.r.coeffs))


def test_word_check_rejects_wrong_generator():
    a, b = (F(1, 3), [F(1), F(2)]), (F(-2), [F(5), F(0), F(-1, 2)])
    word = rbx.word_to_json(rbx.solve_single(op(*a), op(*b)))
    assert ck.check_word(word, [a], [b], 3) is None
    for gen in word:
        for key in ("b", "nu", "mu"):
            if key in gen:
                bad = [dict(g) for g in word]
                bad[word.index(gen)][key] = str(F(gen[key]) + 1)
                assert ck.check_word(bad, [a], [b], 3) is not None
        if "s" in gen:
            bad = [dict(g) for g in word]
            s = ck.parse_poly(gen["s"])
            bad[word.index(gen)]["s"] = ck.format_poly(ck.pscale(s, F(2)))
            assert ck.check_word(bad, [a], [b], 3) is not None


def test_word_check_enforces_shear_condition_and_cap():
    src = [(F(0), [F(1)])]
    assert "does not vanish" in ck.check_word(
        [{"type": "HB", "b": "1", "s": "x"}], src, [(F(0), [F(1), F(1)])], 3)
    m = 2
    tup_a = [(F(1), [F(1)]), (F(1), [F(0), F(1)])]
    tup_b = [(F(1), [F(2), F(1)]), (F(1), [F(0), F(0), F(3)])]
    word = rbx.word_to_json(rbx.solve_tuple_independent(
        [op(*x) for x in tup_a], [op(*x) for x in tup_b]))
    assert ck.check_word(word, tup_a, tup_b, ck.tuple_cap(m)) is None
    assert "cap" in ck.check_word(word, tup_a, tup_b, len(word) - 1)
    assert ck.check_word(word, tup_a, list(reversed(tup_b)), ck.tuple_cap(m)) is not None


def test_image_check_rejects_corrupted_truncation():
    a = F(7, 3)
    images = [list(p.coeffs) for p in op(a, R).truncate(6).images]
    assert ck.check_images(images, a, R) is None
    images[4][0] += 1
    assert ck.check_images(images, a, R) is not None


def test_point_check_rejects_wrong_base_point():
    a = F(1009, 3)
    point = rbx.operator_to_point(op(a, R).truncate(4))
    assert ck.check_point((point.a, list(point.r.coeffs)), a, R) is None
    assert ck.check_point((point.a + 1, list(point.r.coeffs)), a, R) is not None
    assert ck.check_point((point.a, [F(1), F(1)]), a, R) is not None


def test_verdict_check_rejects_flipped_membership():
    head = ck.curve_coords(R, F(1, 2), 3)
    assert ck.is_member(R, head, 8) is rbx.satisfies_system(rbx.Poly(tuple(R)), head, 8) is True
    bumped = [head[0], head[1] + 1, head[2]]
    verdict = rbx.satisfies_system(rbx.Poly(tuple(R)), bumped, 8)
    assert verdict is ck.is_member(R, bumped, 8) is False
    assert ck.check_verdict(verdict, False, "membership") is None
    assert ck.check_verdict(not verdict, False, "membership") is not None


def test_curve_coords_match_rbx():
    for a in (F(0), F(-3, 2), F(5, 7)):
        assert ck.curve_coords(R, a, 6) == list(rbx.curve_coords(rbx.Poly(tuple(R)), a, 6).c)


def test_elimination_and_reduced_checks_reject_corrupted_terms():
    P = rbx.Poly(tuple(R))
    e = rbx.elimination_polynomial(P, 5)
    assert ck.check_elimination(e.terms, R, F(3, 2), 5) is None
    bad = dict(e.terms)
    key = next(iter(bad))
    bad[key] = bad[key] + 1
    assert ck.check_elimination(bad, R, F(3, 2), 5) is not None
    g = rbx.reduced_equation(P, 2, 3)
    assert ck.check_reduced(g.terms, R, F(-1, 3)) is None
    assert ck.eval_terms(g.terms, {0: F(1), 1: F(2), 2: F(3)}) == g.eval_at({0: 1, 1: 2, 2: 3})
    bad = dict(g.terms)
    bad[((0, 1),)] = bad.get(((0, 1),), F(0)) + 1
    assert ck.check_reduced(bad, R, F(-1, 3)) is not None


def test_recovered_base_point_check():
    P = rbx.Poly(tuple(R))
    a = F(-3, 2)
    ext = ck.curve_coords(R, a, 4)
    got = rbx.recover_base_point(P, ext)
    assert ck.check_recovered(got, R, ext, True) is None
    assert ck.check_recovered(got + 1, R, ext, True) is not None
    assert ck.check_recovered(None, R, ext, True) is not None
    bumped = [ext[0] + 1] + ext[1:3]
    assert ck.check_recovered(rbx.recover_base_point(P, bumped), R, bumped, False) is None
    assert ck.check_recovered(a, R, bumped, False) is not None


def test_functional_lines_reject_a_flipped_verdict():
    r = [F(-2), F(1)]
    lines = []
    for a in (F(0), F(1), F(-2), F(1, 2), F(-3, 2)):
        lines.append({"member_Mr": True, "a": str(a)})
        lines += [{"member_Mr": False, "a": None}] * 2
    assert workloads.check_functional_lines(lines, 0, r) is None
    lines[4] = {"member_Mr": True, "a": None}
    assert workloads.check_functional_lines(lines, 0, r) is not None
    lines[4] = {"member_Mr": False, "a": None}
    lines[3] = {"member_Mr": True, "a": "2"}
    assert workloads.check_functional_lines(lines, 0, r) is not None


def test_canon_bump_breaks_the_identity():
    rng = workloads.stream(5, "test", 0)
    canon = workloads.Canon(5, Path("."))
    for spec in workloads.CANON_ROUND:
        req = canon._request(rng, spec)
        assert rbx.is_rb_upto(req["bumped"], 0, req["d"]) is False
