"""Command-line behaviour: formats, exit codes and fixture round-trips."""

import errno
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import rbx
from rbx.cli import main
from rbx.operators import AnalyticOp, TruncOp
from rbx.poly import Poly


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv):
    """The whole ``rbx`` process on ``argv``, importing rbx from this checkout."""
    src = str(Path(rbx.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "rbx.cli", *argv],
        capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )


class TestVerify:
    def test_analytic_operator_passes(self, tmp_path, capsys):
        path = write(tmp_path, "op.json", {"a": "1/2", "r": "x^2 + 1"})
        code, out, _ = run(capsys, ["verify", path, "--degree", "8"])
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_identity_operator_fails_at_origin(self, tmp_path, capsys):
        trunc = TruncOp(tuple(Poly.monomial(n) for n in range(9)))
        path = write(tmp_path, "ident.json", trunc.to_json())
        code, out, _ = run(capsys, ["verify", path, "--degree", "2"])
        assert code == 1
        assert json.loads(out)["first_failure"] == [0, 0]

    def test_nonzero_weight(self, tmp_path, capsys):
        path = write(tmp_path, "op.json", {"a": "0", "r": "1"})
        code, out, _ = run(capsys, ["verify", path, "--lambda", "1", "--degree", "2"])
        assert code == 1

    @pytest.mark.parametrize("weight", ["0.5", "1e3", "1_000", "\u0663"])
    def test_weight_outside_literal_grammar(self, tmp_path, capsys, weight):
        path = write(tmp_path, "op.json", {"a": "0", "r": "1"})
        code, out, err = run(capsys, ["verify", path, "--lambda", weight])
        assert (code, out, err) == (2, "", f"error: bad weight {weight!r}\n")

    @pytest.mark.parametrize(
        "payload", [{"a": "\u0663/\u0664", "r": "x"}, {"a": "0", "r": "\u0663x^\u0662"}]
    )
    def test_non_ascii_digits_in_payload(self, tmp_path, capsys, payload):
        path = write(tmp_path, "op.json", payload)
        code, out, err = run(capsys, ["verify", path])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: bad operator payload: ")

    def test_malformed_polynomial(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"a": "0", "r": "x^^2"})
        code, _, err = run(capsys, ["verify", path])
        assert code == 2
        assert "error" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", "{not json")
        code, _, _ = run(capsys, ["verify", path])
        assert code == 2

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = write(tmp_path, "deep.json", "[" * 200_000)
        for argv in (
            ["canon", path],
            ["act", "--word", path, "--op", path],
            ["transit", "--src", path, "--dst", path],
        ):
            code, _, err = run(capsys, argv)
            assert code == 2, argv
            assert "invalid JSON" in err

    def test_negative_degree_is_an_input_error(self, tmp_path, capsys):
        cases = [
            ({"a": "1", "r": "x^2+1"}, "-1"),
            ({"a": "1", "r": "1"}, "-1"),
            (AnalyticOp(0, Poly.one()).truncate(5).to_json(), "-3"),
        ]
        for payload, degree in cases:
            path = write(tmp_path, "op.json", payload)
            code, out, err = run(capsys, ["verify", path, "--degree", degree])
            assert (code, out) == (2, "")
            assert err == f"error: identity check degree must be non-negative, got {degree}\n"

    def test_tall_point_at_the_degree_cap_within_budget(self, tmp_path, capsys):
        # budget 10 s; on a 2-core x86 VM the weight-zero check took 17-26 s
        # through residual vectors and 1.6-2.2 s through the coordinate equation
        path = write(
            tmp_path, "op.json", {"a": "123456789/987654321", "r": "x^3 + 12345678901234567890*x - 7/11"}
        )
        start = time.perf_counter()
        code, out, err = run(capsys, ["verify", path, "--degree", "128"])
        elapsed = time.perf_counter() - start
        assert (code, json.loads(out), err) == (0, {"holds": True, "weight": "0", "degree": 128}, "")
        assert elapsed < 10, f"rbx verify --degree 128 took {elapsed:.2f}s, budget 10s"

    @pytest.mark.parametrize("form", ["point", "truncation"])
    def test_degree_cap_in_a_fresh_process(self, tmp_path, form):
        # past the cap 128, one error line and exit 2 before any truncation or pair
        # list, where a huge degree ran out of memory
        op = AnalyticOp(Fraction(1, 2), Poly.from_text("x^3 - 2*x + 1/3"))
        path = write(tmp_path, "op.json", op.to_json() if form == "point" else op.truncate(260).to_json())
        proc = run_process(["verify", path, "--degree", "128"])
        assert proc.returncode == 0 and json.loads(proc.stdout)["holds"] is True
        for degree in ("129", "100000"):
            proc = run_process(["verify", path, "--degree", degree])
            assert (proc.returncode, proc.stdout) == (2, b"")
            assert proc.stderr == f"error: --degree {degree} exceeds cap 128\n".encode()


class TestCanon:
    def test_linear_multiplier_point(self, tmp_path, capsys):
        trunc = AnalyticOp(2, Poly.x()).truncate(4)
        path = write(tmp_path, "trunc.json", trunc.to_json())
        code, out, _ = run(capsys, ["canon", path])
        assert code == 0
        assert json.loads(out) == {"a": "2", "r": "x"}

    def test_odd_halving_rejected(self, tmp_path, capsys):
        from rbx.operators import odd_halving_example

        path = write(tmp_path, "odd.json", odd_halving_example(4).to_json())
        code, _, err = run(capsys, ["canon", path])
        assert code == 1
        assert "NotMultiplierType" in err

    def test_canon_emit_round_trip(self, tmp_path, capsys):
        op = AnalyticOp(Fraction(-3, 2), Poly((1, 0, Fraction(2, 5))))
        path = write(tmp_path, "trunc.json", op.truncate(4).to_json())
        code, out, _ = run(capsys, ["canon", path])
        assert code == 0
        assert AnalyticOp.from_json(json.loads(out)) == op


class TestFunctional:
    def test_system(self, capsys):
        code, out, _ = run(capsys, ["functional", "system", "r=1", "n=0", "m=0"])
        assert code == 0
        assert out.strip() == "c0^2 + 2*c1"

    def test_eliminate(self, capsys):
        code, out, _ = run(capsys, ["functional", "eliminate", "r=1", "t=1"])
        assert code == 0
        assert out.strip() == "-1/2*c0^2"

    def test_reduce(self, capsys):
        code, out, _ = run(capsys, ["functional", "reduce", "r=1", "n=0", "m=0"])
        assert code == 0
        assert out.strip() == "0"

    def test_check_passes(self, capsys):
        code, out, err = run(capsys, ["functional", "check", "r=x", "--budget", "6"])
        assert code == 0
        verdicts = [json.loads(line) for line in out.strip().splitlines()]
        assert all(set(v) == {"member_Mr", "a"} for v in verdicts)
        assert any(v["member_Mr"] for v in verdicts)
        assert any(not v["member_Mr"] for v in verdicts)

    def test_check_at_a_small_budget_keeps_the_finite_answer(self, capsys):
        # budget 1 accepts the c_0 + 1 bump of the curve head of x^4 + 3 at 0,
        # so the check fails; the finite answer is printed, not the exact one
        code, out, err = run(capsys, ["functional", "check", "r=x^4+3", "--budget", "1"])
        assert code == 1 and err == "check failed\n"
        verdicts = [json.loads(line) for line in out.strip().splitlines()]
        assert verdicts[:6] == [
            {"member_Mr": True, "a": "0"},
            {"member_Mr": True, "a": None},
            {"member_Mr": False, "a": None},
            {"member_Mr": True, "a": None},
            {"member_Mr": False, "a": None},
            {"member_Mr": True, "a": None},
        ]

    def test_check_is_exact_by_default(self, capsys):
        # with no --budget every bump of the curve head of x^4 + 3 is rejected
        code, out, err = run(capsys, ["functional", "check", "r=x^4+3"])
        assert code == 0 and err == "check passed\n"
        verdicts = [json.loads(line) for line in out.strip().splitlines()]
        assert verdicts[:6] == [{"member_Mr": True, "a": "0"}] + [
            {"member_Mr": False, "a": None}
        ] * 5

    def test_huge_index_system(self, capsys):
        code, out, _ = run(capsys, ["functional", "system", "r=x", "n=100000000", "m=0"])
        assert code == 0
        assert out.strip() == "c0*c100000000 + 25000001/50000001*c100000002"

    def test_degree_cap_is_an_input_error(self, capsys):
        code, out, err = run(capsys, ["functional", "reduce", "r=1", "n=40", "m=40"])
        assert (code, out, err) == (2, "", "error: product term degree 65 exceeds cap 64\n")

    def test_degree_cap_in_a_fresh_process(self):
        # the whole rbx process: one error line on stderr and exit 2, no traceback
        proc = run_process(["functional", "reduce", "r=1", "n=40", "m=40"])
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"error: product term degree 65 exceeds cap 64\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["system", "r=0", "n=1", "m=1"], "context multiplier must be nonzero"),
            (["eliminate", "r=0", "t=3"], "context multiplier must be nonzero"),
            (["reduce", "r=0", "n=1", "m=1"], "context multiplier must be nonzero"),
            (["check", "r=0"], "context multiplier must be nonzero"),
            (["eliminate", "r=x", "t=1"], "coordinate 1 is free"),
        ],
    )
    def test_library_refusal_is_an_input_error(self, capsys, argv, message):
        code, out, err = run(capsys, ["functional"] + argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_negative_budget_is_an_input_error(self, capsys):
        code, out, err = run(capsys, ["functional", "check", "r=x", "--budget", "-1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "budget" in err

    @pytest.mark.parametrize("key,value", [("n", "1_0"), ("n", "\u0663"), ("m", " 1"), ("n", "0x1")])
    def test_integer_outside_ascii_grammar(self, capsys, key, value):
        params = {"n": "1", "m": "0", key: value}
        argv = ["functional", "system", "r=1"] + [f"{k}={v}" for k, v in params.items()]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: bad integer for {key}: {value!r}\n")

    def test_integer_past_the_digit_limit_is_clipped(self, capsys):
        code, out, err = run(capsys, ["functional", "system", "r=1", "n=" + "1" * 5000, "m=0"])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 200
        assert err.startswith("error: bad integer for n: '111")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "op.json", "--degree", "1_0"],
            ["functional", "check", "r=x", "--budget", "\u0663"],
            ["selftest", "--seed", "1_0"],
        ],
    )
    def test_integer_flag_outside_ascii_grammar(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "invalid integer value" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "op.json", "--degree"],
            ["functional", "check", "r=x", "--budget"],
            ["selftest", "--seed"],
        ],
    )
    def test_integer_flag_past_the_digit_limit_is_clipped(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["1" * 5000])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.encode()) < 400
        assert "invalid integer value: '111" in err

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, ["functional", "eliminate", "r=1"])
        assert code == 2

    def test_bad_key_value(self, capsys):
        code, _, _ = run(capsys, ["functional", "system", "r"])
        assert code == 2


class TestAct:
    def test_empty_word_echoes_input(self, tmp_path, capsys):
        op = {"a": "1/2", "r": "2*x - 3"}
        word = write(tmp_path, "w.json", [])
        opfile = write(tmp_path, "op.json", op)
        code, out, _ = run(capsys, ["act", "--word", word, "--op", opfile])
        assert code == 0
        assert json.loads(out) == op

    def test_word_on_single_operator(self, tmp_path, capsys):
        word = write(tmp_path, "w.json", [{"type": "GA", "nu": "2"}])
        opfile = write(tmp_path, "op.json", {"a": "2", "r": "x"})
        code, out, _ = run(capsys, ["act", "--word", word, "--op", opfile])
        assert code == 0
        assert json.loads(out) == {"a": "0", "r": "x + 2"}

    def test_word_on_tuple(self, tmp_path, capsys):
        word = write(tmp_path, "w.json", [{"type": "HB", "b": "0", "s": "x"}])
        ops = [{"a": "0", "r": "1"}, {"a": "0", "r": "x"}]
        opfile = write(tmp_path, "ops.json", ops)
        code, out, _ = run(capsys, ["act", "--word", word, "--op", opfile])
        assert code == 0
        assert json.loads(out) == [{"a": "0", "r": "x + 1"}, {"a": "0", "r": "x"}]

    def test_result_past_the_int_string_limit(self, tmp_path, capsys):
        # 10^5000 has more digits than Python's str converts by default
        word = write(tmp_path, "w.json", [{"type": "GM", "mu": "1" + "0" * 1000}])
        opfile = write(tmp_path, "op.json", {"a": "0", "r": "x^5"})
        code, out, _ = run(capsys, ["act", "--word", word, "--op", opfile])
        assert code == 0
        assert json.loads(out) == {"a": "0", "r": "1" + "0" * 5000 + "*x^5"}
        # what rbx prints it reads back
        empty = write(tmp_path, "empty.json", [])
        printed = write(tmp_path, "printed.json", json.loads(out))
        code, again, _ = run(capsys, ["act", "--word", empty, "--op", printed])
        assert (code, again) == (0, out)

    def test_invalid_generator(self, tmp_path, capsys):
        word = write(tmp_path, "w.json", [{"type": "HB", "b": "0", "s": "x + 1"}])
        opfile = write(tmp_path, "op.json", {"a": "0", "r": "1"})
        code, _, _ = run(capsys, ["act", "--word", word, "--op", opfile])
        assert code == 2

    def test_unreadable_word_file_is_named_once(self, tmp_path, capsys):
        opfile = write(tmp_path, "op.json", {"a": "0", "r": "1"})
        bad = write(tmp_path, "w.json", "[{")
        code, out, err = run(capsys, ["act", "--word", bad, "--op", opfile])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: invalid JSON: ") and err.count(bad) == 1
        missing = str(tmp_path / "missing.json")
        code, out, err = run(capsys, ["act", "--word", missing, "--op", opfile])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {missing}: ")


class TestTransit:
    def test_single(self, tmp_path, capsys):
        src = write(tmp_path, "src.json", {"a": "0", "r": "1"})
        dst = write(tmp_path, "dst.json", {"a": "1", "r": "x + 1"})
        code, out, _ = run(capsys, ["transit", "--src", src, "--dst", dst])
        assert code == 0
        report = json.loads(out)
        assert report["verified"] is True
        assert report["word_length"] <= 3

    def test_word_reapplies(self, tmp_path, capsys):
        from rbx.actions import apply_word, word_from_json

        src_op = AnalyticOp(1, Poly.x())
        dst_op = AnalyticOp(-2, Poly((1, 0, 3)))
        src = write(tmp_path, "src.json", src_op.to_json())
        dst = write(tmp_path, "dst.json", dst_op.to_json())
        code, out, _ = run(capsys, ["transit", "--src", src, "--dst", dst])
        assert code == 0
        word = word_from_json(json.loads(out)["word"])
        assert apply_word(word, src_op) == dst_op

    def test_independent_tuples(self, tmp_path, capsys):
        src = write(tmp_path, "src.json", [{"a": "0", "r": "1"}, {"a": "0", "r": "x"}])
        dst = write(
            tmp_path, "dst.json", [{"a": "0", "r": "x + 1"}, {"a": "0", "r": "x - 1"}]
        )
        code, out, _ = run(
            capsys, ["transit", "--src", src, "--dst", dst, "--mode", "independent"]
        )
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_distinct_tuples(self, tmp_path, capsys):
        src = write(tmp_path, "src.json", [{"a": "0", "r": "1"}, {"a": "0", "r": "2"}])
        dst = write(tmp_path, "dst.json", [{"a": "0", "r": "x"}, {"a": "0", "r": "x^2"}])
        code, out, _ = run(
            capsys, ["transit", "--src", src, "--dst", dst, "--mode", "distinct"]
        )
        assert code == 0
        assert json.loads(out)["verified"] is True

    @pytest.mark.parametrize("mode", ["independent", "distinct"])
    def test_mixed_base_points(self, tmp_path, capsys, mode):
        src = write(tmp_path, "src.json", [{"a": "0", "r": "1"}, {"a": "1", "r": "x"}])
        dst = write(tmp_path, "dst.json", [{"a": "0", "r": "x + 1"}, {"a": "0", "r": "x - 1"}])
        code, out, err = run(capsys, ["transit", "--src", src, "--dst", dst, "--mode", mode])
        assert (code, out, err) == (2, "", "error: operators must share one integration base point\n")

    def test_dependent_tuple_in_independent_mode(self, tmp_path, capsys):
        src = write(tmp_path, "src.json", [{"a": "0", "r": "x"}, {"a": "0", "r": "2*x"}])
        dst = write(tmp_path, "dst.json", [{"a": "0", "r": "1"}, {"a": "0", "r": "x"}])
        code, _, err = run(
            capsys, ["transit", "--src", src, "--dst", dst, "--mode", "independent"]
        )
        assert code == 2


class TestOrbit:
    def test_witness(self, tmp_path, capsys):
        op1 = write(tmp_path, "a.json", {"a": "0", "r": "x"})
        op2 = write(tmp_path, "b.json", {"a": "1", "r": "2*x - 2"})
        code, out, _ = run(capsys, ["orbit", "--aut", op1, op2])
        assert code == 0
        report = json.loads(out)
        assert report["in_orbit"] is True and report["word"]

    def test_degree_mismatch(self, tmp_path, capsys):
        op1 = write(tmp_path, "a.json", {"a": "0", "r": "x"})
        op2 = write(tmp_path, "b.json", {"a": "0", "r": "x^2"})
        code, out, _ = run(capsys, ["orbit", "--aut", op1, op2])
        assert code == 1
        assert json.loads(out) == {"in_orbit": False, "word": None}


class TestStdin:
    def test_dash_reads_stdin(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"a": "0", "r": "1"})))
        code, out, _ = run(capsys, ["verify", "-", "--degree", "2"])
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_act_reads_operator_from_stdin(self, tmp_path, capsys, monkeypatch):
        word = write(tmp_path, "w.json", [{"type": "GA", "nu": "1"}])
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"a": "0", "r": "x"})))
        code, out, _ = run(capsys, ["act", "--word", word, "--op", "-"])
        assert code == 0
        assert json.loads(out) == {"a": "-1", "r": "x + 1"}

    def test_act_reads_tuple_from_stdin(self, tmp_path, capsys, monkeypatch):
        word = write(tmp_path, "w.json", [{"type": "GM", "mu": "2"}])
        ops = [{"a": "1", "r": "x"}, {"a": "1", "r": "1"}]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(ops)))
        code, out, _ = run(capsys, ["act", "--word", word, "--op", "-"])
        assert code == 0
        assert json.loads(out) == [{"a": "1/2", "r": "2*x"}, {"a": "1/2", "r": "1"}]


class TestWrongJsonTypes:
    """Payload values of the wrong JSON type are malformed input: exit 2, no traceback."""

    def test_float_base_point(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"a": 1.5, "r": "x"})))
        code, _, err = run(capsys, ["verify", "-"])
        assert code == 2
        assert "bad operator payload" in err

    def test_numeric_multiplier(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"a": "1", "r": 5})))
        code, _, err = run(capsys, ["verify", "-"])
        assert code == 2
        assert "bad operator payload" in err

    def test_boolean_base_point(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"a": True, "r": "x"})))
        code, _, err = run(capsys, ["canon", "-"])
        assert code == 2
        assert "bad operator payload" in err

    def test_string_images(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"N": 0, "images": "x"})))
        code, _, err = run(capsys, ["canon", "-"])
        assert code == 2
        assert "bad operator payload" in err

    def test_exponent_literal(self, capsys, monkeypatch):
        # an exponent is no part of the literal grammar, so the base point is
        # refused before 10**200000 is ever built
        monkeypatch.setattr("sys.stdin", io.StringIO('{"a":"1e200000","r":"x"}'))
        code, out, err = run(capsys, ["verify", "-"])
        assert (code, out) == (2, "")
        assert err.startswith("error: -: bad operator payload: ")

    def test_fractional_truncation_degree(self, capsys, monkeypatch):
        payload = {"N": 1.7, "images": ["x", "1/2*x^2"]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, _, err = run(capsys, ["canon", "-"])
        assert code == 2
        assert "bad operator payload" in err


# each command with one bad file argument; ``good`` fills the other file arguments
_BAD_FILE_ARGV = {
    "verify": lambda bad, good: ["verify", bad],
    "canon": lambda bad, good: ["canon", bad],
    "act-op": lambda bad, good: ["act", "--word", good["word"], "--op", bad],
    "act-word": lambda bad, good: ["act", "--word", bad, "--op", good["op"]],
    "transit": lambda bad, good: ["transit", "--src", bad, "--dst", good["op"]],
    "transit-independent": lambda bad, good: [
        "transit", "--src", good["op"], "--dst", bad, "--mode", "independent"
    ],
    "orbit": lambda bad, good: ["orbit", "--aut", good["op"], bad],
}

_BAD_PAYLOADS = {
    "invalid-json": "{not json",
    "nested-array": [[{"a": "1", "r": "x"}]],
    "empty-array": [],
    "bad-operator": {"a": "1", "r": "x^^2"},
    "bad-word": [{"type": "GX", "nu": "1"}],
}

# a word file holds an array: ``[]`` is the empty word, a nested array a bad generator
_OPERATOR_CASES = ["missing", "invalid-json", "nested-array", "empty-array", "bad-operator"]
_WORD_CASES = ["missing", "invalid-json", "nested-array", "bad-word"]
_BAD_CASES = [
    (command, case)
    for command in _BAD_FILE_ARGV
    for case in (_WORD_CASES if command == "act-word" else _OPERATOR_CASES)
]


class TestBadInputFiles:
    """Every unreadable or malformed input file exits 2, naming its path once."""

    @pytest.mark.parametrize("command,case", _BAD_CASES)
    def test_exit_two_and_path_named_once(self, tmp_path, capsys, command, case):
        good = {
            "word": write(tmp_path, "word.json", [{"type": "GA", "nu": "1"}]),
            "op": write(tmp_path, "op.json", {"a": "0", "r": "x"}),
        }
        if case == "missing":
            bad = str(tmp_path / "missing.json")
        else:
            bad = write(tmp_path, "bad.json", _BAD_PAYLOADS[case])
        code, out, err = run(capsys, _BAD_FILE_ARGV[command](bad, good))
        assert (code, out) == (2, "")
        if case == "missing":
            # the operating system's message quotes the name a second time
            oserror = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), bad)
            assert err == f"error: cannot read {bad}: {oserror}\n"
        else:
            if case == "invalid-json":
                label = "invalid JSON"
            elif command == "act-word":
                label = "bad word payload"
            else:
                label = "bad operator payload"
            assert err.startswith(f"error: {bad}: {label}: ") and err.count(bad) == 1

    @pytest.mark.parametrize(
        "payload,message",
        [
            ('"HB"', "expected an array of generator objects"),
            ({"type": "GA", "nu": "1"}, "expected an array of generator objects"),
            ([1], "expected a generator object"),
            ([{"type": "HB", "s": "x"}], "generator HB needs field 'b'"),
        ],
        ids=["string", "object", "not-an-object", "missing-field"],
    )
    def test_word_payload_says_what_it_expects(self, tmp_path, capsys, payload, message):
        word = write(tmp_path, "word.json", payload)
        op = write(tmp_path, "op.json", {"a": "0", "r": "x"})
        code, out, err = run(capsys, ["act", "--word", word, "--op", op])
        assert (code, out, err) == (2, "", f"error: {word}: bad word payload: {message}\n")

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"r": "x"}, "operator object needs field 'a'"),
            ({"a": "0"}, "operator object needs field 'r'"),
            ({"images": ["x"]}, "truncation object needs field 'N'"),
        ],
        ids=["no-a", "no-r", "no-N"],
    )
    def test_operator_payload_names_the_missing_field(self, tmp_path, capsys, payload, message):
        op = write(tmp_path, "op.json", payload)
        code, out, err = run(capsys, ["canon", op])
        assert (code, out, err) == (2, "", f"error: {op}: bad operator payload: {message}\n")


class TestSelftestCommand:
    def test_reports_all_criteria(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--seed", "5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len([l for l in lines if l.startswith("criterion")]) == 11
        assert lines[-1].startswith("selftest: 11/11")

    def test_default_seed_is_the_selftest_default(self, capsys):
        from rbx.selftest import DEFAULT_SEED

        code, out, _ = run(capsys, ["selftest"])
        assert code == 0 and DEFAULT_SEED == 271828
        assert out.strip().splitlines()[-1] == "selftest: 11/11 criteria passed (seed 271828)"

    def test_closed_stdout_is_not_a_traceback(self):
        # as in ``rbx selftest | head -1``: the reader is gone before the first
        # line is written, with per-print writes and with one write at exit
        src = str(Path(rbx.__file__).resolve().parents[1])
        for unbuffered in ("1", ""):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
            proc = subprocess.Popen(
                [sys.executable, "-m", "rbx.cli", "selftest"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            )
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=60) == 1
            assert err == b""
