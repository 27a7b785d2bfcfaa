"""Release gate: every acceptance criterion at its stated (exact) tolerance.

Criteria 1..11 are the deterministic checks shared with ``rbx selftest``;
criterion 12 exercises the CLI fixtures end to end and runs the selftest
command itself.  One pass/fail line is printed per criterion.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rbx.cli import main
from rbx.operators import AnalyticOp
from rbx.poly import Poly
from rbx.selftest import CRITERIA, DEFAULT_SEED, run_criterion

BUDGETS_SECONDS = {1: 5, 2: 1, 3: 5, 4: 30, 5: 30, 6: 5, 7: 1, 8: 5, 9: 60, 10: 60, 11: 5}


@pytest.mark.parametrize(
    "number,name", [(num, name) for num, name, _ in CRITERIA], ids=lambda v: str(v)
)
def test_criterion(number, name):
    result = run_criterion(number, DEFAULT_SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number:>2} [{name}] {status} ({result.seconds:.2f}s): {result.detail}")
    assert result.passed, f"criterion {number} [{name}]: {result.detail}"
    assert result.seconds < BUDGETS_SECONDS[number], (
        f"criterion {number} took {result.seconds:.2f}s, budget {BUDGETS_SECONDS[number]}s"
    )


def test_broken_criterion_fails_under_optimize():
    # the criteria check with _require, not assert: python -O must still report a failure
    import rbx

    script = "\n".join([
        "import sys",
        "from rbx import selftest",
        "selftest.is_rb_upto = lambda *args: False",
        "result = selftest.run_criterion(1)",
        "print('optimize', sys.flags.optimize, 'passed', result.passed, result.detail)",
    ])
    src = str(Path(rbx.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("optimize 1 passed False identity failed for")


def test_criterion_12_cli_round_trips_and_selftest(tmp_path, capsys):
    start = time.perf_counter()

    op = AnalyticOp(2, Poly.x())
    trunc_path = tmp_path / "trunc.json"
    trunc_path.write_text(json.dumps(op.truncate(4).to_json()))

    assert main(["verify", str(trunc_path), "--degree", "1"]) == 0
    capsys.readouterr()

    assert main(["canon", str(trunc_path)]) == 0
    canon_out = json.loads(capsys.readouterr().out)
    assert AnalyticOp.from_json(canon_out) == op

    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps(canon_out))
    word_path = tmp_path / "word.json"
    word_path.write_text(json.dumps([]))
    assert main(["act", "--word", str(word_path), "--op", str(op_path)]) == 0
    assert json.loads(capsys.readouterr().out) == canon_out

    dst_path = tmp_path / "dst.json"
    dst_path.write_text(json.dumps({"a": "0", "r": "3*x^2 + 1"}))
    assert main(["transit", "--src", str(op_path), "--dst", str(dst_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verified"] is True

    word_path.write_text(json.dumps(report["word"]))
    assert main(["act", "--word", str(word_path), "--op", str(op_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"a": "0", "r": "3*x^2 + 1"}

    assert main(["functional", "system", "r=1", "n=0", "m=0"]) == 0
    assert capsys.readouterr().out.strip() == "c0^2 + 2*c1"

    assert main(["orbit", "--aut", str(op_path), str(dst_path)]) == 1
    capsys.readouterr()

    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1].startswith("selftest: 11/11")

    elapsed = time.perf_counter() - start
    print(f"criterion 12 [cli-round-trips-and-selftest] PASS ({elapsed:.2f}s)")
    assert elapsed < 180
