"""Golden outputs: fixed-seed selftest details and CLI results must not drift.

The expected values live in ``golden.json`` beside this file.  Arithmetic
is exact and every solver scans base points deterministically, so these
outputs are bit-identical across refactors of the kernels; a change here
means a behaviour change that must be justified.  Regenerate with
``PYTHONPATH=src python tests/test_golden.py`` only for such a change.
"""

import hashlib
import io
import json
import random
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from rbx.actions import word_to_json
from rbx.cli import main
from rbx.selftest import DEFAULT_SEED, _distinct_tuple, _independent_tuple, _rational, run_all
from rbx.transitivity import solve_distinct_tuple, solve_single, solve_tuple_independent

GOLDEN = Path(__file__).with_name("golden.json")

SINGLE = ({"a": "1/2", "r": "2*x^2 - x + 3"}, {"a": "-3", "r": "x^3 + 5/7"})
INDEPENDENT = (
    [{"a": "1/3", "r": r} for r in ("1", "x + 2", "x^2 - 1/2")],
    [{"a": "1/3", "r": r} for r in ("3*x - 1", "x^2 + x", "x^3 + 2")],
)
DISTINCT = (
    [{"a": "-2", "r": r} for r in ("x + 1", "2*x + 2", "x^2")],
    [{"a": "-2", "r": r} for r in ("1", "x", "5/2*x^2 - 1")],
)

# (name, argv with JSON payloads in place of file arguments)
CLI_CASES = [
    ("transit-single", ["transit", "--src", SINGLE[0], "--dst", SINGLE[1]]),
    ("transit-independent-3",
     ["transit", "--mode", "independent", "--src", INDEPENDENT[0], "--dst", INDEPENDENT[1]]),
    ("transit-distinct-3",
     ["transit", "--mode", "distinct", "--src", DISTINCT[0], "--dst", DISTINCT[1]]),
    ("canon-linear", ["canon", {"a": "7/3", "r": "x - 5"}]),
    ("canon-cubic", ["canon", {"a": "-11/4", "r": "3*x^3 - 1/2*x + 2"}]),
    ("functional-check-quadratic", ["functional", "check", "r=x^2 + x + 1"]),
]

# (name, argv) of commands whose stdout is plain text, pinned verbatim
TEXT_CASES = [
    ("functional-system-quadratic", ["functional", "system", "r=x^2 + x + 1", "n=2", "m=3"]),
    ("functional-system-cubic", ["functional", "system", "r=3*x^3 - 1/2*x + 2", "n=4", "m=4"]),
    ("functional-eliminate-quadratic", ["functional", "eliminate", "r=x^2 + x + 1", "t=6"]),
    ("functional-eliminate-cubic", ["functional", "eliminate", "r=3*x^3 - 1/2*x + 2", "t=7"]),
    ("functional-reduce-linear", ["functional", "reduce", "r=2*x - 3/5", "n=3", "m=4"]),
    ("functional-reduce-quadratic", ["functional", "reduce", "r=x^2 + x + 1", "n=2", "m=3"]),
    ("functional-reduce-cubic", ["functional", "reduce", "r=3*x^3 - 1/2*x + 2", "n=1", "m=2"]),
]


def selftest_details() -> dict:
    return {str(res.number): [res.passed, res.detail] for res in run_all(DEFAULT_SEED)}


def synthesis_words(pairs: int = 5) -> str:
    """sha256 of the JSON words of the three solvers on fixed-seed pairs, m = 1..6.

    Per m and pair: one independent-tuple word and two distinct-tuple words,
    the second with a dependent member; at m = 1 also a single word between
    operators with different base points.
    """
    rng = random.Random(DEFAULT_SEED)
    digest = hashlib.sha256()

    def add(word) -> None:
        digest.update(json.dumps(word_to_json(word)).encode() + b"\n")

    for m in range(1, 7):
        for _ in range(pairs):
            a, b = _rational(rng), _rational(rng)
            if m == 1:
                add(solve_single(_independent_tuple(rng, 1, a)[0], _independent_tuple(rng, 1, b)[0]))
            add(solve_tuple_independent(_independent_tuple(rng, m, a), _independent_tuple(rng, m, a)))
            for dependent in (False, True):
                src, dst = (_distinct_tuple(rng, m, a, dependent) for _ in range(2))
                add(solve_distinct_tuple(src, dst))
    return digest.hexdigest()


def cli_text(args: list) -> list:
    """Exit code and stdout of ``rbx`` on ``args``."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(args)
    return [code, out.getvalue()]


def cli_output(argv: list, tmp_path: Path) -> list:
    """Exit code and parsed stdout lines of ``rbx`` on ``argv``."""
    args = []
    for i, item in enumerate(argv):
        if isinstance(item, str):
            args.append(item)
            continue
        path = tmp_path / f"arg{i}.json"
        path.write_text(json.dumps(item))
        args.append(str(path))
    code, out = cli_text(args)
    return [code, [json.loads(line) for line in out.splitlines()]]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_selftest_details(golden):
    assert selftest_details() == golden["selftest"]


def test_synthesis_words(golden):
    assert synthesis_words() == golden["synthesis-words"]


@pytest.mark.parametrize("name,argv", CLI_CASES, ids=[name for name, _ in CLI_CASES])
def test_cli_output(name, argv, golden, tmp_path):
    assert cli_output(argv, tmp_path) == golden["cli"][name]


@pytest.mark.parametrize("name,argv", TEXT_CASES, ids=[name for name, _ in TEXT_CASES])
def test_cli_text(name, argv, golden):
    assert cli_text(argv) == golden["cli_text"][name]


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cli = {name: cli_output(argv, Path(tmp)) for name, argv in CLI_CASES}
    text = {name: cli_text(argv) for name, argv in TEXT_CASES}
    data = {
        "seed": DEFAULT_SEED, "selftest": selftest_details(), "cli": cli, "cli_text": text,
        "synthesis-words": synthesis_words(),
    }
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
