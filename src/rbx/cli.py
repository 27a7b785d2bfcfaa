"""Command-line front end: rbx verify|canon|functional|act|transit|orbit|selftest.

File arguments accept ``-`` for stdin.  Exit codes: 0 success, 1 a check
came back false (identity violated, not in orbit, membership check failed),
2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .actions import (
    affine_orbit_word,
    apply_word,
    apply_word_tuple,
    word_from_json,
    word_to_json,
)
from .functionals import (
    coordinate_equation,
    curve_coords,
    elimination_polynomial,
    recover_base_point,
    reduced_equation,
    satisfies_system,
)
from .mpoly import DegreeCapExceeded
from .operators import (
    AnalyticOp,
    Inconsistent,
    NoRationalBasePoint,
    NotMultiplierType,
    TruncOp,
    TruncationTooSmall,
    ZeroMultiplier,
    first_rb_failure,
    operator_to_point,
)
from .poly import Poly, _clip, as_rat, rat_text
from .transitivity import solve_distinct_tuple, solve_single, solve_tuple_independent

_DOMAIN_ERRORS = (
    NotMultiplierType,
    ZeroMultiplier,
    NoRationalBasePoint,
    Inconsistent,
    TruncationTooSmall,
)
_VERIFY_DEGREE_CAP = 128  # rbx verify's work grows with the square of --degree


class InputError(ValueError):
    """Unreadable or malformed input file."""


def _load(path: str, build, what: str):
    """Read ``path`` (``-`` for stdin), parse its JSON and ``build`` one value from it.

    Any failure is one :class:`InputError`, labelled by its step, naming the path once.
    """
    label = f"cannot read {path}"
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        label = f"{path}: invalid JSON"
        data = json.loads(text)
        label = f"{path}: bad {what} payload"
        return build(data)
    except (OSError, RecursionError, KeyError, ValueError, TypeError) as exc:
        raise InputError(f"{label}: {exc}") from exc


def _point(data) -> AnalyticOp:
    """A moduli point from its JSON object."""
    if not isinstance(data, dict):
        raise TypeError("expected an operator object")
    return AnalyticOp.from_json(data)


def _point_or_truncation(data) -> "AnalyticOp | TruncOp":
    """A truncation where the object carries images, else a moduli point."""
    if isinstance(data, dict) and "images" in data:
        return TruncOp.from_json(data)
    return _point(data)


def _points(data) -> "AnalyticOp | list[AnalyticOp]":
    """One moduli point or a non-empty array of them, in the shape given."""
    if isinstance(data, list):
        if not data:
            raise ValueError("expected an operator or a non-empty operator array")
        return [_point(item) for item in data]
    return _point(data)


def _keyvals(pairs: list[str]) -> dict[str, str]:
    out = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise InputError(f"expected key=value, got {item!r}")
        out[key] = value
    return out


# -- subcommands -------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> int:
    op = _load(args.opfile, _point_or_truncation, "operator")
    try:
        weight = as_rat(args.weight)
    except ValueError as exc:
        raise InputError(f"bad weight {args.weight!r}") from exc
    degree = args.degree
    if degree > _VERIFY_DEGREE_CAP:
        raise InputError(f"--degree {degree} exceeds cap {_VERIFY_DEGREE_CAP}")
    if isinstance(op, AnalyticOp):
        # first_rb_failure refuses a negative degree
        trunc = op.truncate(max(2 * degree + op.r.degree + 1, 0))
    else:
        trunc = op
    try:
        failure = first_rb_failure(trunc, weight, degree)
    except TruncationTooSmall as exc:
        raise InputError(f"truncation cannot support degree {degree}: {exc}") from exc
    if failure is None:
        print(json.dumps({"holds": True, "weight": rat_text(weight), "degree": degree}))
        return 0
    print(
        json.dumps(
            {"holds": False, "weight": rat_text(weight), "degree": degree, "first_failure": list(failure)}
        )
    )
    return 1


def _cmd_canon(args: argparse.Namespace) -> int:
    op = _load(args.opfile, _point_or_truncation, "operator")
    if isinstance(op, AnalyticOp):
        trunc = op.truncate(op.r.degree + 1)
    else:
        trunc = op
    try:
        point = operator_to_point(trunc)
    except _DOMAIN_ERRORS as exc:
        print(f"canonicalization failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(point.to_json()))
    return 0


def _parse_context(values: dict[str, str]) -> Poly:
    if "r" not in values:
        raise InputError("missing r=<polynomial>")
    return Poly.from_text(values["r"])


def integer(text: str) -> int:
    """An optionally signed run of ASCII digits within int()'s limit; errors quote it clipped."""
    try:
        if re.fullmatch(r"[+-]?[0-9]+", text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise argparse.ArgumentTypeError(f"invalid integer value: {_clip(text)}")


def _need_int(values: dict[str, str], key: str) -> int:
    if key not in values:
        raise InputError(f"missing {key}=<int>")
    try:
        return integer(values[key])
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"bad integer for {key}: {_clip(values[key])}") from exc


def _cmd_functional(args: argparse.Namespace) -> int:
    values = _keyvals(args.params)
    r = _parse_context(values)
    if args.subcommand == "system":
        print(coordinate_equation(r, _need_int(values, "n"), _need_int(values, "m")).to_text())
        return 0
    if args.subcommand == "eliminate":
        print(elimination_polynomial(r, _need_int(values, "t")).to_text())
        return 0
    if args.subcommand == "reduce":
        print(reduced_equation(r, _need_int(values, "n"), _need_int(values, "m")).to_text())
        return 0
    # check: sampled curve heads must be members with recoverable base point,
    # off-curve bumps must be rejected (degree-0 contexts have none).
    k = r.degree

    def report(head: tuple[Fraction, ...]) -> tuple[bool, Fraction | None]:
        member = satisfies_system(r, head, args.budget)
        a = recover_base_point(r, head)
        print(json.dumps({"member_Mr": member, "a": rat_text(a) if a is not None else None}))
        return member, a

    samples = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 2)]
    ok = True
    for a in samples:
        head = curve_coords(r, a, k + 1).c
        member, recovered = report(head)
        ok = ok and member and recovered == a
        if k == 0:
            continue
        for j in range(k + 1):
            bumped_member, _ = report(head[:j] + (head[j] + 1,) + head[j + 1 :])
            ok = ok and not bumped_member
    print("check passed" if ok else "check failed", file=sys.stderr)
    return 0 if ok else 1


def _cmd_act(args: argparse.Namespace) -> int:
    word = _load(args.word, word_from_json, "word")
    ops = _load(args.op, _points, "operator")
    if isinstance(ops, list):
        print(json.dumps([op.to_json() for op in apply_word_tuple(word, ops)]))
    else:
        print(json.dumps(apply_word(word, ops).to_json()))
    return 0


def _cmd_transit(args: argparse.Namespace) -> int:
    if args.mode == "single":
        src, dst = (_load(path, _point, "operator") for path in (args.src, args.dst))
        word = solve_single(src, dst)
    else:
        loaded = [_load(path, _points, "operator") for path in (args.src, args.dst)]
        # one operator stands for the tuple of length one
        src, dst = ([ops] if isinstance(ops, AnalyticOp) else ops for ops in loaded)
        solver = solve_tuple_independent if args.mode == "independent" else solve_distinct_tuple
        word = solver(src, dst)
    # the solvers verify their words before returning and raise otherwise
    print(json.dumps({"word": word_to_json(word), "word_length": len(word), "verified": True}))
    return 0


def _cmd_orbit(args: argparse.Namespace) -> int:
    op1, op2 = (_load(path, _point, "operator") for path in (args.op1, args.op2))
    word = affine_orbit_word(op1, op2)
    if word is None:
        print(json.dumps({"in_orbit": False, "word": None}))
        return 1
    print(json.dumps({"in_orbit": True, "word": word_to_json(word)}))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import DEFAULT_SEED, run_all  # loaded only for the one command that runs it
    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = run_all(seed)
    width = max(len(res.name) for res in results)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"criterion {res.number:>2}  {res.name:<{width}}  {status}  {res.seconds:7.2f}s")
        if not res.passed:
            print(f"    {res.detail}")
    passed = sum(res.passed for res in results)
    print(f"selftest: {passed}/{len(results)} criteria passed (seed {seed})")
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbx",
        description="Exact computation with integration-type operators on Q[x].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the Rota-Baxter identity on an operator file")
    p.add_argument("opfile", help="operator JSON (moduli point or truncation); - for stdin")
    p.add_argument("--lambda", dest="weight", default="0", help="identity weight (rational)")
    p.add_argument("--degree", type=integer, default=8, help="check all monomial pairs up to this degree")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("canon", help="canonicalize a truncated operator to its moduli point")
    p.add_argument("opfile", help="operator JSON; - for stdin")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("functional", help="coordinate system, elimination and membership checks")
    p.add_argument("subcommand", choices=["system", "eliminate", "reduce", "check"])
    p.add_argument("params", nargs="*", help="key=value parameters: r=<poly> n=<int> m=<int> t=<int>")
    p.add_argument("--budget", type=integer, default=None,
                   help="membership check degree budget (default: the exact check)")
    p.set_defaults(func=_cmd_functional)

    p = sub.add_parser("act", help="apply a word of generators to an operator or tuple")
    p.add_argument("--word", required=True, help="word JSON file; - for stdin")
    p.add_argument("--op", required=True, help="operator or operator-array JSON file")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("transit", help="synthesize a verified word between operators or tuples")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--mode", choices=["single", "independent", "distinct"], default="single")
    p.set_defaults(func=_cmd_transit)

    p = sub.add_parser("orbit", help="decide conjugation orbits of operators")
    p.add_argument("--aut", action="store_true", required=True, help="affine-substitution orbit")
    p.add_argument("op1")
    p.add_argument("op2")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.add_argument("--seed", type=integer, default=None, help="default: rbx.selftest.DEFAULT_SEED")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (``rbx selftest | head -1``); send what is
        # still buffered to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, DegreeCapExceeded) as exc:
        # argument-contract violations of any flavour: malformed files,
        # unparsable polynomials, tuples that break a solver precondition,
        # equations too large for the degree cap
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
