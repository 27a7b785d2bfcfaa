"""Steadiness check: run each workload once per seed and report each metric's spread.

    python3 perfbench/steady.py --seeds 1-10 --seconds 25 --label a [--workloads synth,cli]
    python3 perfbench/steady.py --compare a b

The first form runs untraced runs and prints, for every end-to-end metric,
the median, the quartiles (``statistics.quantiles`` with n=4) and the
spread (upper minus lower quartile, over the median), next to the bound in
BENCHMARK.json.  The failed share of each run is printed too; it must be
the same in every run.  Results go to
``perfbench/results/steady-<workload>-<label>.json``.  The second form reads
two labelled sets and prints each median of the second set relative to the
first (positive: worse), next to the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synth", "canon", "coords", "cli")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def result_file(workload: str, label: str) -> Path:
    return HERE / "results" / f"steady-{workload}-{label}.json"


def run_set(args, bounds: dict) -> None:
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        result_file(workload, args.label).write_text(json.dumps(runs))
        shares = sorted({str(Fraction(r["failed"], r["attempted"])) for r in runs})
        print(f"\n{workload}: correct {all(r['correct'] for r in runs)}, failed share {shares}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:<16} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {(q3 - q1) / med:7.2%}  bound {bounds[name]['bound']}", flush=True)


def compare(first: str, second: str, bounds: dict) -> None:
    for workload in WORKLOADS:
        sets = []
        for label in (first, second):
            path = result_file(workload, label)
            if not path.exists():
                break
            sets.append(json.loads(path.read_text()))
        if len(sets) < 2:
            continue
        shares = [sorted({Fraction(r["failed"], r["attempted"]) for r in runs})
                  for runs in sets]
        print(f"{workload}: failed share {[str(s) for s in shares[0]]} "
              f"vs {[str(s) for s in shares[1]]}")
        for name, spec in bounds.items():
            meds = [statistics.median(r["metrics"][name]["value"] for r in runs)
                    for runs in sets]
            worse = (meds[1] - meds[0]) / meds[0]
            if spec["better"] == "higher":
                worse = -worse
            print(f"  {name:<16} median {meds[0]:12.4f} -> {meds[1]:12.4f}  "
                  f"worse by {worse:+7.2%}  bound {spec['bound']}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--label", default="a")
    ap.add_argument("--compare", nargs=2, metavar="LABEL")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    if args.compare:
        compare(*args.compare, bounds)
    else:
        run_set(args, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
