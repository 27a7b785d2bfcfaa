"""rbx benchmark: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload {synth,canon,coords,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of an rbx checkout; rbx is imported from ``src/``.  With
``--trace 0`` the last stdout line holds the end-to-end metrics: the work
runs in a fresh worker process, and set-up is repeated in
``SETUP_REPEATS - 1`` further processes so that ``setup_s`` is a median.
With ``--trace 1`` one worker runs with every public rbx function wrapped
in a span and the line holds the per-layer metrics.  Each run also writes
its full record (per-kind medians, failures, set-up samples, per-name span
totals of a traced run) to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synth", "canon", "coords", "cli")
SETUP_REPEATS = 7
# Time allowed for the whole run beyond --seconds: the set-ups, the round
# in progress when --seconds ends, and the output checks.
RUN_MARGIN_S = 140


def worker(args, extra: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "rbx" / "__init__.py").is_file():
        print(f"no rbx sources under {ROOT / 'src'}: run from an rbx checkout",
              file=sys.stderr)
        return 2

    deadline = perf_counter() + args.seconds + RUN_MARGIN_S
    try:
        if args.trace:
            record = worker(args, [], deadline)
            metrics = record["layers"]
        else:
            setups = [worker(args, ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS - 1)]
            record = worker(args, [], deadline)
            setups.append(record["setup_s"])
            record["setup_runs_s"] = setups
            units = {"throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                     "peak_rss_mb": "MB", "word_gens": "count", "word_bytes": "bytes"}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in record["e2e"].items()}
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))
    for problem in record["problems"]:
        print(f"incorrect: {problem}", file=sys.stderr)
    for failure, count in record["failures"].items():
        print(f"failed x{count}: {failure}", file=sys.stderr)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
