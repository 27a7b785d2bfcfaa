"""One benchmark process: set up a workload, then run it closed-loop and report.

Run by ``run.py``; prints one JSON object on its last stdout line.  With
``--setup-only`` it stops after set-up and reports only its duration.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-layer metrics: (name, unit).  Counts and self times are per attempted
# request of the traced run.
LAYER_METRICS = [
    ("poly.mul.calls", "count"), ("poly.mul.self_ms", "ms"),
    ("poly.eval.calls", "count"), ("poly.eval.self_ms", "ms"),
    ("poly.add.self_ms", "ms"), ("poly.compose_affine.self_ms", "ms"),
    ("poly.integrate_at.self_ms", "ms"), ("poly.lagrange.self_ms", "ms"),
    ("poly.rational_roots.calls", "count"), ("poly.rational_roots.self_ms", "ms"),
    ("poly.coef_bits_max", "bits"),
    ("mpoly.mul.calls", "count"), ("mpoly.mul.self_ms", "ms"),
    ("mpoly.subst.self_ms", "ms"), ("mpoly.eval_at.self_ms", "ms"),
    ("mpoly.terms_max", "count"),
    ("linalg.rank.calls", "count"), ("linalg.rank.self_ms", "ms"),
    ("linalg.det.self_ms", "ms"),
    ("operators.truncate.self_ms", "ms"), ("operators.is_rb_upto.self_ms", "ms"),
    ("operators.operator_to_point.self_ms", "ms"),
    ("functionals.elimination_polynomial.calls", "count"),
    ("functionals.elimination_polynomial.self_ms", "ms"),
    ("functionals.elim_cache_hit_ratio", "ratio"),
    ("functionals.satisfies_system.self_ms", "ms"),
    ("functionals.reduced_equation.self_ms", "ms"),
    ("functionals.recover_base_point.self_ms", "ms"),
    ("actions.gen_apply.calls", "count"), ("actions.gen_apply.self_ms", "ms"),
    ("actions.replay_ratio", "ratio"),
    ("transitivity.solve_single.self_ms", "ms"),
    ("transitivity.solve_tuple_independent.self_ms", "ms"),
    ("transitivity.solve_distinct_tuple.self_ms", "ms"),
    ("transitivity.make_independent.self_ms", "ms"),
    ("transitivity.select_basepoints.self_ms", "ms"),
    ("transitivity.diagonalize_tuple.self_ms", "ms"),
    ("transitivity.bridge_tuple.self_ms", "ms"),
    ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.main_ms", "ms"),
]

def percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(stats: dict, peaks: dict, requests: int, gens: int,
                  cache: "tuple[int, int] | None", cli_ms: dict) -> dict:
    def per(name, field):
        calls, self_s = stats.get(name, (0, 0.0))
        return calls / requests if field == "calls" else self_s * 1000 / requests

    values = {}
    for name, unit in LAYER_METRICS:
        base, _, field = name.rpartition(".")
        if field in ("calls", "self_ms"):
            values[name] = per(base, field)
    values["poly.coef_bits_max"] = peaks.get("coef_bits_max", 0)
    values["mpoly.terms_max"] = peaks.get("terms_max", 0)
    hits, calls = cache or (0, 0)
    values["functionals.elim_cache_hit_ratio"] = hits / calls if calls else 0.0
    applied = stats.get("actions.gen_apply", (0, 0.0))[0]
    values["actions.replay_ratio"] = applied / gens if gens else 0.0
    values.update(cli_ms)
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    traced = bool(args.trace)

    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    if args.workload != "cli":
        import rbx

        if Path(rbx.__file__).resolve().parent != ROOT / "src" / "rbx":
            print(f"rbx imported from {rbx.__file__}, not from this checkout", file=sys.stderr)
            return 2
    import workloads

    tracer = None
    if traced and args.workload != "cli":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    kwargs = {"traced": traced} if args.workload == "cli" else {}
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, **kwargs)
    try:
        pending = wl.round(0)
        wl.warm_up()
        setup_s = perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(wl, pending, args, tracer)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


def measure(wl, pending, args, tracer) -> dict:
    is_cli = wl.name == "cli"
    latencies, busy, attempted, failed = [], 0.0, 0, 0
    gens = nbytes = sized = 0
    problems, failures = [], {}
    cli_interp = []
    cache0 = tracer.cache_counts() if tracer else None
    start = perf_counter()
    deadline = start + args.seconds
    by_kind: dict = {}
    i = 0
    while True:
        done = []
        for req in pending:
            if tracer:
                tracer.begin()
            t0 = perf_counter()
            try:
                out = wl.execute(req)
                dt = perf_counter() - t0
                if is_cli:
                    if args.trace:
                        wl.record_trace(out)
                    wl.outcome(req, out)
                ok = True
            except Exception as exc:  # a failed operation, counted and reported
                dt = perf_counter() - t0
                out, ok = exc, False
            if tracer:
                tracer.end()
            attempted += 1
            busy += dt
            if ok:
                latencies.append(dt)
                by_kind.setdefault(req["label"], []).append(dt * 1000)
                done.append((req, out))
            else:
                failed += 1
                key = f"{type(out).__name__}: {out}"[:200]
                failures[key] = failures.get(key, 0) + 1
        for req, out in done:
            bad = wl.check(req, out)
            if bad:
                problems.append(bad)
                continue
            sz = wl.size(req, out)
            if sz:
                gens += sz[0]
                nbytes += sz[1]
                sized += 1
        if is_cli and args.trace:
            cli_interp.append(bare_start(wl))
        i += 1
        if i == wl.rss_rounds:
            rss_kb = peak_rss_kb(is_cli)
        # A run ends after --seconds, but not before rss_rounds rounds, so
        # that peak memory always follows the same work.
        if i >= wl.rss_rounds and perf_counter() >= deadline:
            break
        pending = wl.round(i)

    result = {
        "rounds": i, "attempted": attempted, "failed": failed, "failures": failures,
        "problems": problems[:20], "correct": not problems, "busy_s": busy,
        "completed": len(latencies),
        "median_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
    }
    if tracer or (is_cli and args.trace):
        if is_cli:
            stats, peaks, cache = merge_child_traces(wl.child_traces)
            cli_ms = {"cli.interp_ms": statistics.median(cli_interp),
                      "cli.import_ms": statistics.median(
                          t["import_s"] * 1000 for t in wl.child_traces),
                      "cli.main_ms": statistics.median(
                          t["main_s"] * 1000 for t in wl.child_traces)}
        else:
            summary = tracer.summary()
            stats, peaks = summary["stats"], summary["peaks"]
            c1 = tracer.cache_counts()
            cache = (c1[0] - cache0[0], c1[1] - cache0[1]) if c1 and cache0 else None
            cli_ms = {"cli.interp_ms": 0.0, "cli.import_ms": 0.0, "cli.main_ms": 0.0}
        result["layers"] = layer_metrics(stats, peaks, attempted, gens, cache, cli_ms)
        result["throughput_rps"] = len(latencies) / busy
        result["elim_cache"] = cache
        result["stats"] = stats
        return result
    result["e2e"] = {
        "throughput_rps": len(latencies) / busy,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": percentile(latencies, wl.tail_pct) * 1000,
        "peak_rss_mb": rss_kb / 1024,
        "word_gens": gens / sized if sized else 0.0,
        "word_bytes": nbytes / sized if sized else 0.0,
    }
    result["tail_pct"] = wl.tail_pct
    result["final_peak_rss_mb"] = peak_rss_kb(is_cli) / 1024
    return result


def peak_rss_kb(is_cli: bool) -> int:
    """Peak resident memory of this process, or of its largest child for ``cli``."""
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def bare_start(wl) -> float:
    """Milliseconds to start and stop the interpreter with nothing to run."""
    import subprocess

    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=wl.env, cwd=wl.root, check=True)
    return (perf_counter() - t0) * 1000


def merge_child_traces(traces: list) -> tuple:
    stats: dict = {}
    peaks = {"coef_bits_max": 0, "terms_max": 0}
    hits = calls = 0
    cached = False
    for t in traces:
        for name, (n, s) in t["stats"].items():
            acc = stats.setdefault(name, [0, 0.0])
            acc[0] += n
            acc[1] += s
        for key in peaks:
            peaks[key] = max(peaks[key], t["peaks"][key])
        if t["cache"] is not None:
            cached = True
            hits += t["cache"][0]
            calls += t["cache"][1]
    return stats, peaks, (hits, calls) if cached else None


if __name__ == "__main__":
    sys.exit(main())
