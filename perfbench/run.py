"""mbfcount benchmark: time to a verified value on each route.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Each repetition runs in a fresh process (perfbench/rep.py), and
repetitions continue until S seconds have passed and at least two set-ups
were timed (a repetition is never cut short).  With --trace 0 the last
line of standard output is the end-to-end result; with --trace 1 the run
makes one untraced and one traced repetition and reports the per-layer
metrics and the tracing overhead.  Every value computed is checked; the
full record, with a machine fingerprint, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
RUN_LIMIT_S = 170  # every run must end within 180 s
MIN_SETUPS = 2  # setup_s is a median over at least this many set-ups

WORKLOADS = ("lambda8-plus2", "lambda8-small-base", "lambda9-plus4-sample")
E2E_UNITS = {"setup_s": "s", "solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, better, the end-to-end metric and workload it
# should move); BENCHMARK.json lists name, unit and better only
LAYER_METRICS = {
    "layers.generate_s": ("s", "lower", "setup_s on lambda8-plus2"),
    "layers.elements": ("count", "lower", "setup_s on lambda8-plus2"),
    "orbits.classify_s": ("s", "lower", "setup_s, cpu_s, peak_rss_mb on lambda8-plus2"),
    "orbits.classes": ("count", "lower", "setup_s on lambda8-plus2"),
    "orbits.elem_perms_per_s": ("1/s", "higher", "setup_s, cpu_s on lambda8-plus2"),
    "orbits.classify_1w_s": ("s", "lower", "setup_s on lambda8-plus2 (1 worker)"),
    "orbits.elem_perms_per_s_1w": ("1/s", "higher", "setup_s on lambda8-plus2 (1 worker)"),
    "vecbits.digit_transpose_s": ("s", "lower", "setup_s on the base-4/5 workloads (in-process only)"),
    "vecbits.digit_transpose_calls": ("count", "lower", "setup_s (in-process only)"),
    "vecbits.digit_transpose_1w_s": ("s", "lower", "setup_s on lambda8-plus2 (1 worker)"),
    "vecbits.digit_transpose_1w_calls": ("count", "lower", "setup_s on lambda8-plus2 (1 worker)"),
    "vecbits.dual_array_s": ("s", "lower", "setup_s on lambda8-plus2"),
    "intervals.upward_counts_s": ("s", "lower", "solve_s on lambda8-plus2"),
    "intervals.upward_points": ("count", "lower", "solve_s on lambda8-plus2"),
    "intervals.full_table_s": ("s", "lower", "setup_s on lambda9-plus4-sample, solve_s on lambda8-small-base"),
    "intervals.full_table_mb": ("MB", "lower", "peak_rss_mb on lambda9-plus4-sample"),
    "counting.plus2_self_s": ("s", "lower", "solve_s on lambda8-plus2"),
    "counting.plus3_self_s": ("s", "lower", "solve_s on lambda8-small-base"),
    "counting.plus4_self_s": ("s", "lower", "solve_s on lambda8-small-base"),
    "counting.plus4c_self_s": ("s", "lower", "solve_s on lambda8-small-base"),
    "counting.plus4_terms": ("count", "lower", "solve_s on lambda9-plus4-sample"),
    "counting.plus4_terms_per_s": ("1/s", "higher", "solve_s on lambda9-plus4-sample"),
    "counting.lambda9_cpu_h_est": ("h", "lower", "solve_s on lambda9-plus4-sample"),
    "parallel.run_tasks_s": ("s", "lower", "solve_s, cpu_s on lambda8-small-base; setup_s on lambda8-plus2"),
    "parallel.tasks": ("count", "lower", "solve_s on lambda8-small-base"),
    "parallel.workers": ("count", "higher", "solve_s on lambda8-small-base"),
    "parallel.child_cpu_s": ("s", "lower", "cpu_s on lambda8-small-base and lambda8-plus2"),
    "parallel.busy_ratio": ("ratio", "higher", "solve_s on lambda8-small-base"),
    "parallel.children_peak_rss_mb": ("MB", "lower", "none: worker memory, not in peak_rss_mb"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced set-up plus solve"),
}


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return math.floor(100 * (1 - 10 / n)) if n > 10 else None


def summarize(values: list[float]) -> dict:
    """Median, the tail percentile the sample count supports, and the count."""
    s = {"median": statistics.median(values), "n": len(values), "max": max(values)}
    p = tail_percentile(len(values))
    if p is not None:
        s[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return s


def tally(reps: list[dict | None]) -> tuple[int, int]:
    """(attempted, failed) over every check; a repetition that died counts
    as one attempt that failed."""
    attempted = failed = 0
    for rep in reps:
        if rep is None:
            attempted, failed = attempted + 1, failed + 1
            continue
        attempted += len(rep["checks"])
        failed += sum(not c["ok"] for c in rep["checks"])
    return attempted, failed


def fingerprint() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def run_rep(workload: str, seed: int, trace: bool, timeout: float) -> dict | None:
    """One repetition in a fresh process; None if it failed to report."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # own session, so a timeout can stop the worker processes it forked
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        print(f"repetition of {workload} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.strip():
        print(f"repetition of {workload} failed (exit {proc.returncode}):\n{err}", file=sys.stderr)
        return None
    rep = json.loads(out.strip().splitlines()[-1])
    rep["proc_s"] = time.perf_counter() - t0
    return rep


def timed_s(rep: dict) -> float:
    """Seconds the repetition spent in measured set-up and solve."""
    return sum(rep["setup_s"]) + sum(rep["solve_s"])


def e2e_metrics(reps: list[dict]) -> dict[str, list[float]]:
    return {
        "setup_s": [x for r in reps for x in r["setup_s"]],
        "solve_s": [x for r in reps for x in r["solve_s"]],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def print_metric(name: str, unit: str, s: dict, note: str = "") -> None:
    tail = next((f"{k} {v:.6g}" for k, v in s.items() if k.startswith("p")),
                f"max {s['max']:.6g} (too few for a percentile with ten beyond it)")
    print(f"{name:<32} median {s['median']:.6g} {unit}  {tail}  n={s['n']}{note}")


def main() -> int:
    ap = argparse.ArgumentParser(description="mbfcount benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "mbfcount" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    reps: list[dict | None] = []
    traced = None
    if args.trace:
        reps.append(run_rep(args.workload, args.seed, False, RUN_LIMIT_S / 2))
        traced = run_rep(args.workload, args.seed, True, RUN_LIMIT_S - (time.perf_counter() - start))
        reps.append(traced)
    else:
        while True:
            elapsed = time.perf_counter() - start
            setups = sum(len(r["setup_s"]) for r in reps)
            if reps and elapsed >= args.seconds and setups >= MIN_SETUPS:
                break
            if reps and RUN_LIMIT_S - elapsed < 1.5 * reps[-1]["proc_s"]:
                break
            reps.append(run_rep(args.workload, args.seed, False, RUN_LIMIT_S - elapsed))
            if reps[-1] is None:
                break
    good = [r for r in reps if r is not None]
    attempted, failed = tally(reps)

    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions,"
          f" nproc {len(os.sched_getaffinity(0))}")
    metrics: dict[str, dict] = {}
    clean = [r for r in good if "layer_metrics" not in r]
    if args.trace and traced is not None and clean:
        layer = dict(traced["layer_metrics"])
        layer["counting.lambda9_cpu_h_est"] = clean[0].get("lambda9", {}).get("cpu_h_est", 0.0)
        layer["parallel.children_peak_rss_mb"] = clean[0]["children_peak_rss_mb"]
        layer["trace.overhead_s"] = timed_s(traced) - timed_s(clean[0])
        for name, value in layer.items():
            unit, _, moves = LAYER_METRICS[name]
            print(f"{name:<32} {value:.6g} {unit}  n=1  -> {moves}")
        print(f"tracing overhead {layer['trace.overhead_s']:+.3f} s on"
              f" {timed_s(clean[0]):.3f} s untraced")
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in layer.items()}
    elif clean:
        for name, values in e2e_metrics(clean).items():
            s = summarize(values)
            print_metric(name, E2E_UNITS[name], s)
            metrics[name] = {"value": s["median"], "unit": E2E_UNITS[name]}
        est = [r["lambda9"] for r in clean if "lambda9" in r]
        if est:
            last = est[-1]
            print_metric("lambda9_cpu_h_est", "h", summarize([e["cpu_h_est"] for e in est]),
                         f"  (kernel {last['kernel_s']:.3f} s over {last['sample_terms']:,}"
                         f" of {last['total_terms']:,} terms)")
        print_metric("children_peak_rss_mb", "MB",
                     summarize([r["children_peak_rss_mb"] for r in clean]))
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for rep in good:
        for c in rep["checks"]:
            if not c["ok"]:
                print(f"FAILED check {c['name']}: {c}", file=sys.stderr)

    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = {"fingerprint": fingerprint(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "reps": reps, "result": result}
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    if not metrics:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
