"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N [--trace]

Prints one JSON line: the set-up and solve times, CPU seconds, peak RSS,
every check made on a computed value, and with --trace the spans and the
per-layer metrics.  The package is driven only through public functions.
Timing starts after `import mbfcount`, so interpreter start-up is excluded.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

from mbfcount import counting, layers, orbits
from mbfcount.errors import VerificationError

import spans

SAMPLE_FILE = Path(__file__).resolve().parent / "lambda9_sample.json"


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


class Checks:
    """Every check made on a computed value, passed or failed."""

    def __init__(self):
        self.items: list[dict] = []

    def expect(self, name: str, got, want) -> None:
        self.items.append({"name": name, "ok": got == want, "got": str(got), "want": str(want)})

    def verified(self, name: str, result) -> None:
        try:
            counting.verify_result(result)
        except VerificationError as e:
            self.items.append({"name": name, "ok": False, "detail": str(e)})
        else:
            self.items.append({"name": name, "ok": True})


def lambda9_cpu_h_est(kernel_s: float, total_terms: int, sample_terms: int) -> float:
    """Single-core hours for all base-5 terms at the sample's per-term rate."""
    return kernel_s * total_terms / sample_terms / 3600


def choose_sample(pool: list[list[dict]], seed: int) -> list[dict]:
    """One class from each pair of dual classes; both members of a pair have
    the same term count, so every seed measures the same amount of work."""
    rng = random.Random(seed)
    return [rng.choice(pair) for pair in pool]


def one_worker_layer(layer: layers.Layer) -> layers.Layer:
    """The slice classified at 1 worker in traced runs: the whole layer up to
    n=5; at n=6 the first eighth, which is the chunk each task gets at 2
    workers (all 720 relabelings, elementwise, so values do not matter)."""
    if layer.n < 6:
        return layer
    return layers.Layer(layer.n, layer.values[: -(-len(layer) // 8)])


# -- workloads ----------------------------------------------------------------
# Each returns set-up and solve samples in seconds, the CPU seconds of one
# set-up plus the solve, and the largest layer it classified.


PLUS2_SOLVES = 6  # a solve takes 0.4 s against 17 s of set-up; one sample is noise


def lambda8_plus2(seed, workers, checks, tr):
    t0, c0 = time.perf_counter(), cpu_seconds()
    with tr.span("bench.setup"):
        layer = layers.generate_layer(6)
        classes = orbits.classify(layer, workers)
    t1 = time.perf_counter()
    solve_s = []
    for i in range(PLUS2_SOLVES):
        t = time.perf_counter()
        with tr.span("bench.solve"):
            checks.verified("lambda8 by plus2", counting.lambda_plus2(layer, classes, workers))
        solve_s.append(time.perf_counter() - t)
        if i == 0:
            cpu = cpu_seconds() - c0
    return {"setup_s": [t1 - t0], "solve_s": solve_s, "cpu_s": cpu}, layer


SMALL_BASE_SETUPS = 5  # set-up takes milliseconds here; one sample is noise


def lambda8_small_base(seed, workers, checks, tr):
    setup_s = []
    for _ in range(SMALL_BASE_SETUPS):
        layers.clear_layer_cache()
        t0, c0 = time.perf_counter(), cpu_seconds()
        with tr.span("bench.setup"):
            l5 = layers.generate_layer(5)
            c5 = orbits.classify(l5, workers)
            l4 = layers.generate_layer(4)
            c4 = orbits.classify(l4, workers)
        t1 = time.perf_counter()
        setup_s.append(t1 - t0)
    with tr.span("bench.solve"):
        results = [
            counting.lambda_plus3(l5, c5, workers),
            counting.lambda_plus4_direct(l4, c4, workers, strategy="dense"),
            counting.lambda_plus4_classes(l4, c4, workers=workers),
        ]
        for r in results:
            checks.verified(f"lambda8 by {r.method}", r)
        checks.expect("plus3, plus4 and plus4c agree", len({r.value for r in results}), 1)
    t2 = time.perf_counter()
    return {"setup_s": setup_s, "solve_s": [t2 - t1], "cpu_s": cpu_seconds() - c0}, l5


def _plus4_base5_setup(checks):
    """Layer 5, its classes, and the one-off tables, which lambda_plus4_direct
    builds on every call: an empty class list times exactly those."""
    layer = layers.generate_layer(5)
    classes = orbits.classify(layer, 1)
    t = time.perf_counter()
    empty = counting.lambda_plus4_direct(layer, [], 1, strategy="pruned")
    tables_s = time.perf_counter() - t
    checks.expect("plus4 over no classes", empty.value, 0)
    return layer, classes, tables_s


def lambda9_plus4_sample(seed, workers, checks, tr):
    chosen = choose_sample(json.loads(SAMPLE_FILE.read_text())["pairs"], seed)
    t0, c0 = time.perf_counter(), cpu_seconds()
    with tr.span("bench.setup"):
        layer, classes, tables_a = _plus4_base5_setup(checks)
    t1 = time.perf_counter()
    by_rep = {c.representative.bits: c for c in classes}
    sample = [by_rep[int(c["rep"], 16)] for c in chosen]
    with tr.span(spans.SAMPLE_PHASE):
        t = time.perf_counter()
        value = counting.lambda_plus4_direct(layer, sample, 1, strategy="pruned").value
        sample_call_s = time.perf_counter() - t
        checks.expect("sample partial sum", value, sum(int(c["partial"]) for c in chosen))
    cpu = cpu_seconds() - c0
    t2 = time.perf_counter()
    # a second set-up after the sample, so the tables' time is a mean of two
    # measurements taken on either side of the kernel
    layers.clear_layer_cache()
    with tr.span("bench.setup"):
        t3 = time.perf_counter()
        _, _, tables_b = _plus4_base5_setup(checks)
        t4 = time.perf_counter()
    kernel_s = sample_call_s - (tables_a + tables_b) / 2
    sample_terms = counting.plus4_pruned_term_count(layer, sample)
    total_terms = counting.plus4_pruned_term_count(layer, classes)
    with tr.span("bench.check"):
        l4 = layers.generate_layer(4)
        r8 = counting.lambda_plus4_direct(l4, orbits.classify(l4, 1), 1, strategy="pruned")
        checks.verified("lambda8 by plus4 pruned", r8)
    return {
        "setup_s": [t1 - t0, t4 - t3],
        "solve_s": [kernel_s + (t2 - t1 - sample_call_s)],
        "cpu_s": cpu,
        "lambda9": {
            "sample": [c["rep"] for c in chosen],
            "kernel_s": kernel_s,
            "sample_terms": sample_terms,
            "total_terms": total_terms,
            "cpu_h_est": lambda9_cpu_h_est(kernel_s, total_terms, sample_terms),
        },
    }, layer


WORKLOADS = {
    "lambda8-plus2": lambda8_plus2,
    "lambda8-small-base": lambda8_small_base,
    "lambda9-plus4-sample": lambda9_plus4_sample,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    workers = len(os.sched_getaffinity(0))
    tr = spans.install() if args.trace else spans.NullTracer()
    checks = Checks()
    out, layer = WORKLOADS[args.workload](args.seed, workers, checks, tr)
    out["checks"] = checks.items
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    kids_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    out["peak_rss_mb"] = self_ru.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
    out["children_peak_rss_mb"] = kids_ru.ru_maxrss * 1024 / 1e6
    if args.trace:
        with tr.span(spans.ONE_WORKER_PHASE):
            orbits.classify(one_worker_layer(layer), 1)
        out["layer_metrics"] = spans.layer_metrics(
            tr.spans, out.get("lambda9", {}).get("sample_terms", 0)
        )
        out["spans"] = tr.spans
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
