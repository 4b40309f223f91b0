"""Summarize the runs in perfbench/out/ per workload, and optionally write
them as one entry of the BENCH_*.json trajectory.

    python3 perfbench/record.py [--write perfbench/BENCH_<label>.json --note TEXT]

For each end-to-end metric it prints the median over runs, the quartiles
and their distance as a share of the median (the run-to-run spread), next
to the bound BENCHMARK.json fixes; per-layer metrics are medians over the
traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", type=Path)
    ap.add_argument("--note", default="")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    e2e: dict = defaultdict(lambda: defaultdict(list))
    layer: dict = defaultdict(lambda: defaultdict(list))
    seeds: dict = defaultdict(set)
    fingerprints = []
    failed = attempted = 0
    for path in sorted(OUT_DIR.glob("*.json")):
        rec = json.loads(path.read_text())
        fingerprints.append(rec["fingerprint"])
        res = rec["result"]
        failed, attempted = failed + res["failed"], attempted + res["attempted"]
        target = layer if rec["trace"] else e2e
        seeds[rec["workload"]].add(rec["seed"])
        for name, m in res["metrics"].items():
            target[rec["workload"]][name].append(m["value"])
    if any(fp != fingerprints[0] for fp in fingerprints):
        raise SystemExit("runs come from different machines; summarize them separately")

    summary = {}
    for workload in sorted(set(e2e) | set(layer)):
        rows = {name: spread(v) for name, v in e2e[workload].items()}
        for name, s in rows.items():
            b = bounds[name]
            flag = "" if s["spread"] < b / 3 else "  <-- not below a third of the bound"
            print(f"{workload:<22} {name:<12} median {s['median']:<12.6g} spread"
                  f" {s['spread']:.4f} bound {b} n={s['n']}{flag}")
        summary[workload] = {
            "seeds": sorted(seeds[workload]),
            "end_to_end": rows,
            "per_layer": {k: statistics.median(v) for k, v in layer[workload].items()},
        }
    print(f"fail_ratio {failed}/{attempted}")
    if args.write:
        args.write.write_text(json.dumps(
            {"fingerprint": fingerprints[0], "note": args.note, "failed": failed,
             "attempted": attempted, "workloads": summary}, indent=1) + "\n")


if __name__ == "__main__":
    main()
