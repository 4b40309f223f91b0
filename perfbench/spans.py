"""In-memory spans around the package's public functions, and the
per-layer metrics derived from them.

The tracer replaces each traced name in the module where its caller looks
it up: `counting` imports `build_full_table`, `upward_counts` and
`classify` by name, while `orbits` calls `vecbits.digit_transpose` and
every module calls `parallel.run_tasks` through the module attribute.
Spans are recorded in the tracing process only; a forked worker calls the
original function, because whatever it recorded would die with it.
"""

from __future__ import annotations

import functools
import os
import resource
from contextlib import contextmanager
from math import factorial
from time import perf_counter

from mbfcount import counting, layers, orbits, parallel, vecbits

ONE_WORKER_PHASE = "bench.classify_1w"
SAMPLE_PHASE = "bench.sample"


def _cpu() -> tuple[float, float]:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime, c.ru_utime + c.ru_stime


class Tracer:
    """Spans as dicts: name, parent index, start/end, CPU deltas, counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._pid = os.getpid()
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        s = {"name": name, "parent": self._open[-1] if self._open else None}
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        cpu_self, cpu_children = _cpu()
        s["start"] = perf_counter()
        try:
            yield s
        finally:
            s["end"] = perf_counter()
            now_self, now_children = _cpu()
            s["cpu_self"] = now_self - cpu_self
            s["cpu_children"] = now_children - cpu_children
            self._open.pop()

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Replace module.attr by a function that records a span per call."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return original(*args, **kwargs)
            with self.span(name) as s:
                result = original(*args, **kwargs)
                if counts is not None:
                    s.update(counts(args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


class NullTracer:
    """Stands in for Tracer in untraced runs: phases cost nothing."""

    @contextmanager
    def span(self, name: str):
        yield {}


def _classify_counts(args, kwargs, result):
    layer = args[0]
    return {
        "elements": len(layer),
        "classes": len(result),
        "elem_perms": len(layer) * (factorial(layer.n) - 1),
    }


def _run_tasks_counts(args, kwargs, result):
    # mirrors run_tasks: inline unless more than one worker and one task
    tasks = args[1] if len(args) > 1 else kwargs["tasks"]
    workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
    n = len(tasks)
    return {"tasks": n, "workers": min(workers, n) if workers > 1 and n > 1 else 1}


def install() -> Tracer:
    """Trace every public function the benchmark reaches, where it is looked up."""
    tr = Tracer()
    tr.wrap(layers, "generate_layer", "layers.generate_layer", lambda a, k, r: {"elements": len(r)})
    for module in (orbits, counting):
        tr.wrap(module, "classify", "orbits.classify", _classify_counts)
    tr.wrap(vecbits, "digit_transpose", "vecbits.digit_transpose")
    tr.wrap(vecbits, "dual_array", "vecbits.dual_array")
    tr.wrap(counting, "upward_counts", "intervals.upward_counts", lambda a, k, r: {"points": len(r)})
    tr.wrap(counting, "build_full_table", "intervals.build_full_table",
            lambda a, k, r: {"mb": r.counts.nbytes / 1e6})
    tr.wrap(parallel, "run_tasks", "parallel.run_tasks", _run_tasks_counts)
    for fn in ("lambda_plus2", "lambda_plus3", "lambda_plus4_direct", "lambda_plus4_classes",
               "plus4_pruned_term_count", "verify_result"):
        tr.wrap(counting, fn, f"counting.{fn}")
    return tr


# -- derivation ---------------------------------------------------------------


def duration(s: dict) -> float:
    return s["end"] - s["start"]


def self_time(spans: list[dict], i: int) -> float:
    """Span i's duration minus the part of it its direct children cover."""
    lo, hi = spans[i]["start"], spans[i]["end"]
    kids = sorted(
        (max(s["start"], lo), min(s["end"], hi)) for s in spans if s["parent"] == i
    )
    covered, reach = 0.0, lo
    for a, b in kids:
        a = max(a, reach)
        if b > a:
            covered += b - a
            reach = b
    return (hi - lo) - covered


def _ancestors(spans: list[dict], i: int):
    p = spans[i]["parent"]
    while p is not None:
        yield spans[p]["name"]
        p = spans[p]["parent"]


def select(spans: list[dict], name: str, inside: str | None = None,
           outside: str | None = None) -> list[int]:
    """Indices of outermost spans called name (no enclosing span of the same
    name), optionally only inside, or only outside, a phase span."""
    out = []
    for i, s in enumerate(spans):
        if s["name"] != name:
            continue
        anc = list(_ancestors(spans, i))
        if name in anc or (inside and inside not in anc) or (outside and outside in anc):
            continue
        out.append(i)
    return out


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[dict], plus4_terms: int = 0) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, as totals over every call
    it made (lambda8-plus2 solves six times, lambda9-plus4-sample calls
    lambda_plus4_direct four times).

    Spans inside the 1-worker classification phase feed only the *_1w
    metrics; every other metric comes from the workload itself.  A layer
    the workload never calls reads 0.
    """
    def main(name):
        return [spans[i] for i in select(spans, name, outside=ONE_WORKER_PHASE)]

    def one(name):
        return [spans[i] for i in select(spans, name, inside=ONE_WORKER_PHASE)]

    def total(ss, key=None):
        return sum(s[key] for s in ss) if key else sum(duration(s) for s in ss)

    def self_total(name):
        return sum(self_time(spans, i) for i in select(spans, name, outside=ONE_WORKER_PHASE))

    gen, cls, cls1 = main("layers.generate_layer"), main("orbits.classify"), one("orbits.classify")
    dt, dt1 = main("vecbits.digit_transpose"), one("vecbits.digit_transpose")
    up, ft = main("intervals.upward_counts"), main("intervals.build_full_table")
    rt = main("parallel.run_tasks")
    sample_rt = [spans[i] for i in select(spans, "parallel.run_tasks", inside=SAMPLE_PHASE)]
    # a forked call's workers show in child CPU, an inline call's in our own
    busy_cpu = sum(s["cpu_children"] if s["workers"] > 1 else s["cpu_self"] for s in rt)
    return {
        "layers.generate_s": total(gen),
        "layers.elements": total(gen, "elements"),
        "orbits.classify_s": total(cls),
        "orbits.classes": total(cls, "classes"),
        "orbits.elem_perms_per_s": _rate(total(cls, "elem_perms"), total(cls)),
        "orbits.classify_1w_s": total(cls1),
        "orbits.elem_perms_per_s_1w": _rate(total(cls1, "elem_perms"), total(cls1)),
        "vecbits.digit_transpose_s": total(dt),
        "vecbits.digit_transpose_calls": len(dt),
        "vecbits.digit_transpose_1w_s": total(dt1),
        "vecbits.digit_transpose_1w_calls": len(dt1),
        "vecbits.dual_array_s": total(main("vecbits.dual_array")),
        "intervals.upward_counts_s": total(up),
        "intervals.upward_points": total(up, "points"),
        "intervals.full_table_s": total(ft),
        "intervals.full_table_mb": max((s["mb"] for s in ft), default=0.0),
        "counting.plus2_self_s": self_total("counting.lambda_plus2"),
        "counting.plus3_self_s": self_total("counting.lambda_plus3"),
        "counting.plus4_self_s": self_total("counting.lambda_plus4_direct"),
        "counting.plus4c_self_s": self_total("counting.lambda_plus4_classes"),
        "counting.plus4_terms": plus4_terms,
        "counting.plus4_terms_per_s": _rate(plus4_terms, total(sample_rt)),
        "parallel.run_tasks_s": total(rt),
        "parallel.tasks": total(rt, "tasks"),
        "parallel.workers": max((s["workers"] for s in rt), default=0),
        "parallel.child_cpu_s": total(rt, "cpu_children"),
        "parallel.busy_ratio": _rate(busy_cpu, sum(s["workers"] * duration(s) for s in rt)),
    }
