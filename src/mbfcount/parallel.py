"""Deterministic fan-out of exact-integer work across local processes.

Workers are forked processes: run_tasks maps any callable, often a closure
over the caller's arrays, over a fixed task list and returns the results in
task order.  The callable reaches the workers by fork, not by pickling, so
the arrays it holds are shared copy-on-write.  All merges in this package
are exact integer sums or array concatenations, so the outcome is
independent of worker count and scheduling by construction.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

ENV_THREADS = "MBFCOUNT_THREADS"
ENV_PROGRESS = "MBFCOUNT_PROGRESS"

_FN = None  # the callable of the innermost run_tasks call


def default_workers() -> int:
    """Worker count from the environment, else the CPUs this process may
    run on (its affinity mask where the platform has one)."""
    env = os.environ.get(ENV_THREADS, "")
    if env.strip():
        try:
            k = int(env)
        except ValueError:
            k = 0
        if k >= 1:
            return k
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_tasks(fn, tasks, workers: int = 1, weights=None) -> list:
    """Map fn over tasks, results in task order.

    With workers <= 1 (or a single task, or no fork support) this runs
    inline; otherwise forked processes inherit fn, which may be any
    callable.  The prior callable is restored on return, so the arrays fn
    holds are not kept alive past the call.  With MBFCOUNT_PROGRESS=1 a
    line goes to stderr at each hundredth of the work and after the last
    task: tasks done out of all, or, when weights gives the exact term
    count of each task, terms done out of the total with the rate and the
    time left.
    """
    global _FN
    prior, _FN = _FN, fn
    try:
        tasks = list(tasks)
        if workers <= 1 or len(tasks) <= 1 or "fork" not in multiprocessing.get_all_start_methods():
            pool, used = contextlib.nullcontext(), 1
        else:
            ctx = multiprocessing.get_context("fork")
            used = min(workers, len(tasks))
            pool = ProcessPoolExecutor(max_workers=used, mp_context=ctx)
        report = _Progress(len(tasks), weights, used) if os.environ.get(ENV_PROGRESS, "") == "1" else None
        with pool as ex:
            out = []
            for res, seconds in (map if ex is None else ex.map)(_timed, tasks):
                out.append(res)
                if report is not None:
                    report.done(len(out), seconds)
            return out
    finally:
        _FN = prior


def _timed(task):
    """_FN(task) and its run time in seconds, measured where it runs."""
    t0 = time.perf_counter()
    return _FN(task), time.perf_counter() - t0


class _Progress:
    """Progress lines for run_tasks: one per hundredth of the tasks, or of
    the total weight when per-task weights are given, and one at the end.

    The rate is the work of the finished tasks over their summed run time,
    times the workers in use, so tasks still running when a line is
    written do not lower it."""

    def __init__(self, n: int, weights, workers: int) -> None:
        self.n = n
        self.workers = workers
        self.weighted = weights is not None
        self.cumulative = list(itertools.accumulate(weights if self.weighted else [1] * n))
        self.shown = 0  # hundredths reported so far
        self.busy = 0.0  # summed run time of the finished tasks

    def done(self, i: int, seconds: float) -> None:
        """Report after the i-th task (1-based) has finished, having run
        for the given seconds."""
        self.busy += seconds
        work, total = self.cumulative[i - 1], self.cumulative[-1]
        hundredths = 100 * work // total if total else 100
        if self.n <= 1 or (hundredths == self.shown and i != self.n):
            return
        self.shown = hundredths
        if self.weighted:
            rate = work / max(self.busy, 1e-9) * self.workers
            eta = (total - work) / rate if rate else 0.0
            line = f"{work:,}/{total:,} terms done, {rate:.3g} terms/s, ETA {eta:,.0f} s"
        else:
            line = f"{i}/{self.n} tasks done"
        print(f"[mbfcount] {line}", file=sys.stderr, flush=True)
