"""Deterministic fan-out of exact-integer work across local processes.

Workers are forked processes: the caller stows read-only state in a module
global, submits a fixed task list, and merges results in task order.  All
merges in this package are exact integer sums or array concatenations, so
the outcome is independent of worker count and scheduling by construction.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

ENV_THREADS = "MBFCOUNT_THREADS"
ENV_PROGRESS = "MBFCOUNT_PROGRESS"

_STATE: dict = {}


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


def state() -> dict:
    """Read-only shared state for worker functions."""
    return _STATE


def run_tasks(fn, tasks, workers: int = 1, shared: dict | None = None) -> list:
    """Map a module-level fn over tasks, results in task order.

    With workers <= 1 (or a single task, or no fork support) this runs
    inline; otherwise forked processes inherit the shared state.  The
    prior state is restored on return, so the shared arrays are not kept
    alive past the call.
    """
    global _STATE
    prior = _STATE
    if shared is not None:
        _STATE = shared
    try:
        tasks = list(tasks)
        progress = os.environ.get(ENV_PROGRESS, "") == "1" and len(tasks) > 1
        every = max(1, len(tasks) // 100)
        if workers <= 1 or len(tasks) <= 1 or "fork" not in multiprocessing.get_all_start_methods():
            out = []
            for i, t in enumerate(tasks):
                out.append(fn(t))
                if progress and (i + 1) % every == 0:
                    print(f"[mbfcount] {i + 1}/{len(tasks)} tasks done", file=sys.stderr, flush=True)
            return out
        ctx = multiprocessing.get_context("fork")
        nworkers = min(workers, len(tasks))
        with ProcessPoolExecutor(max_workers=nworkers, mp_context=ctx) as ex:
            out = []
            for i, res in enumerate(ex.map(fn, tasks)):
                out.append(res)
                if progress and (i + 1) % every == 0:
                    print(f"[mbfcount] {i + 1}/{len(tasks)} tasks done", file=sys.stderr, flush=True)
            return out
    finally:
        _STATE = prior
