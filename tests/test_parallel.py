import gc
import os
import weakref
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from mbfcount import parallel


@pytest.mark.parametrize("workers", [1, 2])
def test_run_tasks_restores_state(workers):
    # a closure over a local array reaches forked workers by inheritance
    before = parallel._FN
    k = np.array([5, 7])
    assert parallel.run_tasks(lambda task: int(k[task % 2]) * task, [1, 2, 3], workers) == [7, 10, 21]
    assert parallel._FN is before


def _raising_task():
    # a failing task that holds an array, and a weak reference to the array
    held = np.zeros(3)

    def fail(task):
        raise ValueError(f"task {task} of {held}")

    return fail, weakref.ref(held)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_tasks_restores_state_when_a_task_raises(workers):
    before = parallel._FN
    fail, held = _raising_task()
    with pytest.raises(ValueError, match="task 1"):
        parallel.run_tasks(fail, [1, 2, 3], workers)
    assert parallel._FN is before
    del fail
    gc.collect()
    assert held() is None


def test_a_worker_that_dies_breaks_the_pool():
    # only with workers: an inline task that exits would end this process
    def die(task):
        if task == 2:
            os._exit(3)
        return task

    with pytest.raises(BrokenProcessPool):
        parallel.run_tasks(die, [1, 2, 3, 4], 2)


def _square(task):
    return task * task


def _progress_lines(capsys):
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith("[mbfcount] ") for line in lines)
    return [line.removeprefix("[mbfcount] ") for line in lines]


@pytest.mark.parametrize("workers", [1, 2])
def test_progress_counts_weighted_terms(workers, monkeypatch, capsys):
    monkeypatch.setenv(parallel.ENV_PROGRESS, "1")
    weights = [4000, 1500] + [1] * 249
    tasks = list(range(len(weights)))
    assert parallel.run_tasks(_square, tasks, workers, weights=weights) == [t * t for t in tasks]
    lines = _progress_lines(capsys)
    done = [int(line.split("/")[0].replace(",", "")) for line in lines]
    # a line per hundredth of the terms crossed: the two long tasks each
    # cross many, the last 249 cross five between them
    assert done[:2] == [4000, 5500] and len(done) == 7
    assert done == sorted(set(done))
    assert all("terms/s, ETA" in line for line in lines)
    assert lines[-1].startswith("5,749/5,749 terms done,")
    assert lines[-1].endswith("ETA 0 s")


def test_progress_counts_tasks_without_weights(monkeypatch, capsys):
    monkeypatch.setenv(parallel.ENV_PROGRESS, "1")
    parallel.run_tasks(_square, list(range(251)), 1)
    lines = _progress_lines(capsys)
    assert lines[0] == "3/251 tasks done"
    assert lines[-1] == "251/251 tasks done"
    assert len(lines) == 100


def test_no_progress_unless_asked(monkeypatch, capsys):
    monkeypatch.delenv(parallel.ENV_PROGRESS, raising=False)
    parallel.run_tasks(_square, [1, 2, 3], 1, weights=[3, 2, 1])
    assert capsys.readouterr().err == ""


def test_progress_rate_counts_run_time_per_worker(capsys):
    # 600 terms in 3 s on one of 2 workers is 400 terms/s for the pair,
    # whatever the wall clock says while the other tasks still run
    report = parallel._Progress(3, [600, 300, 100], workers=2)
    report.done(1, 3.0)
    report.done(2, 1.5)
    report.done(3, 0.5)
    assert _progress_lines(capsys) == [
        "600/1,000 terms done, 400 terms/s, ETA 1 s",
        "900/1,000 terms done, 400 terms/s, ETA 0 s",
        "1,000/1,000 terms done, 400 terms/s, ETA 0 s",
    ]
    one = parallel._Progress(2, [300, 100], workers=1)
    one.done(1, 2.0)
    assert _progress_lines(capsys) == ["300/400 terms done, 150 terms/s, ETA 1 s"]
