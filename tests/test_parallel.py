import pytest

from mbfcount import parallel


def _shared_value(task):
    return parallel.state()["k"] * task


def _fail(task):
    raise ValueError(f"task {task}")


@pytest.mark.parametrize("workers", [1, 2])
def test_run_tasks_restores_state(workers):
    before = parallel.state()
    assert parallel.run_tasks(_shared_value, [1, 2, 3], workers, shared={"k": 5}) == [5, 10, 15]
    assert parallel.state() is before


@pytest.mark.parametrize("workers", [1, 2])
def test_run_tasks_restores_state_when_a_task_raises(workers):
    before = parallel.state()
    with pytest.raises(ValueError):
        parallel.run_tasks(_fail, [1, 2, 3], workers, shared={"k": 5})
    assert parallel.state() is before
