"""Unit tests for tasks and task copies."""

import pytest

from repro.core.task import CopyState, Task, TaskCopy, TaskSpec, TaskState


def make_task(work: float = 10.0, task_id: int = 0) -> Task:
    return Task(spec=TaskSpec(task_id=task_id, job_id=0, work=work))


def make_copy(copy_id: int = 0, task_id: int = 0, start: float = 0.0, duration: float = 10.0) -> TaskCopy:
    return TaskCopy(
        copy_id=copy_id, task_id=task_id, machine_id=0, start_time=start, duration=duration
    )


class TestTaskSpec:
    def test_rejects_non_positive_work(self):
        with pytest.raises(ValueError):
            TaskSpec(task_id=0, job_id=0, work=0.0)

    def test_rejects_negative_phase(self):
        with pytest.raises(ValueError):
            TaskSpec(task_id=0, job_id=0, work=1.0, phase_index=-1)


class TestTaskCopy:
    def test_finish_time(self):
        copy = make_copy(start=3.0, duration=7.0)
        assert copy.finish_time == 10.0

    def test_progress_and_remaining(self):
        copy = make_copy(start=0.0, duration=10.0)
        assert copy.progress(5.0) == pytest.approx(0.5)
        assert copy.remaining(5.0) == pytest.approx(5.0)
        assert copy.remaining(15.0) == 0.0
        assert copy.progress(15.0) == 1.0

    def test_progress_rate(self):
        copy = make_copy(duration=10.0)
        assert copy.progress_rate(2.0) == pytest.approx(0.1)
        assert copy.progress_rate(0.0) == float("inf")

    def test_finish_sets_state_and_end_time(self):
        copy = make_copy(duration=4.0)
        copy.finish(4.0)
        assert copy.state is CopyState.FINISHED
        assert copy.end_time == 4.0

    def test_kill_sets_state(self):
        copy = make_copy()
        copy.kill(2.0)
        assert copy.state is CopyState.KILLED
        assert copy.end_time == 2.0

    def test_cannot_finish_twice(self):
        copy = make_copy()
        copy.finish(1.0)
        with pytest.raises(RuntimeError):
            copy.finish(2.0)

    def test_cannot_kill_finished_copy(self):
        copy = make_copy()
        copy.finish(1.0)
        with pytest.raises(RuntimeError):
            copy.kill(2.0)

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            make_copy(duration=0.0)


class TestTaskLifecycle:
    def test_initial_state_is_pending(self):
        task = make_task()
        assert task.state is TaskState.PENDING
        assert not task.is_running and not task.is_completed

    def test_add_copy_moves_to_running(self):
        task = make_task()
        task.add_copy(make_copy())
        assert task.is_running
        assert task.running_copy_count == 1
        assert task.first_start_time == 0.0

    def test_add_copy_rejects_wrong_task(self):
        task = make_task(task_id=1)
        with pytest.raises(ValueError):
            task.add_copy(make_copy(task_id=99))

    def test_complete_kills_losers(self):
        task = make_task()
        winner = make_copy(copy_id=0, duration=10.0)
        loser = make_copy(copy_id=1, start=2.0, duration=20.0)
        task.add_copy(winner)
        task.add_copy(loser)
        killed = task.complete(10.0, winner)
        assert task.is_completed
        assert task.completion_time == 10.0
        assert killed == [loser]
        assert loser.state is CopyState.KILLED

    def test_cannot_add_copy_after_completion(self):
        task = make_task()
        copy = make_copy()
        task.add_copy(copy)
        task.complete(10.0, copy)
        with pytest.raises(RuntimeError):
            task.add_copy(make_copy(copy_id=1))

    def test_abandon_kills_running_copies(self):
        task = make_task()
        task.add_copy(make_copy())
        killed = task.abandon(5.0)
        assert len(killed) == 1
        assert task.state is TaskState.ABANDONED
        assert task.is_finished and not task.is_completed

    def test_abandon_completed_task_keeps_completed_state(self):
        task = make_task()
        copy = make_copy()
        task.add_copy(copy)
        task.complete(10.0, copy)
        task.abandon(11.0)
        assert task.is_completed

    def test_true_remaining_uses_best_copy(self):
        task = make_task()
        task.add_copy(make_copy(copy_id=0, start=0.0, duration=30.0))
        task.add_copy(make_copy(copy_id=1, start=5.0, duration=10.0))
        assert task.true_remaining(10.0) == pytest.approx(5.0)

    def test_true_remaining_without_copies_raises(self):
        with pytest.raises(RuntimeError):
            make_task().true_remaining(0.0)

    def test_wasted_work_counts_killed_copies_only(self):
        task = make_task()
        winner = make_copy(copy_id=0, duration=10.0)
        loser = make_copy(copy_id=1, start=4.0, duration=30.0)
        task.add_copy(winner)
        task.add_copy(loser)
        task.complete(10.0, winner)
        assert task.wasted_work() == pytest.approx(6.0)  # loser ran 4.0 -> 10.0
