"""Unit tests for jobs, phases, bounds bookkeeping and results."""

import pytest

from repro.core.bounds import ApproximationBound
from repro.core.job import Job, JobPhaseSpec, JobResult, JobSpec, JobState, job_bin_label
from repro.core.task import TaskCopy

from tests.conftest import make_job_spec


def _run_copy(job: Job, task_id: int, start: float, duration: float, copy_id: int = 0) -> TaskCopy:
    copy = TaskCopy(
        copy_id=copy_id, task_id=task_id, machine_id=0, start_time=start, duration=duration
    )
    job.tasks[task_id].add_copy(copy)
    return copy


class TestSpecValidation:
    def test_phase_needs_tasks(self):
        with pytest.raises(ValueError):
            JobPhaseSpec(phase_index=0, task_works=())

    def test_phase_rejects_non_positive_work(self):
        with pytest.raises(ValueError):
            JobPhaseSpec(phase_index=0, task_works=(1.0, 0.0))

    def test_job_needs_phases(self):
        with pytest.raises(ValueError):
            JobSpec(job_id=0, arrival_time=0.0, phases=(), bound=ApproximationBound.exact())

    def test_phases_must_be_ordered(self):
        phases = (
            JobPhaseSpec(phase_index=1, task_works=(1.0,)),
            JobPhaseSpec(phase_index=0, task_works=(1.0,)),
        )
        with pytest.raises(ValueError):
            JobSpec(job_id=0, arrival_time=0.0, phases=phases, bound=ApproximationBound.exact())

    def test_max_slots_must_be_positive(self):
        with pytest.raises(ValueError):
            make_job_spec([1.0], ApproximationBound.exact(), max_slots=0)

    def test_counts_and_dag_length(self):
        spec = make_job_spec(
            [1.0, 2.0, 3.0], ApproximationBound.exact(), intermediate=[[1.0], [2.0, 2.0]]
        )
        assert spec.num_input_tasks == 3
        assert spec.num_tasks == 6
        assert spec.dag_length == 3

    def test_ideal_duration_uses_median_and_waves(self):
        spec = make_job_spec([2.0, 2.0, 2.0, 2.0], ApproximationBound.exact())
        # 4 tasks on 2 slots -> 2 waves of the median (2.0) each.
        assert spec.ideal_duration(2) == pytest.approx(4.0)

    def test_ideal_duration_rejects_zero_slots(self):
        spec = make_job_spec([2.0], ApproximationBound.exact())
        with pytest.raises(ValueError):
            spec.ideal_duration(0)


class TestJobBins:
    @pytest.mark.parametrize(
        "count,expected",
        [(1, "small"), (50, "small"), (51, "medium"), (500, "medium"), (501, "large")],
    )
    def test_job_bin_label(self, count, expected):
        assert job_bin_label(count) == expected
        result = JobResult(
            job_id=0, bound=ApproximationBound.exact(), num_input_tasks=count,
            completed_input_tasks=count, accuracy=1.0, start_time=0.0,
            finish_time=1.0, duration=1.0, wasted_work=0.0, speculative_copies=0,
            met_bound=True,
        )
        assert result.job_bin == expected


class TestJobLifecycle:
    def test_start_and_finish(self):
        job = Job(make_job_spec([1.0], ApproximationBound.exact()))
        job.start(5.0)
        assert job.is_running
        job.finish(9.0)
        assert not job.is_running and job.state == JobState.FINISHED
        assert job.start_time == 5.0 and job.finish_time == 9.0

    def test_cannot_start_twice(self):
        job = Job(make_job_spec([1.0], ApproximationBound.exact()))
        job.start(0.0)
        with pytest.raises(RuntimeError):
            job.start(1.0)

    def test_cannot_finish_before_start(self):
        job = Job(make_job_spec([1.0], ApproximationBound.exact()))
        with pytest.raises(RuntimeError):
            job.finish(1.0)

    def test_tasks_created_per_phase(self):
        job = Job(
            make_job_spec([1.0, 1.0], ApproximationBound.exact(), intermediate=[[2.0]])
        )
        assert len(job.tasks) == 3
        assert len(job.input_tasks) == 2
        assert [t.phase_index for t in job.phase_tasks(1)] == [1]


class TestAccuracyAndBounds:
    def test_accuracy_counts_input_tasks_only(self):
        job = Job(
            make_job_spec(
                [1.0, 1.0, 1.0, 1.0],
                ApproximationBound.with_error(0.5),
                intermediate=[[2.0, 2.0]],
            )
        )
        job.start(0.0)
        copy = _run_copy(job, 0, 0.0, 1.0)
        job.tasks[0].complete(1.0, copy)
        assert job.accuracy() == pytest.approx(0.25)
        assert job.completed_input_tasks() == 1

    def test_required_input_tasks_follows_error_bound(self):
        job = Job(make_job_spec([1.0] * 10, ApproximationBound.with_error(0.3)))
        assert job.required_input_tasks() == 7

    def test_bound_satisfied_error_job(self):
        job = Job(make_job_spec([1.0, 1.0], ApproximationBound.with_error(0.5)))
        job.start(0.0)
        assert not job.bound_satisfied()
        copy = _run_copy(job, 0, 0.0, 1.0)
        job.tasks[0].complete(1.0, copy)
        assert job.bound_satisfied()

    def test_all_required_work_done_includes_intermediate_phases(self):
        job = Job(
            make_job_spec([1.0], ApproximationBound.exact(), intermediate=[[1.0]])
        )
        job.start(0.0)
        copy = _run_copy(job, 0, 0.0, 1.0)
        job.tasks[0].complete(1.0, copy)
        assert not job.all_required_work_done()
        copy1 = _run_copy(job, 1, 1.0, 1.0, copy_id=1)
        job.tasks[1].complete(2.0, copy1)
        assert job.all_required_work_done()

    def test_current_phase_advances_at_required_fraction(self):
        job = Job(
            make_job_spec(
                [1.0, 1.0], ApproximationBound.with_error(0.5), intermediate=[[1.0]]
            )
        )
        job.start(0.0)
        assert job.current_phase() == 0
        copy = _run_copy(job, 0, 0.0, 1.0)
        job.tasks[0].complete(1.0, copy)
        # Half of the input tasks done satisfies the 50 % error bound.
        assert job.current_phase() == 1
        assert all(t.phase_index == 1 for t in job.schedulable_tasks(1.0))

    def test_remaining_deadline_uses_input_deadline_when_set(self):
        job = Job(make_job_spec([1.0], ApproximationBound.with_deadline(10.0)))
        job.start(0.0)
        assert job.remaining_deadline(4.0) == pytest.approx(6.0)
        job.input_deadline = 8.0
        assert job.remaining_deadline(4.0) == pytest.approx(4.0)

    def test_remaining_deadline_none_for_error_jobs(self):
        job = Job(make_job_spec([1.0], ApproximationBound.with_error(0.1)))
        job.start(0.0)
        assert job.remaining_deadline(1.0) is None


class TestJobResult:
    def test_to_result_requires_finish(self):
        job = Job(make_job_spec([1.0], ApproximationBound.exact()))
        job.start(0.0)
        with pytest.raises(RuntimeError):
            job.to_result()

    def test_to_result_fields(self):
        job = Job(make_job_spec([1.0, 1.0], ApproximationBound.with_error(0.5)))
        job.start(2.0)
        copy = _run_copy(job, 0, 2.0, 1.0)
        job.tasks[0].complete(3.0, copy)
        job.finish(3.0)
        result = job.to_result(estimator_accuracy=0.9)
        assert result.duration == pytest.approx(1.0)
        assert result.accuracy == pytest.approx(0.5)
        assert result.met_bound
        assert result.estimator_accuracy == 0.9
        assert result.job_bin == "small"

    def test_abandon_incomplete_tasks_kills_running(self):
        job = Job(make_job_spec([1.0, 1.0], ApproximationBound.with_deadline(5.0)))
        job.start(0.0)
        _run_copy(job, 0, 0.0, 10.0)
        killed = job.abandon_incomplete_tasks(5.0)
        assert len(killed) == 1
        assert job.wasted_work() == pytest.approx(5.0)
