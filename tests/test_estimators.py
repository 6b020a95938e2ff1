"""Unit tests for the trem / tnew estimators (§5.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators import EstimateAccuracyTracker, EstimatorConfig, TaskEstimator
from repro.core.policies.base import TaskSnapshot
from repro.core.task import Task, TaskCopy, TaskSpec
from repro.utils.rng import RngStream
from repro.utils.stats import median


def make_task(work: float = 10.0, task_id: int = 0) -> Task:
    return Task(spec=TaskSpec(task_id=task_id, job_id=0, work=work))


def running_task(work: float = 10.0, duration: float = 10.0, start: float = 0.0) -> Task:
    task = make_task(work)
    task.add_copy(
        TaskCopy(copy_id=0, task_id=task.task_id, machine_id=0, start_time=start, duration=duration)
    )
    return task


def make_estimator(config: EstimatorConfig = None) -> TaskEstimator:
    return TaskEstimator(config or EstimatorConfig.perfect(), RngStream(0, "est"))


class TestConfig:
    def test_defaults_valid(self):
        config = EstimatorConfig()
        assert config.trem_noise > 0 and config.tnew_noise > 0

    def test_perfect_has_no_noise(self):
        config = EstimatorConfig.perfect()
        assert config.trem_noise == 0.0 and config.tnew_noise == 0.0

    def test_degraded_scales_noise(self):
        degraded = EstimatorConfig.degraded(3.0)
        base = EstimatorConfig()
        assert degraded.trem_noise == pytest.approx(3.0 * base.trem_noise)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            EstimatorConfig(trem_noise=-0.1)

    def test_rejects_bad_progress_fraction(self):
        with pytest.raises(ValueError):
            EstimatorConfig(progress_report_fraction=0.0)


class TestAccuracyTracker:
    def test_perfect_estimates_give_accuracy_one(self):
        tracker = EstimateAccuracyTracker()
        tracker.record(10.0, 10.0)
        assert tracker.accuracy == pytest.approx(1.0)

    def test_accuracy_decreases_with_error(self):
        tracker = EstimateAccuracyTracker()
        tracker.record(5.0, 10.0)
        assert tracker.accuracy == pytest.approx(0.5)

    def test_accuracy_clamped_at_zero(self):
        tracker = EstimateAccuracyTracker()
        tracker.record(100.0, 10.0)
        assert tracker.accuracy == 0.0

    def test_empty_tracker_reports_one(self):
        assert EstimateAccuracyTracker().accuracy == 1.0

    def test_ignores_non_positive_actual(self):
        tracker = EstimateAccuracyTracker()
        tracker.record(5.0, 0.0)
        assert tracker.sample_count == 0


class TestTnew:
    def test_prior_rate_before_samples(self):
        estimator = make_estimator()
        assert estimator.tnew(make_task(work=7.0)) == pytest.approx(7.0)

    def test_uses_median_of_completed_rates(self):
        estimator = make_estimator()
        # Three completions at rates 1.0, 2.0, 3.0 seconds per unit work.
        for rate in (1.0, 2.0, 3.0):
            estimator.observe_completion(make_task(work=10.0), 10.0 * rate)
        assert estimator.expected_work_rate() == pytest.approx(2.0)
        assert estimator.tnew(make_task(work=5.0)) == pytest.approx(10.0)

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_work_rate_is_the_median_of_unsorted_completions(self, durations):
        # Completions arrive in any order; the rate must be exactly what
        # ``stats.median`` returns over them, for odd and even counts alike.
        estimator = make_estimator()
        for duration in durations:
            estimator.observe_completion(make_task(work=3.0), float(duration))
        assert estimator.expected_work_rate() == median([d / 3.0 for d in durations])

    def test_same_rate_for_all_tasks(self):
        # The tnew error must never rank equal-sized tasks differently.
        estimator = TaskEstimator(EstimatorConfig(), RngStream(1, "e"))
        a = estimator.tnew(make_task(work=10.0, task_id=1))
        b = estimator.tnew(make_task(work=10.0, task_id=2))
        assert a == pytest.approx(b)

    def test_tnew_scales_with_work(self):
        estimator = make_estimator()
        assert estimator.tnew(make_task(work=20.0)) == pytest.approx(
            2.0 * estimator.tnew(make_task(work=10.0))
        )

    def test_rejects_bad_prior(self):
        with pytest.raises(ValueError):
            TaskEstimator(EstimatorConfig.perfect(), RngStream(0), prior_work_rate=0.0)


class TestTrem:
    def test_pending_task_falls_back_to_tnew(self):
        estimator = make_estimator()
        task = make_task(work=6.0)
        assert estimator.trem(task, now=0.0) == pytest.approx(6.0)

    def test_before_first_report_subtracts_elapsed(self):
        estimator = make_estimator()
        task = running_task(work=10.0, duration=100.0)
        # At 2% progress there is no report yet; assume a typical copy.
        assert estimator.trem(task, now=2.0) == pytest.approx(8.0)

    def test_extrapolates_from_progress(self):
        estimator = make_estimator()
        task = running_task(work=10.0, duration=40.0)
        # At t=10 the copy is 25% done; extrapolated total 40, remaining 30.
        assert estimator.trem(task, now=10.0) == pytest.approx(30.0)

    def test_straggler_has_trem_far_above_tnew(self):
        estimator = make_estimator()
        estimator.observe_completion(make_task(work=10.0, task_id=9), 10.0)
        straggler = running_task(work=10.0, duration=80.0)
        trem = estimator.trem(straggler, now=8.0)
        assert trem > 5.0 * estimator.tnew(straggler)

    def test_uses_best_copy(self):
        estimator = make_estimator()
        task = running_task(work=10.0, duration=80.0)
        task.add_copy(
            TaskCopy(copy_id=1, task_id=0, machine_id=1, start_time=4.0, duration=10.0)
        )
        # The second (fast) copy is halfway done at t=9: remaining 5.
        assert estimator.trem(task, now=9.0) == pytest.approx(5.0)

    def test_accuracy_tracking_updates(self):
        estimator = make_estimator()
        estimator.record_trem_outcome(8.0, 10.0)
        assert estimator.trem_accuracy == pytest.approx(0.8)
        estimator.observe_completion(make_task(work=10.0), 10.0)
        assert estimator.tnew_accuracy == pytest.approx(1.0)
        assert estimator.combined_accuracy == pytest.approx(0.9)

    def test_noise_is_bounded_below(self):
        estimator = TaskEstimator(
            EstimatorConfig(trem_noise=5.0, tnew_noise=5.0), RngStream(5, "n")
        )
        task = running_task(work=10.0, duration=10.0)
        for now in (1.0, 3.0, 5.0, 7.0):
            assert estimator.trem(task, now) > 0.0
            assert estimator.tnew(task) > 0.0


# One running task: work, then its copies as (start, duration).
_task_specs = st.tuples(
    st.floats(0.5, 20.0),
    st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.1, 30.0)), min_size=1, max_size=3),
)
# One round: how far the clock advances (0 replays the same instant), an
# optional copy launched before it as (task index, duration), and an
# optional completion sample observed before it.
_round_specs = st.tuples(
    st.sampled_from([0.0, 0.05, 0.4, 2.5]) | st.floats(0.0, 8.0),
    st.none() | st.tuples(st.integers(0, 5), st.floats(0.1, 30.0)),
    st.none() | st.floats(0.5, 30.0),
)


class TestWalkMatchesReference:
    """``update_running_snaps`` is ``tnew``, ``trem`` and a fold per task."""

    @settings(max_examples=300, deadline=None)
    @given(
        config=st.sampled_from(
            [EstimatorConfig(), EstimatorConfig.perfect(), EstimatorConfig.degraded(4.0)]
        ),
        seed=st.integers(0, 2**32),
        samples=st.lists(st.floats(0.5, 30.0), max_size=3),
        task_specs=st.lists(_task_specs, min_size=1, max_size=6),
        rounds=st.lists(_round_specs, min_size=1, max_size=4),
        crowded=st.booleans(),
    )
    def test_walk_equals_the_per_task_reference(
        self, config, seed, samples, task_specs, rounds, crowded
    ):
        reference = TaskEstimator(config, RngStream(seed, "est"))
        walker = TaskEstimator(config, RngStream(seed, "est"))
        for estimator in (reference, walker):
            for index, duration in enumerate(samples):
                estimator.observe_completion(make_task(1.0 + index, 100 + index), duration)
            if crowded:
                # A full trem-noise cache: the walk's second fresh draw
                # evicts it, so the eviction lands mid-walk.
                estimator._trem_noise_cache.update(
                    {(-1 - index, 0, 0): 1.0 for index in range(4096)}
                )
        copy_ids = iter(range(1000))
        tasks = []
        for task_id, (work, copies) in enumerate(task_specs):
            task = make_task(work, task_id)
            for start, duration in copies:
                task.add_copy(TaskCopy(next(copy_ids), task_id, 0, start, duration))
            tasks.append(task)
        snaps = {task.task_id: TaskSnapshot(task, True, 0, 1.0, 1.0) for task in tasks}
        running_ids = [task.task_id for task in tasks]
        now = 10.0
        for advance, launch, completion in rounds:
            if launch is not None:
                task = tasks[launch[0] % len(tasks)]
                task.add_copy(TaskCopy(next(copy_ids), task.task_id, 0, now, launch[1]))
            if completion is not None:
                for estimator in (reference, walker):
                    estimator.observe_completion(make_task(2.0, 200), completion)
            now += advance
            expected = []
            for task in tasks:
                tnew = reference.tnew(task)
                trem = reference.trem(task, now)
                actual = max(1e-6, task.true_remaining(now))
                reference.record_trem_outcome(trem, actual)
                expected.append((task.running_copy_count, tnew, trem, actual))
            walker.update_running_snaps(snaps, running_ids, now)
            walked = [(snap.copies, snap.tnew, snap.trem, snap._actual) for snap in snaps.values()]
            assert walked == expected
            tracker, twin = walker.trem_tracker, reference.trem_tracker
            assert (tracker.sample_count, tracker.accuracy) == (twin.sample_count, twin.accuracy)
            assert walker.noise_generation == reference.noise_generation
            assert walker._rng.getstate() == reference._rng.getstate()
