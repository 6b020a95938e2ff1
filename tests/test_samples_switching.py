"""Unit tests for GRASS's sample store and switch-point deciders (§4.1, §4.2)."""

import pytest

from repro.core.bounds import ApproximationBound, BoundType
from repro.core.policies.samples import (
    MAX_SAMPLES_PER_KEY,
    JobSample,
    SampleStore,
    accuracy_bucket,
    mean_fraction_completed,
    mean_time_for_fraction,
    utilization_bucket,
)
from repro.core.policies.switching import (
    ALL_FACTORS,
    FACTOR_BOUND,
    LearnedSwitchDecider,
    StrawmanSwitchDecider,
)

from tests.test_policies import make_view

DEADLINE = ApproximationBound.with_deadline(100.0)
ERROR = ApproximationBound.with_error(0.2)


def make_sample(policy="gs", bound="deadline", tasks=20, times=None, util=0.5, acc=0.8):
    return JobSample(
        policy=policy,
        bound_kind=bound,
        total_tasks=tasks,
        completion_times=times if times is not None else [float(i + 1) for i in range(tasks)],
        wave_width=5,
        utilization=util,
        estimator_accuracy=acc,
    )


class TestBuckets:
    @pytest.mark.parametrize("value,expected", [(0.1, "low"), (0.5, "medium"), (0.9, "high")])
    def test_utilization_bucket(self, value, expected):
        assert utilization_bucket(value) == expected

    @pytest.mark.parametrize("value,expected", [(0.5, "poor"), (0.75, "fair"), (0.9, "good")])
    def test_accuracy_bucket(self, value, expected):
        assert accuracy_bucket(value) == expected


class TestJobSample:
    def test_fraction_completed_by(self):
        sample = make_sample(times=[1.0, 2.0, 3.0, 4.0], tasks=4)
        assert sample.fraction_completed_by(0.0) == 0.0
        assert sample.fraction_completed_by(2.5) == pytest.approx(0.5)
        assert sample.fraction_completed_by(10.0) == 1.0

    def test_time_to_complete_fraction(self):
        sample = make_sample(times=[1.0, 2.0, 3.0, 4.0], tasks=4)
        assert sample.time_to_complete_fraction(0.5) == pytest.approx(2.0)
        assert sample.time_to_complete_fraction(0.0) == 0.0

    def test_time_to_complete_unreached_fraction_is_none(self):
        sample = make_sample(times=[1.0, 2.0], tasks=4)
        assert sample.time_to_complete_fraction(0.9) is None

    def test_buckets(self):
        sample = make_sample(tasks=60, util=0.9, acc=0.6)
        assert sample.size_bucket == "medium"
        assert sample.utilization_bucket == "high"
        assert sample.accuracy_bucket == "poor"

    def test_validation(self):
        with pytest.raises(ValueError):
            make_sample(tasks=0)


class TestSampleStore:
    def test_add_and_len(self):
        store = SampleStore()
        store.add(make_sample())
        assert len(store) == 1

    def test_eviction_at_capacity(self):
        store = SampleStore()
        samples = [make_sample() for _ in range(MAX_SAMPLES_PER_KEY + 3)]
        for sample in samples:
            store.add(sample)
        assert len(store) == MAX_SAMPLES_PER_KEY
        # The oldest three were evicted, in arrival order.
        kept = store.samples_for("gs", "deadline")
        assert [id(sample) for sample in kept] == [id(sample) for sample in samples[3:]]

    def test_lookup_falls_back_to_coarser_keys(self):
        store = SampleStore()
        store.add(make_sample(policy="gs", tasks=20, util=0.1, acc=0.9))
        # Query with non-matching utilisation/accuracy buckets still finds it.
        samples = store.samples_for("gs", "deadline", "small", "high", "poor")
        assert len(samples) == 1

    def test_lookup_respects_policy_and_bound(self):
        store = SampleStore()
        store.add(make_sample(policy="gs", bound="deadline"))
        assert store.samples_for("ras", "deadline") == []
        assert store.samples_for("gs", "error") == []

    def test_mean_fraction_completed_over_matching_samples(self):
        store = SampleStore()
        store.add(make_sample(policy="ras", times=[1.0, 2.0, 3.0, 4.0], tasks=4))
        samples = store.samples_for("ras", BoundType.DEADLINE.value)
        assert mean_fraction_completed(samples, 2.0) == pytest.approx(0.5)
        assert store.samples_for("gs", BoundType.DEADLINE.value) == []

    def test_mean_time_for_fraction_over_matching_samples(self):
        store = SampleStore()
        store.add(
            make_sample(policy="gs", bound=BoundType.ERROR.value, times=[1.0, 2.0, 3.0, 4.0], tasks=4)
        )
        samples = store.samples_for("gs", BoundType.ERROR.value)
        assert mean_time_for_fraction(samples, 0.5) == pytest.approx(2.0)
        assert store.samples_for("ras", BoundType.ERROR.value) == []


class TestStrawmanDecider:
    def test_deadline_switches_when_two_waves_remain(self):
        decider = StrawmanSwitchDecider()
        tasks = [(10.0, False, 10.0, 10.0, 0) for _ in range(10)]
        far_view = make_view(tasks, DEADLINE, remaining_deadline=80.0)
        near_view = make_view(tasks, DEADLINE, remaining_deadline=15.0)
        assert not decider.should_switch(far_view)
        assert decider.should_switch(near_view)

    def test_error_switches_when_remaining_fits_two_waves(self):
        decider = StrawmanSwitchDecider()
        tasks = [(10.0, False, 10.0, 10.0, 0) for _ in range(12)]
        far_view = make_view(tasks, ERROR, remaining_required=12, wave_width=3)
        near_view = make_view(tasks, ERROR, remaining_required=5, wave_width=3)
        assert not decider.should_switch(far_view)
        assert decider.should_switch(near_view)


class TestLearnedDecider:
    def _populated_store(self):
        store = SampleStore()
        # RAS completes tasks steadily; GS finishes a burst early then stalls.
        store.add(make_sample(policy="ras", bound="deadline", tasks=20,
                              times=[i * 1.0 for i in range(1, 21)]))
        store.add(make_sample(policy="gs", bound="deadline", tasks=20,
                              times=[0.5 * i for i in range(1, 11)] + [100.0 + i for i in range(10)]))
        store.add(make_sample(policy="ras", bound="error", tasks=20,
                              times=[i * 1.0 for i in range(1, 21)]))
        store.add(make_sample(policy="gs", bound="error", tasks=20,
                              times=[0.5 * i for i in range(1, 21)]))
        return store

    def test_falls_back_to_strawman_with_empty_store(self):
        decider = LearnedSwitchDecider(store=SampleStore())
        tasks = [(10.0, False, 10.0, 10.0, 0) for _ in range(10)]
        view = make_view(tasks, DEADLINE, remaining_deadline=15.0)
        assert decider.should_switch(view) == StrawmanSwitchDecider().should_switch(view)

    def test_deadline_switches_near_bound_with_samples(self):
        decider = LearnedSwitchDecider(store=self._populated_store())
        tasks = [(10.0, False, 10.0, 10.0, 0) for _ in range(20)]
        # GS completes more in a short horizon, so near the deadline it should switch.
        near_view = make_view(tasks, DEADLINE, remaining_deadline=4.0)
        assert decider.should_switch(near_view)

    def test_deadline_does_not_switch_far_from_bound(self):
        decider = LearnedSwitchDecider(store=self._populated_store())
        tasks = [(10.0, False, 10.0, 10.0, 0) for _ in range(20)]
        far_view = make_view(tasks, DEADLINE, remaining_deadline=60.0)
        assert not decider.should_switch(far_view)

    def test_error_switches_when_gs_curve_strictly_faster(self):
        decider = LearnedSwitchDecider(store=self._populated_store())
        tasks = [(10.0, False, 10.0, 10.0, 0) for _ in range(20)]
        view = make_view(tasks, ERROR, remaining_required=4)
        assert decider.should_switch(view)

    def test_factor_subset_is_accepted(self):
        decider = LearnedSwitchDecider(
            store=self._populated_store(), factors=frozenset({FACTOR_BOUND})
        )
        tasks = [(10.0, False, 10.0, 10.0, 0) for _ in range(20)]
        view = make_view(tasks, DEADLINE, remaining_deadline=4.0)
        assert isinstance(decider.should_switch(view), bool)

    def test_unknown_factor_rejected(self):
        with pytest.raises(ValueError):
            LearnedSwitchDecider(store=SampleStore(), factors=frozenset({"bogus"}))

    def test_all_factors_constant(self):
        assert {"bound", "utilization", "accuracy"} == set(ALL_FACTORS)
