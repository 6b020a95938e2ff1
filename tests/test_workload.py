"""Unit and property-based tests for workload synthesis and trace summaries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import BoundType
from repro.workload.bins import deadline_bin_label, error_bin_label
from repro.workload.profiles import (
    available_frameworks,
    framework_profile,
    workload_profile,
)
from repro.workload.synthetic import (
    DEADLINE_SLACK_RANGE,
    ERROR_RANGE,
    WorkloadConfig,
    generate_workload,
)
from repro.workload.traces import (
    TraceJob,
    iter_trace,
    save_trace,
    summarize_trace,
    trace_from_specs,
)


class TestBins:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (3.0, "2-5"), (8.0, "6-10"), (12.0, "11-15"), (19.0, "16-20"), (25.0, "16-20"),
            # Between two labels' integer ranges: the next bin up.
            (5.5, "6-10"), (10.5, "11-15"), (15.5, "16-20"),
        ],
    )
    def test_deadline_bins(self, value, expected):
        assert deadline_bin_label(value) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [
            (7.0, "5-10"), (13.0, "11-15"), (22.0, "21-25"), (29.0, "26-30"), (2.0, "5-10"),
            (10.5, "11-15"), (15.5, "16-20"), (20.5, "21-25"), (25.5, "26-30"),
        ],
    )
    def test_error_bins(self, value, expected):
        assert error_bin_label(value) == expected


class TestProfiles:
    def test_known_frameworks_exist(self):
        assert set(available_frameworks()) == {"hadoop", "spark"}

    def test_lookup_case_insensitive(self):
        assert workload_profile("Facebook").name == "facebook"
        assert framework_profile("SPARK").name == "spark"

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError):
            workload_profile("dryad")
        with pytest.raises(ValueError):
            framework_profile("flink")

    def test_spark_tasks_shorter_than_hadoop(self):
        assert framework_profile("spark").median_task_work < framework_profile("hadoop").median_task_work


class TestSyntheticWorkload:
    def test_generates_requested_number_of_jobs(self):
        workload = generate_workload(WorkloadConfig(num_jobs=25, seed=1, size_scale=0.2))
        assert len(workload) == 25
        assert [spec.job_id for spec in workload.specs()] == list(range(25))

    def test_job_ids_are_unique_and_arrivals_sorted(self):
        workload = generate_workload(WorkloadConfig(num_jobs=30, seed=2, size_scale=0.2))
        ids = [spec.job_id for spec in workload.specs()]
        arrivals = [spec.arrival_time for spec in workload.specs()]
        assert len(set(ids)) == 30
        assert arrivals == sorted(arrivals)

    def test_bound_kind_deadline_only(self):
        workload = generate_workload(
            WorkloadConfig(num_jobs=20, seed=3, bound_kind="deadline", size_scale=0.2)
        )
        assert all(spec.bound.kind is BoundType.DEADLINE for spec in workload.specs())

    def test_bound_kind_exact_means_zero_error(self):
        workload = generate_workload(
            WorkloadConfig(num_jobs=10, seed=3, bound_kind="exact", size_scale=0.2)
        )
        assert all(
            spec.bound.is_error and spec.bound.error == 0.0 for spec in workload.specs()
        )

    def test_error_bounds_within_recipe_range(self):
        workload = generate_workload(
            WorkloadConfig(num_jobs=30, seed=4, bound_kind="error", size_scale=0.2)
        )
        low, high = ERROR_RANGE
        assert all(low <= spec.bound.error <= high for spec in workload.specs())

    def test_deadline_slack_within_recipe_range(self):
        workload = generate_workload(
            WorkloadConfig(num_jobs=30, seed=5, bound_kind="deadline", size_scale=0.2)
        )
        low, high = DEADLINE_SLACK_RANGE
        for spec in workload.specs():
            slack = spec.bound.deadline / spec.ideal_duration(spec.max_slots) - 1.0
            assert low - 1e-12 <= slack <= high + 1e-12

    def test_deadline_exceeds_ideal_duration(self):
        workload = generate_workload(
            WorkloadConfig(num_jobs=20, seed=6, bound_kind="deadline", size_scale=0.2)
        )
        for spec in workload.specs():
            assert spec.bound.deadline > spec.ideal_duration(spec.max_slots)

    def test_dag_length_respected(self):
        workload = generate_workload(
            WorkloadConfig(num_jobs=10, seed=7, dag_length=4, size_scale=0.2)
        )
        assert all(spec.dag_length == 4 for spec in workload.specs())

    def test_max_tasks_cap(self):
        workload = generate_workload(
            WorkloadConfig(num_jobs=30, seed=8, max_tasks_per_job=60)
        )
        assert all(spec.num_input_tasks <= 60 for spec in workload.specs())

    def test_max_slots_gives_multiwave_jobs(self):
        workload = generate_workload(WorkloadConfig(num_jobs=30, seed=9, size_scale=0.3))
        waves = [
            spec.num_input_tasks / spec.max_slots
            for spec in workload.specs()
            if spec.max_slots
        ]
        assert any(w > 1.5 for w in waves)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_jobs=0)
        with pytest.raises(ValueError):
            WorkloadConfig(bound_kind="nonsense")
        with pytest.raises(ValueError):
            WorkloadConfig(dag_length=0)
        with pytest.raises(ValueError):
            WorkloadConfig(size_scale=0.0)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_generation_is_reproducible(self, num_jobs, seed):
        config = WorkloadConfig(num_jobs=num_jobs, seed=seed, size_scale=0.1)
        first = generate_workload(config)
        second = generate_workload(config)
        assert [s.num_tasks for s in first.specs()] == [s.num_tasks for s in second.specs()]
        assert [s.arrival_time for s in first.specs()] == [s.arrival_time for s in second.specs()]


class TestTraces:
    def test_trace_from_specs_and_summary(self):
        workload = generate_workload(WorkloadConfig(num_jobs=15, seed=11, size_scale=0.2))
        trace = trace_from_specs(workload.specs())
        summary = summarize_trace(trace, name="test")
        assert summary.num_jobs == 15
        assert summary.num_tasks == sum(job.num_tasks for job in trace)
        assert summary.median_task_duration > 0

    def test_trace_job_validation(self):
        with pytest.raises(ValueError):
            TraceJob(job_id=0, arrival_time=0.0, task_durations=[])
        with pytest.raises(ValueError):
            TraceJob(job_id=0, arrival_time=-1.0, task_durations=[1.0])

    def test_summarize_empty_trace_raises(self):
        with pytest.raises(ValueError):
            summarize_trace([])

    def test_save_and_load_roundtrip(self, tmp_path):
        trace = [
            TraceJob(job_id=1, arrival_time=0.0, task_durations=[1.0, 2.0]),
            TraceJob(job_id=2, arrival_time=3.0, task_durations=[4.0]),
        ]
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        loaded = list(iter_trace(path))
        assert len(loaded) == 2
        assert loaded[0].task_durations == [1.0, 2.0]
        assert loaded[1].arrival_time == 3.0

    def test_slowest_to_median_ratio(self):
        job = TraceJob(job_id=0, arrival_time=0.0, task_durations=[1.0, 1.0, 8.0])
        assert job.slowest_to_median_ratio == pytest.approx(8.0)
