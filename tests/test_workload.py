"""Unit and property-based tests for workload synthesis and trace summaries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import BoundType
from repro.workload.bins import deadline_bin_label, error_bin_label, group_by_job_bin
from repro.workload.distributions import (
    BoundedParetoDistribution,
    ConstantDistribution,
    EmpiricalDistribution,
    ExponentialDistribution,
    LogNormalDistribution,
    ParetoDistribution,
    UniformDistribution,
)
from repro.workload.profiles import (
    available_frameworks,
    available_workloads,
    framework_profile,
    workload_profile,
)
from repro.workload.synthetic import WorkloadConfig, generate_workload
from repro.workload.traces import (
    TraceJob,
    load_trace,
    save_trace,
    summarize_trace,
    trace_from_specs,
)
from repro.utils.rng import RngStream


class TestDistributions:
    def test_constant(self):
        dist = ConstantDistribution(3.0)
        assert dist.sample(RngStream(0)) == 3.0
        assert dist.mean() == 3.0

    def test_uniform_bounds_and_mean(self):
        dist = UniformDistribution(1.0, 3.0)
        samples = dist.sample_many(RngStream(1), 200)
        assert all(1.0 <= s <= 3.0 for s in samples)
        assert dist.mean() == 2.0

    def test_exponential_mean(self):
        dist = ExponentialDistribution(5.0)
        samples = dist.sample_many(RngStream(2), 3000)
        assert sum(samples) / len(samples) == pytest.approx(5.0, rel=0.15)

    def test_pareto_quantile_and_survival(self):
        dist = ParetoDistribution(shape=2.0, scale=1.0)
        assert dist.survival(1.0) == 1.0
        assert dist.survival(2.0) == pytest.approx(0.25)
        assert dist.quantile(0.75) == pytest.approx(2.0)
        assert dist.mean() == pytest.approx(2.0)

    def test_pareto_infinite_mean_below_one(self):
        assert ParetoDistribution(shape=0.9).mean() == float("inf")

    def test_bounded_pareto_cap(self):
        dist = BoundedParetoDistribution(shape=1.1, scale=1.0, cap=4.0)
        samples = dist.sample_many(RngStream(3), 500)
        assert all(1.0 <= s <= 4.0 for s in samples)
        assert dist.mean() < 4.0

    def test_lognormal_mean(self):
        dist = LogNormalDistribution(mu=0.0, sigma=0.25)
        samples = dist.sample_many(RngStream(4), 4000)
        assert sum(samples) / len(samples) == pytest.approx(dist.mean(), rel=0.1)

    def test_empirical_resamples_observed_values(self):
        dist = EmpiricalDistribution([1.0, 2.0, 3.0])
        samples = dist.sample_many(RngStream(5), 100)
        assert set(samples) <= {1.0, 2.0, 3.0}
        assert len(dist) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantDistribution(0.0)
        with pytest.raises(ValueError):
            UniformDistribution(3.0, 1.0)
        with pytest.raises(ValueError):
            ExponentialDistribution(0.0)
        with pytest.raises(ValueError):
            EmpiricalDistribution([])
        with pytest.raises(ValueError):
            BoundedParetoDistribution(1.1, 2.0, 1.0)


class TestBins:
    @pytest.mark.parametrize(
        "value,expected", [(3.0, "2-5"), (8.0, "6-10"), (12.0, "11-15"), (19.0, "16-20"), (25.0, "16-20")]
    )
    def test_deadline_bins(self, value, expected):
        assert deadline_bin_label(value) == expected

    @pytest.mark.parametrize(
        "value,expected", [(7.0, "5-10"), (13.0, "11-15"), (22.0, "21-25"), (29.0, "26-30"), (2.0, "5-10")]
    )
    def test_error_bins(self, value, expected):
        assert error_bin_label(value) == expected

    def test_group_by_job_bin(self):
        grouped = group_by_job_bin([10, 100, 1000])
        assert len(grouped["small"]) == 1
        assert len(grouped["medium"]) == 1
        assert len(grouped["large"]) == 1


class TestProfiles:
    def test_known_profiles_exist(self):
        assert set(available_workloads()) == {"bing", "facebook"}
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
        assert len(workload.metadata) == 25

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
        assert all(spec.bound.is_exact for spec in workload.specs())

    def test_error_bounds_within_configured_range(self):
        workload = generate_workload(
            WorkloadConfig(num_jobs=30, seed=4, bound_kind="error", error_range=(0.05, 0.30), size_scale=0.2)
        )
        assert all(0.05 <= spec.bound.error <= 0.30 for spec in workload.specs())

    def test_deadline_slack_metadata_within_range(self):
        workload = generate_workload(
            WorkloadConfig(
                num_jobs=30, seed=5, bound_kind="deadline", deadline_slack_range=(0.02, 0.20), size_scale=0.2
            )
        )
        for metadata in workload.metadata.values():
            assert 2.0 <= metadata.deadline_slack_percent <= 20.0

    def test_deadline_exceeds_ideal_duration(self):
        workload = generate_workload(
            WorkloadConfig(num_jobs=20, seed=6, bound_kind="deadline", size_scale=0.2)
        )
        for spec in workload.specs():
            metadata = workload.metadata_for(spec.job_id)
            assert spec.bound.deadline > metadata.ideal_duration

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

    def test_sequential_arrival_mode_spreads_jobs(self):
        workload = generate_workload(
            WorkloadConfig(num_jobs=5, seed=10, arrival_mode="sequential", size_scale=0.2)
        )
        arrivals = [spec.arrival_time for spec in workload.specs()]
        assert all(b - a > 1.0 for a, b in zip(arrivals, arrivals[1:], strict=False))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_jobs=0)
        with pytest.raises(ValueError):
            WorkloadConfig(bound_kind="nonsense")
        with pytest.raises(ValueError):
            WorkloadConfig(dag_length=0)
        with pytest.raises(ValueError):
            WorkloadConfig(error_range=(0.5, 0.2))
        with pytest.raises(ValueError):
            WorkloadConfig(arrival_mode="burst")

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
        assert len(summary.rows()) >= 8

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
        loaded = load_trace(path)
        assert len(loaded) == 2
        assert loaded[0].task_durations == [1.0, 2.0]
        assert loaded[1].arrival_time == 3.0

    def test_slowest_to_median_ratio(self):
        job = TraceJob(job_id=0, arrival_time=0.0, task_durations=[1.0, 1.0, 8.0])
        assert job.slowest_to_median_ratio == pytest.approx(8.0)
