"""Integration tests for the discrete-event engine."""

import pytest

from repro.baselines import LatePolicy, NoSpeculationPolicy
from repro.core.bounds import ApproximationBound
from repro.core.estimators import EstimatorConfig
from repro.core.policies import GreedySpeculative, ResourceAwareSpeculative
from repro.simulator.engine import Simulation, SimulationConfig, run_simulation
from repro.simulator.stragglers import StragglerConfig

from tests.conftest import make_job_spec, make_simulation_config, run_single_job


class TestBasicExecution:
    def test_exact_job_completes_all_tasks(self):
        spec = make_job_spec([5.0] * 8, ApproximationBound.exact(), max_slots=4)
        _, result = run_single_job(spec, NoSpeculationPolicy())
        assert result.completed_input_tasks == 8
        assert result.accuracy == 1.0
        assert result.met_bound

    def test_duration_matches_wave_arithmetic_without_stragglers(self):
        # 8 tasks of 5s on 4 slots with no stragglers: exactly 2 waves = 10s.
        spec = make_job_spec([5.0] * 8, ApproximationBound.exact(), max_slots=4)
        _, result = run_single_job(spec, NoSpeculationPolicy())
        assert result.duration == pytest.approx(10.0, rel=0.01)

    def test_error_bound_job_stops_early(self):
        spec = make_job_spec([5.0] * 10, ApproximationBound.with_error(0.3), max_slots=2)
        _, result = run_single_job(spec, NoSpeculationPolicy())
        assert result.completed_input_tasks == 7
        assert result.met_bound

    def test_deadline_job_stops_at_deadline(self):
        spec = make_job_spec([5.0] * 10, ApproximationBound.with_deadline(11.0), max_slots=2)
        _, result = run_single_job(spec, NoSpeculationPolicy())
        # Two slots for 11 seconds fit two full waves: 4 tasks.
        assert result.completed_input_tasks == 4
        assert result.accuracy == pytest.approx(0.4)
        assert not result.met_bound

    def test_simulation_requires_jobs(self):
        with pytest.raises(ValueError):
            Simulation(make_simulation_config(), NoSpeculationPolicy(), [])

    def test_run_simulation_helper(self):
        spec = make_job_spec([2.0] * 4, ApproximationBound.exact(), max_slots=2)
        metrics = run_simulation([spec], NoSpeculationPolicy(), make_simulation_config())
        assert len(metrics.results) == 1


class TestMultiJob:
    def test_fair_share_between_concurrent_jobs(self):
        specs = [
            make_job_spec([5.0] * 8, ApproximationBound.exact(), job_id=0),
            make_job_spec([5.0] * 8, ApproximationBound.exact(), job_id=1),
        ]
        config = make_simulation_config(machines=8)
        metrics = Simulation(config, NoSpeculationPolicy(), specs).run()
        assert len(metrics.results) == 2
        # Both jobs arrive together and share the 8 slots fairly: 4 each, so
        # each runs its 8 tasks in two 5-second waves.
        for result in metrics.results:
            assert result.duration == pytest.approx(10.0, rel=0.05)

    def test_later_arrival_starts_later(self):
        specs = [
            make_job_spec([5.0] * 4, ApproximationBound.exact(), job_id=0, max_slots=4),
            make_job_spec([5.0] * 4, ApproximationBound.exact(), job_id=1, arrival=100.0, max_slots=4),
        ]
        metrics = Simulation(make_simulation_config(machines=8), NoSpeculationPolicy(), specs).run()
        second = next(r for r in metrics.results if r.job_id == 1)
        assert second.start_time == pytest.approx(100.0)

    def test_results_count_matches_jobs(self):
        specs = [
            make_job_spec([3.0] * 3, ApproximationBound.with_error(0.0), job_id=i, arrival=float(i))
            for i in range(5)
        ]
        metrics = Simulation(make_simulation_config(machines=6), NoSpeculationPolicy(), specs).run()
        assert len(metrics.results) == 5
        assert sorted(r.job_id for r in metrics.results) == list(range(5))


class TestSpeculationMechanics:
    def test_speculative_copy_rescues_straggler(self):
        # One task straggles badly; GS should duplicate it and finish early.
        spec = make_job_spec([5.0] * 6, ApproximationBound.exact(), max_slots=3)
        straggler_config = StragglerConfig(shape=1.05, cap=20.0, jitter=0.0)
        config = make_simulation_config(machines=6, stragglers=straggler_config, seed=11)
        _, gs_result = run_single_job(spec, GreedySpeculative(), config)
        _, nospec_result = run_single_job(spec, NoSpeculationPolicy(), config)
        assert gs_result.duration <= nospec_result.duration + 1e-6
        assert gs_result.accuracy == 1.0

    def test_speculation_counted_in_metrics(self):
        spec = make_job_spec([5.0] * 10, ApproximationBound.exact(), max_slots=5)
        config = make_simulation_config(machines=10, stragglers=StragglerConfig(), seed=3)
        metrics, result = run_single_job(spec, GreedySpeculative(), config)
        assert metrics.total_copies_launched >= 10
        assert metrics.speculative_copies_launched == result.speculative_copies

    def test_wasted_work_recorded_when_copies_race(self):
        spec = make_job_spec([5.0] * 10, ApproximationBound.exact(), max_slots=5)
        config = make_simulation_config(machines=10, stragglers=StragglerConfig(), seed=3)
        metrics, _ = run_single_job(spec, ResourceAwareSpeculative(), config)
        if metrics.speculative_copies_launched > 0:
            assert metrics.wasted_slot_seconds > 0.0

    def test_exact_estimates_mode_runs(self):
        class ExactRas(ResourceAwareSpeculative):
            exact_estimates = True

        spec = make_job_spec([5.0] * 8, ApproximationBound.with_error(0.1), max_slots=4)
        config = make_simulation_config(machines=8, stragglers=StragglerConfig(), seed=2)
        _, result = run_single_job(spec, ExactRas(), config)
        assert result.met_bound


class TestDagJobs:
    def test_error_job_runs_intermediate_phase_after_input(self):
        spec = make_job_spec(
            [4.0] * 6,
            ApproximationBound.with_error(0.5),
            max_slots=3,
            intermediate=[[4.0, 4.0]],
        )
        _, result = run_single_job(spec, NoSpeculationPolicy())
        # Input phase needs 3 of 6 tasks (one wave = 4s), then 2 reduce tasks (4s).
        assert result.met_bound
        assert result.duration == pytest.approx(8.0, rel=0.05)

    def test_deadline_job_apportions_input_deadline(self):
        spec = make_job_spec(
            [4.0] * 6,
            ApproximationBound.with_deadline(12.0),
            max_slots=3,
            intermediate=[[4.0, 4.0, 4.0]],
        )
        config = make_simulation_config(machines=3)
        simulation = Simulation(config, NoSpeculationPolicy(), [spec])
        metrics = simulation.run()
        result = metrics.results[0]
        # One wave of intermediates (4s) is subtracted: input deadline 8s -> 2 waves.
        assert result.completed_input_tasks == 6
        assert result.duration <= 8.0 + 1e-6

    def test_dag_length_recorded_in_result(self):
        spec = make_job_spec(
            [4.0] * 4, ApproximationBound.with_error(0.0), max_slots=2, intermediate=[[4.0]]
        )
        _, result = run_single_job(spec, NoSpeculationPolicy())
        assert result.dag_length == 2


class TestEngineAccounting:
    def test_background_utilization_reserves_slots(self):
        spec = make_job_spec([5.0] * 8, ApproximationBound.exact(), max_slots=8)
        base = make_simulation_config(machines=8)
        reserved = SimulationConfig(
            cluster=base.cluster,
            stragglers=base.stragglers,
            estimator=base.estimator,
            seed=0,
            background_utilization=0.5,
        )
        fast = Simulation(base, NoSpeculationPolicy(), [spec]).run().results[0]
        slow = Simulation(reserved, NoSpeculationPolicy(), [spec]).run().results[0]
        assert slow.duration > fast.duration

    def test_estimator_accuracy_attached_to_results(self):
        spec = make_job_spec([5.0] * 8, ApproximationBound.exact(), max_slots=4)
        config = make_simulation_config(
            machines=8, stragglers=StragglerConfig(), estimator=EstimatorConfig(), seed=1
        )
        _, result = run_single_job(spec, LatePolicy(), config)
        assert 0.0 <= result.estimator_accuracy <= 1.0

    def test_utilization_metric_recorded(self):
        spec = make_job_spec([5.0] * 8, ApproximationBound.exact(), max_slots=4)
        metrics, _ = run_single_job(spec, NoSpeculationPolicy())
        assert metrics.utilization_stats.count > 0
        assert 0.0 <= metrics.utilization_stats.mean <= 1.0

    def test_summary_keys(self):
        spec = make_job_spec([5.0] * 4, ApproximationBound.with_deadline(20.0), max_slots=2)
        metrics, _ = run_single_job(spec, NoSpeculationPolicy())
        summary = metrics.summary()
        for key in ("jobs", "avg_accuracy", "avg_duration", "speculation_ratio"):
            assert key in summary

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(background_utilization=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(max_simulated_time=0.0)

    def test_determinism_same_seed_same_results(self):
        spec = make_job_spec([5.0] * 12, ApproximationBound.with_error(0.1), max_slots=4)
        config = make_simulation_config(machines=8, stragglers=StragglerConfig(), seed=9)
        _, first = run_single_job(spec, GreedySpeculative(), config)
        _, second = run_single_job(spec, GreedySpeculative(), config)
        assert first.duration == second.duration
        assert first.completed_input_tasks == second.completed_input_tasks
