"""Unit tests for the GRASS policy: modes, perturbation, sample recording."""

import pytest

from repro.core.bounds import ApproximationBound
from repro.core.policies.grass import (
    MODE_ADAPTIVE_GS,
    MODE_ADAPTIVE_RAS,
    MODE_PINNED_GS,
    MODE_PINNED_RAS,
    SWITCH_CHECK_INTERVAL,
    Grass,
    GrassConfig,
)
from repro.core.policies.samples import SampleStore
from repro.baselines import LatePolicy
from repro.core.policies import GreedySpeculative, ResourceAwareSpeculative
from repro.core.job import Job
from repro.simulator.engine import Simulation
from repro.simulator.stragglers import StragglerConfig

from tests.conftest import make_job_spec, make_simulation_config, run_single_job
from tests.test_policies import make_view

DEADLINE = ApproximationBound.with_deadline(100.0)


class TestGrassConfig:
    def test_defaults(self):
        config = GrassConfig()
        assert config.perturbation == pytest.approx(0.15)
        assert config.switching == "learned"

    def test_validation(self):
        with pytest.raises(ValueError):
            GrassConfig(perturbation=1.5)
        with pytest.raises(ValueError):
            GrassConfig(switching="bogus")


class TestModes:
    def _job(self, job_id=0):
        job = Job(make_job_spec([10.0] * 8, DEADLINE, job_id=job_id, max_slots=4))
        job.start(0.0)
        job.allocation = 4
        return job

    def test_adaptive_jobs_start_in_ras_mode(self):
        grass = Grass(GrassConfig(perturbation=0.0))
        job = self._job()
        grass.on_job_start(job, 0.0)
        assert grass.mode_of(job.job_id) == MODE_ADAPTIVE_RAS

    def test_perturbation_pins_all_jobs_when_one(self):
        grass = Grass(GrassConfig(perturbation=1.0, seed=3))
        modes = set()
        for job_id in range(20):
            job = self._job(job_id)
            grass.on_job_start(job, 0.0)
            modes.add(grass.mode_of(job_id))
        assert modes <= {MODE_PINNED_GS, MODE_PINNED_RAS}
        assert len(modes) == 2  # both arms get explored
        assert grass.jobs_pinned == 20

    def test_choose_task_delegates_to_ras_before_switch(self):
        grass = Grass(GrassConfig(perturbation=0.0))
        view = make_view(
            [(10.0, True, 30.0, 4.0, 1), (10.0, False, 2.0, 2.0, 0)],
            DEADLINE,
            remaining_deadline=90.0,
        )
        grass.on_job_start(view.job, 0.0)
        ras_decision = ResourceAwareSpeculative().choose_task(view)
        grass_decision = grass.choose_task(view)
        assert grass_decision.task.task_id == ras_decision.task.task_id

    def test_switches_to_gs_near_deadline_with_strawman(self):
        grass = Grass(GrassConfig(perturbation=0.0, switching="strawman"))
        tasks = [(10.0, False, 10.0, 10.0, 0) for _ in range(6)]
        view = make_view(tasks, DEADLINE, remaining_deadline=12.0)
        grass.on_job_start(view.job, 0.0)
        grass.choose_task(view)
        assert grass.mode_of(view.job.job_id) == MODE_ADAPTIVE_GS
        assert grass.switches_performed == 1

    def test_switch_is_checked_at_most_once_per_interval(self):
        grass = Grass(GrassConfig(perturbation=0.0))
        view = make_view([(10.0, False, 5.0, 5.0, 0)] * 4, DEADLINE, remaining_deadline=90.0)
        grass.on_job_start(view.job, 0.0)
        checked = []

        class RecordingDecider:
            def should_switch(self, view):
                checked.append(view.now)
                return False

        grass._decider = RecordingDecider()
        for step in (0.0, 0.5, 0.99, 1.0, 1.7, 2.0, 2.1):
            view.now = step * SWITCH_CHECK_INTERVAL
            grass.choose_task(view)
        assert checked == [0.0, SWITCH_CHECK_INTERVAL, 2.0 * SWITCH_CHECK_INTERVAL]
        assert grass.mode_of(view.job.job_id) == MODE_ADAPTIVE_RAS

    def test_pinned_gs_job_uses_gs(self):
        grass = Grass(GrassConfig(perturbation=0.0))
        view = make_view(
            [(10.0, True, 20.0, 8.0, 1), (10.0, False, 9.0, 9.0, 0)],
            DEADLINE,
            remaining_deadline=90.0,
        )
        grass.on_job_start(view.job, 0.0)
        grass._jobs[view.job.job_id].mode = MODE_PINNED_GS
        gs_decision = GreedySpeculative().choose_task(view)
        assert grass.choose_task(view).task.task_id == gs_decision.task.task_id

    def test_unannounced_job_is_treated_adaptively(self):
        grass = Grass(GrassConfig(perturbation=0.0))
        view = make_view([(10.0, False, 5.0, 5.0, 0)], DEADLINE, remaining_deadline=90.0)
        assert grass.choose_task(view) is not None
        assert grass.mode_of(view.job.job_id) == MODE_ADAPTIVE_RAS


class TestSampleRecording:
    def test_pinned_jobs_feed_the_store(self):
        store = SampleStore()
        grass = Grass(GrassConfig(perturbation=1.0, seed=1), sample_store=store)
        spec = make_job_spec([5.0] * 6, ApproximationBound.with_error(0.0), max_slots=3)
        config = make_simulation_config(machines=6)
        Simulation(config, grass, [spec]).run()
        assert len(store) == 1
        sample = store.samples_for("gs", "error") + store.samples_for("ras", "error")
        assert len(sample) == 1
        assert sample[0].total_tasks == 6

    def test_adaptive_jobs_do_not_feed_the_store(self):
        store = SampleStore()
        grass = Grass(GrassConfig(perturbation=0.0), sample_store=store)
        spec = make_job_spec([5.0] * 6, ApproximationBound.with_error(0.0), max_slots=3)
        Simulation(make_simulation_config(machines=6), grass, [spec]).run()
        assert len(store) == 0

    def test_job_state_cleaned_up_on_finish(self):
        grass = Grass(GrassConfig(perturbation=0.0))
        spec = make_job_spec([5.0] * 4, ApproximationBound.with_error(0.0), max_slots=2)
        Simulation(make_simulation_config(machines=4), grass, [spec]).run()
        assert grass.mode_of(spec.job_id) is None


class TestGrassEndToEnd:
    def test_grass_completes_error_bound_workload(self):
        spec = make_job_spec([8.0] * 20, ApproximationBound.with_error(0.1), max_slots=5)
        config = make_simulation_config(machines=10, stragglers=StragglerConfig(), seed=4)
        _, result = run_single_job(spec, Grass(GrassConfig(seed=4)), config)
        assert result.met_bound
        assert result.completed_input_tasks >= 18

    def test_grass_not_worse_than_late_on_stragglers(self):
        # A multi-wave error-bound job with heavy stragglers: GRASS must finish
        # at least as fast as LATE on average across seeds.
        grass_durations, late_durations = [], []
        for seed in range(3):
            spec = make_job_spec([8.0] * 40, ApproximationBound.with_error(0.1), max_slots=10)
            config = make_simulation_config(machines=12, stragglers=StragglerConfig(), seed=seed)
            _, grass_result = run_single_job(spec, Grass(GrassConfig(seed=seed)), config)
            _, late_result = run_single_job(spec, LatePolicy(), config)
            grass_durations.append(grass_result.duration)
            late_durations.append(late_result.duration)
        assert sum(grass_durations) <= sum(late_durations) * 1.05
