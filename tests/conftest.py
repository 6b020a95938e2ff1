"""Shared fixtures and helpers for the GRASS reproduction test suite."""

from __future__ import annotations

from typing import Optional, Sequence

import pytest

from repro.core.bounds import ApproximationBound
from repro.core.estimators import EstimatorConfig
from repro.core.job import Job, JobPhaseSpec, JobSpec
from repro.simulator.cluster import ClusterConfig
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.stragglers import StragglerConfig


def make_job_spec(
    works: Sequence[float],
    bound: ApproximationBound,
    job_id: int = 0,
    arrival: float = 0.0,
    max_slots: Optional[int] = None,
    intermediate: Optional[Sequence[Sequence[float]]] = None,
) -> JobSpec:
    """Build a job spec with one input phase and optional intermediate phases."""
    phases = [JobPhaseSpec(phase_index=0, task_works=tuple(works))]
    for index, phase_works in enumerate(intermediate or [], start=1):
        phases.append(JobPhaseSpec(phase_index=index, task_works=tuple(phase_works)))
    return JobSpec(
        job_id=job_id,
        arrival_time=arrival,
        phases=tuple(phases),
        bound=bound,
        max_slots=max_slots,
    )


def make_simulation_config(
    machines: int = 20,
    seed: int = 0,
    stragglers: Optional[StragglerConfig] = None,
    oracle: bool = False,
    estimator: Optional[EstimatorConfig] = None,
) -> SimulationConfig:
    """A small, deterministic simulation config for unit tests."""
    return SimulationConfig(
        cluster=ClusterConfig(num_machines=machines, heterogeneity=0.0, seed=seed),
        stragglers=stragglers or StragglerConfig.none(),
        estimator=estimator or EstimatorConfig.perfect(),
        seed=seed,
        oracle_estimates=oracle,
    )


def run_single_job(spec, policy, config: Optional[SimulationConfig] = None):
    """Run one job under one policy and return (metrics, job result)."""
    config = config or make_simulation_config()
    metrics = Simulation(config, policy, [spec]).run()
    assert len(metrics.results) == 1
    return metrics, metrics.results[0]


def replay_source(policies, source, scale, shards=1, config=None, **kwargs):
    """Replay a trace path or an in-memory job list under ``policies``.

    Calls the runner's single replay path directly — the one ``execute(plan)``
    runs — so tests can use scales and job lists a plan cannot name.  A path
    to an arrival-sorted file is windowed lazily; a job list is sorted and
    sliced in memory.
    """
    from repro.experiments.runner import _replay
    from repro.workload.trace_replay import TraceReplayConfig

    return _replay(
        list(policies), source, config or TraceReplayConfig(), scale, shards, **kwargs
    )


@pytest.fixture
def deadline_bound() -> ApproximationBound:
    return ApproximationBound.with_deadline(30.0)


@pytest.fixture
def error_bound() -> ApproximationBound:
    return ApproximationBound.with_error(0.1)


@pytest.fixture
def started_job(deadline_bound) -> Job:
    """A running 4-task job used by task/job level unit tests."""
    spec = make_job_spec([5.0, 5.0, 5.0, 5.0], deadline_bound)
    job = Job(spec)
    job.start(0.0)
    return job
