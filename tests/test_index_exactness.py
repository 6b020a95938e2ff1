"""The incremental scheduling index must reproduce a full rebuild exactly.

``SchedulingIndex`` keeps one job's snapshots across scheduling rounds and
only re-estimates what changed (a re-estimate, a retime or a replay instead
of a rebuild).  Its docstring promises that every round emits exactly the
noise draws and accuracy folds a rebuild of every snapshot would.  Here each
registered policy runs twice, once as the engine runs it and once with
indexes that rebuild on every ``prepare`` (``ExactIndex`` too, for the
oracle), and the two runs must agree on every job's result and on the event
count, and draw the same number of noise keys.

Natural runs almost never fill a job's noise cache (4,096 keys), so no
eviction happens and the eviction paths (the re-estimate after a noise
generation change, and the forced walk of a replay interrupted by one) go
unchecked.  Both runs therefore evict the cache at every
``EVICT_EVERY``-th new noise key.
"""

from __future__ import annotations

import pickle
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import ApproximationBound
from repro.core.estimators import EstimatorConfig, TaskEstimator
from repro.core.policies.base import ExactIndex, SchedulingIndex
from repro.experiments.plan import ExperimentScale
from repro.experiments.policies import make_policy
from repro.experiments.runner import build_simulation_config
from repro.simulator import engine
from repro.simulator.cluster import ClusterConfig
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.stragglers import StragglerConfig
from repro.workload.synthetic import WorkloadConfig, generate_workload

from tests.conftest import make_job_spec

#: One policy per distinct decision path of the registry.
POLICIES = ("no-spec", "late", "mantri", "gs", "ras", "grass", "grass-strawman", "oracle")

#: Evict a job's noise cache at every 23rd new key (see the module docs).
EVICT_EVERY = 23


class RebuildingIndex(SchedulingIndex):
    """The reference: rebuilds every snapshot on every round."""

    __slots__ = ()

    def prepare(self, now: float) -> bool:
        self.phase = -1
        return super().prepare(now)

    def _replay(self) -> None:
        # The engine's stateless-choice skip calls this directly, to emit the
        # folds of a round whose answer it already knows.
        void = self.choice_void
        self._rebuild(self.now, self.phase)
        self.choice_void = void


class RebuildingExactIndex(ExactIndex):
    """The oracle's reference: walks every task on every round."""

    __slots__ = ()

    def prepare(self, now: float) -> bool:
        self.phase = -1
        return super().prepare(now)


def _evicting_noise(counts):
    """``TaskEstimator._noise`` that also evicts at every EVICT_EVERY-th new key."""

    def _noise(self, sigma, cache, key):
        if sigma <= 0:
            return 1.0
        if key not in cache:
            counts["keys"] += 1
            if len(cache) > 4096 or counts["keys"] % EVICT_EVERY == 0:
                counts["evictions"] += 1
                cache.clear()
                self.noise_generation += 1
            cache[key] = max(0.2, 1.0 + self._gauss(0.0, sigma))
        return cache[key]

    return _noise


def _run(config: SimulationConfig, policy_name: str, specs, rebuild: bool):
    """``(pickled per-job results, events, (noise keys, evictions))`` of one run."""
    counts = {"keys": 0, "evictions": 0}
    with ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(TaskEstimator, "_noise", _evicting_noise(counts))
        )
        if rebuild:
            stack.enter_context(mock.patch.object(engine, "SchedulingIndex", RebuildingIndex))
            stack.enter_context(mock.patch.object(engine, "ExactIndex", RebuildingExactIndex))
        metrics = Simulation(config, make_policy(policy_name), specs).run()
    draws = (counts["keys"], counts["evictions"])
    return pickle.dumps(metrics.results), metrics.events_processed, draws


def _assert_rebuild_equal(config, policy_name, specs):
    incremental = _run(config, policy_name, specs, rebuild=False)
    rebuilt = _run(config, policy_name, specs, rebuild=True)
    assert incremental[1] == rebuilt[1], "event counts differ"
    assert incremental[0] == rebuilt[0], "per-job results differ"
    assert incremental[2] == rebuilt[2], "noise draws differ"
    return incremental[2][1]


CELLS = {
    "facebook-mixed": WorkloadConfig(workload="facebook", bound_kind="mixed", seed=4),
    "bing-deadline": WorkloadConfig(workload="bing", bound_kind="deadline", seed=5),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("policy_name", POLICIES)
def test_incremental_index_equals_rebuild_on_a_quick_cell(cell, policy_name):
    scale = ExperimentScale.quick()
    workload = generate_workload(
        replace(
            CELLS[cell],
            num_jobs=scale.num_jobs,
            size_scale=scale.size_scale,
            max_tasks_per_job=scale.max_tasks_per_job,
        )
    )
    config = build_simulation_config(workload, scale, seed=1)
    evictions = _assert_rebuild_equal(config, policy_name, workload.specs())
    if policy_name != "oracle":
        # The oracle never reads its estimators; every other run must
        # actually cross the eviction paths.
        assert evictions > 0


@st.composite
def workloads(draw):
    """Up to 12 jobs: mixed bounds, DAG lengths 1-3, staggered arrivals."""
    num_jobs = draw(st.integers(min_value=1, max_value=12))
    specs = []
    arrival = 0.0
    for job_id in range(num_jobs):
        num_tasks = draw(st.integers(min_value=2, max_value=16))
        works = draw(
            st.lists(
                st.floats(min_value=0.5, max_value=12.0), min_size=num_tasks, max_size=num_tasks
            )
        )
        intermediate = draw(
            st.lists(
                st.lists(st.floats(min_value=0.5, max_value=6.0), min_size=1, max_size=5),
                max_size=2,
            )
        )
        kind = draw(st.sampled_from(("deadline", "error", "exact")))
        if kind == "deadline":
            bound = ApproximationBound.with_deadline(draw(st.floats(min_value=2.0, max_value=60.0)))
        elif kind == "error":
            bound = ApproximationBound.with_error(draw(st.sampled_from((0.05, 0.1, 0.25, 0.5))))
        else:
            bound = ApproximationBound.exact()
        max_slots = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=8)))
        arrival += draw(st.floats(min_value=0.0, max_value=6.0))
        specs.append(
            make_job_spec(
                works,
                bound,
                job_id=job_id,
                arrival=arrival,
                max_slots=max_slots,
                intermediate=intermediate,
            )
        )
    return specs


@settings(max_examples=80, deadline=None)
@given(
    specs=workloads(),
    policy_name=st.sampled_from(POLICIES),
    machines=st.integers(min_value=2, max_value=12),
    heterogeneity=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=50),
)
def test_incremental_index_equals_rebuild_on_random_workloads(
    specs, policy_name, machines, heterogeneity, seed
):
    config = SimulationConfig(
        cluster=ClusterConfig(num_machines=machines, heterogeneity=heterogeneity, seed=seed),
        stragglers=StragglerConfig(),
        estimator=EstimatorConfig(),
        seed=seed,
    )
    _assert_rebuild_equal(config, policy_name, specs)
