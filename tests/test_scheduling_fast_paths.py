"""The engine's scheduling shortcuts must be invisible in the results.

Three shortcuts sit on the per-round path and each claims to compute exactly
what the plain path computes:

* the index-served view accessors ``SchedulingView.running()`` and
  ``SchedulingView.first_pending()`` that LATE, Mantri and no-spec read
  instead of the materialised snapshot list;
* the cached ``None`` answer of a ``stateless_choose`` policy
  (``SchedulingIndex.choice_void``), which lets the dispatch loop skip a
  repeat ask;
* the uncontended shortcut of ``Cluster.fair_share_limits``.

Each is checked against its plain counterpart here: the accessors by
identity on every ask of a bundled-trace replay, the skip by comparing
pickled metrics with the skip disabled, and fair share against the round
based reference below.  The oracle's :class:`ExactIndex` is checked on its
own: it reads true durations and never the job's estimator.
"""

from __future__ import annotations

import pickle
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import OraclePolicy
from repro.core.bounds import ApproximationBound
from repro.core.estimators import TaskEstimator
from repro.core.job import Job
from repro.core.policies.base import ExactIndex, SchedulingView, TaskSnapshot
from repro.core.task import Task, TaskCopy
from repro.experiments.policies import make_policy
from repro.experiments.runner import (
    ExperimentScale,
    _replay_simulation_config,
    _shard_sources,
)
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import Simulation
from repro.simulator.metrics import MetricsCollector
from repro.simulator.stragglers import StragglerConfig
from repro.workload.trace_replay import TraceReplayConfig
from repro.workload.traces import iter_trace, scan_jobs

from tests.conftest import make_job_spec, make_simulation_config

TRACES = Path(__file__).resolve().parents[1] / "traces"
#: A cluster small enough that the 40-job bundled traces contend for slots,
#: so jobs run multi-waved and the baselines reach their speculation paths.
SCALE = replace(ExperimentScale.quick(), num_machines=40)


def _simulate(policy, trace: str = "facebook_like.jsonl", bound_kind: str = "mixed"):
    jobs = list(iter_trace(TRACES / trace))
    replay_config = TraceReplayConfig(bound_kind=bound_kind, seed=3)
    scan = scan_jobs(jobs)
    (source,) = _shard_sources(jobs, scan, replay_config, 1)
    config = _replay_simulation_config(replay_config, scan, SCALE.num_machines, seed=1)
    return Simulation(config, policy, source.iter_specs()).run()


def _registered(name: str) -> type:
    """The policy class the registry builds for ``name``."""
    return type(make_policy(name))


def _checked(name: str, seen: Counter):
    """A ``name`` subclass asserting the index accessors against the list path."""
    base = _registered(name)

    class Checked(base):
        def choose_task(self, view: SchedulingView) -> Optional[TaskSnapshot]:
            stale = view.sched.p_stale
            first = view.first_pending()
            fields = None if first is None else (first.tnew, first.trem)
            running = view.running()
            # ``view.tasks`` materialises the snapshot list the accessors
            # stand in for; the index must hand out the very same objects,
            # and the fields ``first_pending`` refreshed must be the ones the
            # materialising flush writes.
            tasks = view.tasks
            expected = next((snap for snap in tasks if not snap.running), None)
            assert first is expected
            if first is not None:
                assert fields == (first.tnew, first.trem)
            expected_running = [snap for snap in tasks if snap.running]
            assert len(running) == len(expected_running)
            assert all(a is b for a, b in zip(running, expected_running, strict=True))
            seen["asks"] += 1
            seen["first"] += first is not None
            seen["no-first"] += first is None
            seen["running"] += bool(running)
            seen["stale-first"] += stale and first is not None
            return super().choose_task(view)

    return Checked()


@pytest.mark.parametrize("name", ["late", "mantri", "no-spec"])
def test_index_accessors_match_the_materialised_list(name):
    seen: Counter = Counter()
    checked = _simulate(_checked(name, seen))
    # The wrapper only observes; the run is the registered policy's run.
    plain = _simulate(make_policy(name))
    assert pickle.dumps(checked) == pickle.dumps(plain)
    # Every branch of the comparison was reached, including a pending
    # snapshot handed out while the index's pending fields were stale.
    for key in ("asks", "first", "no-first", "running", "stale-first"):
        assert seen[key] > 0, (key, seen)


def _counting(name: str, stateless: bool, counts: Counter):
    base = _registered(name)

    class Counting(base):
        stateless_choose = stateless

        def choose_task(self, view: SchedulingView) -> Optional[TaskSnapshot]:
            counts[stateless] += 1
            return super().choose_task(view)

    return Counting()


@pytest.mark.parametrize("bound_kind", ["deadline", "error"])
@pytest.mark.parametrize("name", ["gs", "ras", "late", "mantri", "no-spec"])
def test_skipping_repeat_asks_is_transparent(name, bound_kind):
    assert _registered(name).stateless_choose
    registered: MetricsCollector = _simulate(make_policy(name), bound_kind=bound_kind)
    counts: Counter = Counter()
    asked = _simulate(_counting(name, False, counts), bound_kind=bound_kind)
    skipped = _simulate(_counting(name, True, counts), bound_kind=bound_kind)
    assert pickle.dumps(asked) == pickle.dumps(registered)
    assert pickle.dumps(skipped) == pickle.dumps(registered)
    # The cached None answers were actually used.
    assert counts[True] < counts[False]


def test_exact_index_follows_true_durations():
    job = Job(make_job_spec([4.0, 6.0, 8.0], ApproximationBound.exact()))
    job.start(0.0)

    def tnew_of(task: Task) -> float:
        # Distinct per task, and moved by every launched copy.
        return 10.0 * (task.task_id + 1) + task.total_copies_launched

    index = ExactIndex(job, tnew_of, Task.true_remaining)
    copy_ids = iter(range(100))

    def launch(task: Task, now: float, duration: float) -> TaskCopy:
        copy = TaskCopy(next(copy_ids), task.task_id, 0, now, duration)
        task.add_copy(copy)
        index.on_copy_launched(task)
        return copy

    assert index.prepare(0.0)
    assert index.pending_sorted == [(10.0, 0, 4.0), (20.0, 1, 6.0), (30.0, 2, 8.0)]
    launch(job.tasks[1], 0.0, 12.0)
    assert [entry[1] for entry in index.pending_sorted] == [0, 2]
    assert index.running_ids == [1]
    assert index.prepare(0.0)
    snap = index.snaps[1]
    assert (snap.running, snap.copies, snap.trem, snap.tnew) == (True, 1, 12.0, 21.0)
    # trem follows the clock; pending snapshots are fixed within the phase.
    assert index.prepare(5.0)
    assert snap.trem == 7.0 and snap.tnew == 21.0
    assert index.snaps[0].tnew == 10.0 and index.snaps[0].trem == 10.0
    # A second copy moves tnew to the next copy's duration, and trem to the
    # soonest-finishing copy.
    fast = launch(job.tasks[1], 5.0, 3.0)
    assert index.prepare(5.0)
    assert (snap.copies, snap.trem, snap.tnew) == (2, 3.0, 22.0)
    job.tasks[1].complete(8.0, fast)
    index.on_task_finished(job.tasks[1])
    assert index.prepare(8.0)
    assert sorted(index.snaps) == [0, 2] and index.running_ids == []
    # No estimator epoch: the engine's stateless skip never matches.
    assert index.estimator is None and index.epoch == -1


def test_oracle_runs_never_touch_the_estimates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle run asked the estimator for an estimate")

    # ``tnew`` stays: ``observe_completion`` still scores the estimator on
    # every finished task, as it does for any policy.
    for name in ("update_running_snaps", "trem"):
        monkeypatch.setattr(TaskEstimator, name, refuse)
    specs = [
        make_job_spec(
            [3.0, 5.0, 4.0, 6.0, 2.0, 7.0],
            ApproximationBound.with_error(0.3),
            job_id=0,
            intermediate=[[2.0, 3.0], [1.0]],
        ),
        make_job_spec(
            [4.0] * 8,
            ApproximationBound.with_deadline(30.0),
            job_id=1,
            arrival=1.0,
            intermediate=[[2.0, 2.0]],
        ),
        make_job_spec([5.0, 1.0, 9.0], ApproximationBound.exact(), job_id=2, arrival=2.0),
    ]
    config = make_simulation_config(machines=3, stragglers=StragglerConfig(), seed=5)
    metrics = Simulation(config, OraclePolicy(), specs).run()
    assert sorted(result.job_id for result in metrics.results) == [0, 1, 2]
    assert metrics.aggregates.speculative_copies > 0


def reference_fair_share(limits: Dict[int, int], total_slots: int) -> Dict[int, int]:
    """Max-min fair share by rounds of equal grants (no shortcuts)."""
    allocations = {job_id: 0 for job_id in limits}
    remaining = total_slots
    active = [job_id for job_id, limit in limits.items() if limit > 0]
    while remaining > 0 and active:
        share = max(1, remaining // len(active))
        progressed = False
        for job_id in list(active):
            if remaining <= 0:
                break
            want = limits[job_id] - allocations[job_id]
            if want <= 0:
                active.remove(job_id)
                continue
            grant = min(share, want, remaining)
            if grant > 0:
                allocations[job_id] += grant
                remaining -= grant
                progressed = True
            if allocations[job_id] >= limits[job_id]:
                active.remove(job_id)
        if not progressed:
            break
    return allocations


@st.composite
def fair_share_cases(draw):
    """Random limits, with cluster sizes drawn both freely and right at the
    edge where the positive limits just fit (or just do not)."""
    limits = draw(st.lists(st.integers(min_value=-3, max_value=60), max_size=12))
    demand = sum(limit for limit in limits if limit > 0)
    near_demand = st.integers(min_value=-3, max_value=3).map(lambda delta: demand + delta)
    machines = draw(
        st.one_of(st.integers(min_value=1, max_value=80), near_demand.map(lambda n: max(1, n)))
    )
    return limits, machines


@settings(max_examples=300, deadline=None)
@given(case=fair_share_cases())
def test_fair_share_matches_round_reference(case):
    limits, machines = case
    cluster = Cluster(ClusterConfig(num_machines=machines, heterogeneity=0.0))
    by_job = {100 + position: limit for position, limit in enumerate(limits)}
    got = cluster.fair_share_limits(by_job)
    want = reference_fair_share(by_job, cluster.total_slots)
    # Equal as ordered mappings: the sharing order is part of the contract.
    assert list(got.items()) == list(want.items())
