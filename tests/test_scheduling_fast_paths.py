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
based reference below.
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

from repro.core.policies.base import SchedulingDecision, SchedulingView
from repro.experiments.policies import make_policy
from repro.experiments.runner import ExperimentScale, build_simulation_config
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import Simulation
from repro.simulator.metrics import MetricsCollector
from repro.workload.trace_replay import TraceReplayConfig, trace_to_workload
from repro.workload.traces import load_trace

TRACES = Path(__file__).resolve().parents[1] / "traces"
#: A cluster small enough that the 40-job bundled traces contend for slots,
#: so jobs run multi-waved and the baselines reach their speculation paths.
SCALE = replace(ExperimentScale.quick(), num_machines=40)


def _simulate(policy, trace: str = "facebook_like.jsonl", bound_kind: str = "mixed"):
    replay = trace_to_workload(
        load_trace(TRACES / trace), TraceReplayConfig(bound_kind=bound_kind, seed=3)
    )
    config = replace(
        build_simulation_config(replay.workload, SCALE, seed=1, oracle_estimates=False),
        stragglers=replay.stragglers,
    )
    return Simulation(config, policy, replay.workload.job_specs).run()


def _registered(name: str) -> type:
    """The policy class the registry builds for ``name``."""
    return type(make_policy(name))


def _checked(name: str, seen: Counter):
    """A ``name`` subclass asserting the index accessors against the list path."""
    base = _registered(name)

    class Checked(base):
        def choose_task(self, view: SchedulingView) -> Optional[SchedulingDecision]:
            if view.sched is not None:
                stale = view.sched.p_stale
                first = view.first_pending()
                fields = None if first is None else (first.tnew, first.trem)
                running = view.running()
                # ``view.tasks`` materialises the eager list the accessors
                # replace; the index must hand out the very same objects,
                # and the fields ``first_pending`` refreshed must be the
                # ones the materialising flush writes.
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

        def choose_task(self, view: SchedulingView) -> Optional[SchedulingDecision]:
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


def reference_fair_share(
    limits: Dict[int, int], total_slots: int, capacity: Optional[int]
) -> Dict[int, int]:
    """Max-min fair share by rounds of equal grants (no shortcuts)."""
    allocations = {job_id: 0 for job_id in limits}
    remaining = total_slots if capacity is None else max(0, capacity)
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
    """Random limits, with capacities drawn both freely and right at the edge
    where the positive limits just fit (or just do not)."""
    limits = draw(st.lists(st.integers(min_value=-3, max_value=60), max_size=12))
    demand = sum(limit for limit in limits if limit > 0)
    near_demand = st.integers(min_value=-3, max_value=3).map(lambda delta: demand + delta)
    capacity = draw(st.one_of(st.none(), st.integers(min_value=-5, max_value=150), near_demand))
    machines = draw(
        st.one_of(st.integers(min_value=1, max_value=80), near_demand.map(lambda n: max(1, n)))
    )
    return limits, capacity, machines


@settings(max_examples=300, deadline=None)
@given(case=fair_share_cases())
def test_fair_share_matches_round_reference(case):
    limits, capacity, machines = case
    cluster = Cluster(ClusterConfig(num_machines=machines, heterogeneity=0.0))
    by_job = {100 + position: limit for position, limit in enumerate(limits)}
    got = cluster.fair_share_limits(by_job, capacity=capacity)
    want = reference_fair_share(by_job, cluster.total_slots, capacity)
    # Equal as ordered mappings: the sharing order is part of the contract.
    assert list(got.items()) == list(want.items())
