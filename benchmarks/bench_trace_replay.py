"""Micro-benchmark: trace-driven replay throughput (events/second).

The replay pipeline is the paper's evaluation methodology (§5/§6: replayed
Facebook/Bing traces), so its throughput is tracked alongside the synthetic
engine hot path.  A paper-shaped trace is synthesized at the bench scale,
adapted through :mod:`repro.workload.trace_replay`, and timed directly under
``Simulation.run()`` — no harness or aggregation noise — with the measured
events/second recorded into ``BENCH_engine.json`` under the ``replay`` kind
(which ``scripts/check.sh bench-gate`` diffs against the committed history).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_scale, run_throughput_bench
from repro.experiments.policies import make_policy
from repro.experiments.runner import _replay_simulation_config
from repro.simulator.engine import Simulation
from repro.workload.trace_replay import (
    TraceReplayConfig,
    iter_job_specs,
    synthesize_trace,
)
from repro.workload.traces import scan_jobs

#: Same coverage as the engine hot-path bench: one cheap greedy policy and
#: the full learning policy.
POLICIES = ("gs", "grass")


def _build_trace_workload(scale):
    trace = synthesize_trace(
        workload="facebook",
        framework="hadoop",
        num_jobs=scale.num_jobs,
        size_scale=scale.size_scale,
        max_tasks_per_job=scale.max_tasks_per_job,
        seed=13,
    )
    replay_config = TraceReplayConfig(seed=13)
    ordered = sorted(trace, key=lambda job: (job.arrival_time, job.job_id))
    specs = list(iter_job_specs(ordered, replay_config))
    sim_config = _replay_simulation_config(
        replay_config, scan_jobs(trace), scale.num_machines, seed=1
    )
    return specs, sim_config


@pytest.mark.parametrize("policy_name", POLICIES)
def test_trace_replay_events_per_second(benchmark, policy_name):
    scale = bench_scale()
    specs, sim_config = _build_trace_workload(scale)
    run_throughput_bench(
        benchmark,
        "replay",
        policy_name,
        lambda: Simulation(sim_config, make_policy(policy_name), specs),
    )
