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

from dataclasses import replace

import pytest

from benchmarks.conftest import bench_scale, run_throughput_bench
from repro.experiments.policies import make_policy
from repro.experiments.runner import build_simulation_config
from repro.simulator.engine import Simulation
from repro.workload.trace_replay import (
    TraceReplayConfig,
    synthesize_trace,
    trace_to_workload,
)

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
    trace_workload = trace_to_workload(trace, TraceReplayConfig(seed=13))
    sim_config = replace(
        build_simulation_config(trace_workload.workload, scale, seed=1),
        stragglers=trace_workload.stragglers,
    )
    return trace_workload, sim_config


@pytest.mark.parametrize("policy_name", POLICIES)
def test_trace_replay_events_per_second(benchmark, policy_name):
    scale = bench_scale()
    trace_workload, sim_config = _build_trace_workload(scale)
    run_throughput_bench(
        benchmark,
        "replay",
        policy_name,
        lambda: Simulation(
            sim_config, make_policy(policy_name), trace_workload.workload.specs()
        ),
    )
