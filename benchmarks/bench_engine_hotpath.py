"""Micro-benchmark: raw discrete-event engine throughput (events/second).

Unlike the figure benches, this one bypasses the experiment harness and
times ``Simulation.run()`` directly, so regressions in the engine hot path
(event dispatch, allocation recompute, snapshot construction) are visible
without any workload-generation or aggregation noise.  The measured
events/second lands in ``BENCH_engine.json`` alongside the per-figure wall
times.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_scale, run_throughput_bench
from repro.experiments.policies import make_policy
from repro.experiments.runner import build_simulation_config
from repro.simulator.engine import Simulation
from repro.workload.synthetic import WorkloadConfig, generate_workload

#: One cheap greedy policy and the full learning policy cover the
#: speculative-copy churn (kills, cancellations) and the estimator path; the
#: two deployed baselines every result is compared against cover the
#: index-served ``first_pending``/``running`` accessors and their skip path.
POLICIES = ("gs", "grass", "late", "mantri")


def _build_workload_and_config(scale):
    config = WorkloadConfig(
        num_jobs=scale.num_jobs,
        size_scale=scale.size_scale,
        max_tasks_per_job=scale.max_tasks_per_job,
        seed=7,
    )
    workload = generate_workload(config)
    return workload, build_simulation_config(workload, scale, seed=1)


@pytest.mark.parametrize("policy_name", POLICIES)
def test_engine_hotpath_events_per_second(benchmark, policy_name):
    scale = bench_scale()
    workload, sim_config = _build_workload_and_config(scale)
    run_throughput_bench(
        benchmark,
        "engine_hotpath",
        policy_name,
        lambda: Simulation(sim_config, make_policy(policy_name), workload.specs()),
    )


def _profile_main() -> None:
    """``python benchmarks/bench_engine_hotpath.py --profile [policy]``.

    Runs the same simulation the benchmark times under cProfile and dumps
    the top 25 functions by cumulative time, so hot-path regressions can be
    attributed without setting up a separate profiling harness.  The scale
    is taken from ``GRASS_BENCH_SCALE`` exactly like the pytest run.
    """
    import argparse
    import cProfile
    import pstats

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", action="store_true", required=True)
    parser.add_argument("policy", nargs="?", default="gs", choices=POLICIES)
    args = parser.parse_args()

    scale = bench_scale()
    workload, sim_config = _build_workload_and_config(scale)
    simulation = Simulation(sim_config, make_policy(args.policy), workload.specs())
    profiler = cProfile.Profile()
    profiler.enable()
    simulation.run()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(25)
    print(
        f"profiled policy={args.policy} jobs={scale.num_jobs} "
        f"events={simulation.events_processed}"
    )


if __name__ == "__main__":
    _profile_main()
