#!/usr/bin/env python
"""Quickstart: run a synthetic workload under GRASS and the LATE baseline.

This is the 60-second tour of the library:

1. generate a Facebook-like synthetic workload of approximation jobs,
2. run it through the discrete-event cluster simulator twice — once under
   the production baseline (LATE) and once under GRASS,
3. print the paper's headline metrics: average accuracy of deadline-bound
   jobs and average duration of error-bound jobs.

Run with::

    python examples/quickstart.py
"""

from repro import (
    Grass,
    GrassConfig,
    LatePolicy,
    Simulation,
    SimulationConfig,
    ClusterConfig,
    WorkloadConfig,
    generate_workload,
)


def main() -> None:
    workload_config = WorkloadConfig(
        workload="facebook",
        framework="hadoop",
        num_jobs=40,
        bound_kind="mixed",      # half deadline-bound, half error-bound
        size_scale=0.25,          # shrink jobs so the demo runs in seconds
        max_tasks_per_job=300,
        seed=7,
    )
    workload = generate_workload(workload_config)
    print(f"generated {len(workload)} jobs "
          f"({sum(spec.num_tasks for spec in workload.specs())} tasks)")

    framework = workload_config.framework_profile
    simulation_config = SimulationConfig(
        cluster=ClusterConfig(num_machines=150, seed=1),
        stragglers=framework.stragglers,
        estimator=framework.estimator,
        seed=1,
    )

    for label, policy in (("LATE (baseline)", LatePolicy()),
                          ("GRASS", Grass(GrassConfig(seed=1)))):
        metrics = Simulation(simulation_config, policy, workload.specs()).run()
        summary = metrics.summary()
        print(f"\n== {label}")
        print(f"  deadline-bound jobs: average accuracy = {summary['avg_accuracy']:.3f}")
        print(f"  error-bound jobs:    average duration = {summary['avg_duration']:.1f}s")
        print(f"  speculative copies:  {metrics.aggregates.speculative_copies} "
              f"({100 * summary['speculation_ratio']:.1f}% of all copies)")


if __name__ == "__main__":
    main()
