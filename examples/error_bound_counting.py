#!/usr/bin/env python
"""Error-bound scenario: approximate counting to the nearest thousand (§2.1).

The paper's motivating error-bound example is counting cars crossing a road
section where an answer within a known error is good enough.  Each job here
only needs (1 - error) of its input tasks; the metric is how quickly the
required fraction completes.  The example sweeps the error bound from exact
(0 %) to 30 % and compares LATE with GRASS, showing both the speedup from
approximation itself and the extra speedup from bound-aware speculation.

Run with::

    python examples/error_bound_counting.py
"""

from repro import (
    ApproximationBound,
    ClusterConfig,
    Grass,
    GrassConfig,
    JobPhaseSpec,
    JobSpec,
    LatePolicy,
    Simulation,
    SimulationConfig,
    StragglerConfig,
)
from repro.workload.profiles import framework_profile


def build_counting_job(error: float, job_id: int):
    """A 300-task scan over sensor logs, allotted 60 slots (5 waves)."""
    bound = ApproximationBound.exact() if not error else ApproximationBound.with_error(error)
    return JobSpec(
        job_id=job_id,
        arrival_time=0.0,
        phases=(JobPhaseSpec(phase_index=0, task_works=(5.0,) * 300),),
        bound=bound,
        name=f"car-count-{int(error * 100)}pct",
        max_slots=60,
    )


def main() -> None:
    spark = framework_profile("spark")
    error_bounds = [0.0, 0.05, 0.10, 0.20, 0.30]
    print("time to reach the error bound (seconds, mean of 3 runs)\n")
    print(f"{'error bound':>12} | {'LATE':>8} | {'GRASS':>8} | speedup")
    print("-" * 48)
    for error in error_bounds:
        durations = {"late": [], "grass": []}
        for seed in range(3):
            config = SimulationConfig(
                cluster=ClusterConfig(num_machines=80, seed=seed),
                stragglers=StragglerConfig(),
                estimator=spark.estimator,
                seed=seed,
            )
            job = build_counting_job(error, job_id=0)
            durations["late"].append(
                Simulation(config, LatePolicy(), [job]).run().results[0].duration
            )
            durations["grass"].append(
                Simulation(config, Grass(GrassConfig(seed=seed)), [job]).run().results[0].duration
            )
        late = sum(durations["late"]) / 3
        grass = sum(durations["grass"]) / 3
        speedup = 100.0 * (late - grass) / late if late else 0.0
        label = "exact" if not error else f"{int(error * 100)}%"
        print(f"{label:>12} | {late:8.1f} | {grass:8.1f} | {speedup:5.1f}%")


if __name__ == "__main__":
    main()
