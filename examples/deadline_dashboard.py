#!/usr/bin/env python
"""Deadline-bound scenario: a real-time advertising dashboard (§2.1).

A dashboard query must return within a hard deadline; whatever fraction of
the data has been processed by then determines the answer's accuracy.  This
example builds one large multi-waved aggregation job (map + reduce), runs it
under every speculation policy, and reports the accuracy each policy reaches
by the deadline — illustrating why bound-aware speculation matters.

Run with::

    python examples/deadline_dashboard.py
"""

from repro import (
    ApproximationBound,
    ClusterConfig,
    Grass,
    GrassConfig,
    GreedySpeculative,
    JobPhaseSpec,
    JobSpec,
    LatePolicy,
    MantriPolicy,
    NoSpeculationPolicy,
    ResourceAwareSpeculative,
    Simulation,
    SimulationConfig,
    StragglerConfig,
)
from repro.workload.profiles import framework_profile


def build_query_job(deadline: float):
    """A 400-way scan feeding 40 reducers, allotted 100 slots (4 waves)."""
    return JobSpec(
        job_id=0,
        arrival_time=0.0,
        phases=(
            JobPhaseSpec(phase_index=0, task_works=(6.0,) * 400),  # map
            JobPhaseSpec(phase_index=1, task_works=(8.0,) * 40),  # reduce
        ),
        bound=ApproximationBound.with_deadline(deadline),
        name="ads-dashboard-query",
        max_slots=100,
    )


def main() -> None:
    hadoop = framework_profile("hadoop")
    deadline = 6.0 * 4 * 1.15 + 8.0  # four map waves plus one reduce wave, 15% slack
    policies = {
        "no speculation": NoSpeculationPolicy(),
        "LATE": LatePolicy(),
        "Mantri": MantriPolicy(),
        "GS only": GreedySpeculative(),
        "RAS only": ResourceAwareSpeculative(),
        "GRASS": Grass(GrassConfig(seed=3)),
    }
    print(f"dashboard query with deadline {deadline:.1f}s; accuracy = fraction of map tasks done\n")
    for label, policy in policies.items():
        accuracies = []
        for seed in range(3):
            config = SimulationConfig(
                cluster=ClusterConfig(num_machines=120, seed=seed),
                stragglers=StragglerConfig(),  # production-calibrated heavy tail
                estimator=hadoop.estimator,
                seed=seed,
            )
            metrics = Simulation(config, policy, [build_query_job(deadline)]).run()
            accuracies.append(metrics.results[0].accuracy)
        mean_accuracy = sum(accuracies) / len(accuracies)
        print(f"  {label:<15} accuracy at the deadline: {100 * mean_accuracy:5.1f}%")


if __name__ == "__main__":
    main()
