#!/usr/bin/env python
"""Extending the library: plug a custom speculation policy into the simulator.

The scheduler interface is a single method — ``choose_task(view)``, which
returns one of the view's task snapshots, or None to leave the slot idle —
so new policies are easy to prototype.  The simulator launches a copy of the
chosen snapshot's task: an original if the task is pending, a speculative
duplicate if it is already running.  This example implements a naive
"duplicate-everything-in-the-last-wave" policy, wires it into the simulator,
and compares it against GS, RAS and GRASS on a small workload, demonstrating
that the interface used by the built-in policies is the same one available to
downstream users.

Run with::

    python examples/custom_policy.py
"""

from typing import Optional

from repro import (
    Grass,
    GrassConfig,
    GreedySpeculative,
    ResourceAwareSpeculative,
    Simulation,
    SimulationConfig,
    ClusterConfig,
    StragglerConfig,
    WorkloadConfig,
    generate_workload,
)
from repro.core.policies.base import SchedulingView, SpeculationPolicy, TaskSnapshot


class LastWaveDuplicator(SpeculationPolicy):
    """Run originals first; once none are left, duplicate the slowest task.

    This is deliberately simplistic — it ignores the approximation bound and
    the resource cost of duplication — and serves as a template for writing
    your own policy.
    """

    name = "last-wave-duplicator"

    def choose_task(self, view: SchedulingView) -> Optional[TaskSnapshot]:
        pending = view.pending()
        if pending:
            return min(pending, key=lambda snap: snap.task_id)
        running = [snap for snap in view.running() if snap.copies < 2]
        if not running:
            return None
        return max(running, key=lambda snap: snap.trem)


def main() -> None:
    workload = generate_workload(
        WorkloadConfig(bound_kind="error", num_jobs=20, size_scale=0.2, max_tasks_per_job=200, seed=5)
    )
    policies = {
        "last-wave duplicator (custom)": LastWaveDuplicator(),
        "GS": GreedySpeculative(),
        "RAS": ResourceAwareSpeculative(),
        "GRASS": Grass(GrassConfig(seed=5)),
    }
    print("average error-bound job duration under each policy\n")
    for label, policy in policies.items():
        config = SimulationConfig(
            cluster=ClusterConfig(num_machines=120, seed=2),
            stragglers=StragglerConfig(),
            seed=2,
        )
        metrics = Simulation(config, policy, workload.specs()).run()
        print(f"  {label:<30} {metrics.average_duration():8.1f}s")


if __name__ == "__main__":
    main()
