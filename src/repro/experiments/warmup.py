"""Warm-ups: a learning policy's cluster history, built where it is used.

``compare_policies`` warms learning policies (GRASS) on a separate workload
so their sample stores reflect cluster history before the measured run.
Every figure that runs GRASS goes through it, Figure 15's ξ variants
(``grass-xi*``) included, so no figure measures a cold or carried-over GRASS.

A :class:`WarmupCache` is the *recipe* of one warm-up: the warm-up
workload's config and the simulation config it runs under.  It is frozen
and pickles to a few hundred bytes, so a request carries it as its
``warm_state`` (``RunRequest.warm_state`` holds nothing else) and the
process running the request — the parent or a pool worker — builds the
warm-up itself through :meth:`WarmupCache.snapshot_for`: it reads the
warm-up workload from :func:`~repro.workload.synthetic.generated`,
simulates a fresh policy on it and snapshots the policy's cross-job state
(:meth:`~repro.core.policies.base.SpeculationPolicy.state_snapshot`), which
the request then restores.

Memo
----

Each process memoises the snapshots it warms, keyed by (policy name,
recipe).  The memo is module state because a pool worker keeps nothing
else between the requests it runs.  So a serial comparison warms each
learning policy once, and on a pool each worker warms each learning policy
at most once: a comparison over several seeds may warm a learning policy
once per worker.  ``compare_policies`` empties this memo and the
generated-workload memo (:func:`forget_memos`) when it starts, so a
repeated comparison (``--repeat``) times every warm-up again and the memos
hold one comparison's entries at most.

* **Key**: the recipe is the whole warm-up — workload config, simulation
  config and so seed — so two equal recipes simulate byte-identical warm-ups
  and may share a snapshot, and a different workload, scale, framework or
  seed is a different key, never a stale hit.
* **Transparency**: restoring a snapshot is byte-equivalent to re-running
  the warm-up under the same config (locked in by
  ``tests/test_warmup_cache.py``), so the memo changes wall-clock only:
  metrics digests are identical for any worker count.
* The memo calls :func:`warm_policy_snapshot` through this module's global
  at call time, and the workload memo calls ``generate_workload`` through
  its module's, so a wrapper bound over either (the benchmark's tracer, a
  test's warm-up log) sees every warm-up.

Stateless policies (``learns_across_jobs`` false) are never warmed at all:
a warm-up simulation shares nothing with the measured one except the policy
object, so for a policy without cross-job state it is pure waste.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.experiments.policies import make_policy
from repro.simulator.engine import Simulation, SimulationConfig
from repro.workload.synthetic import (
    GeneratedWorkload,
    WorkloadConfig,
    forget_generated,
    generated,
)

#: This process's warmed snapshots, by (policy name, recipe).
_snapshots: Dict[Tuple[str, "WarmupCache"], object] = {}


def policy_learns(name: str) -> bool:
    """True if the named policy carries cross-job state (needs warm-up)."""
    return make_policy(name).learns_across_jobs


def check_warmup_seed_collision(
    warmup_seed: int, measured_seeds: Sequence[int]
) -> None:
    """Reject a warm-up seed that is also a measured run seed.

    A measured run whose simulation seed equals the warm-up seed replays the
    exact cluster and straggler draws the policy just warmed up on, silently
    biasing learning policies toward that one seed.  Nothing downstream can
    tell the two runs apart, so the collision must be refused up front.
    """
    if warmup_seed in measured_seeds:
        raise ValueError(
            f"warm-up seed collision: measured seed {warmup_seed} equals the "
            "derived warm-up seed (workload seed + WARMUP_SEED_OFFSET), so the "
            "measured run would replay the exact simulation the policy warmed "
            "up on; pick different run seeds or disable warm-up"
        )


def warm_policy_snapshot(
    policy_name: str,
    warmup: GeneratedWorkload,
    warmup_config: SimulationConfig,
) -> object:
    """Warm a fresh instance of ``policy_name`` and return its state snapshot."""
    policy = make_policy(policy_name)
    Simulation(warmup_config, policy, warmup.specs()).run()
    return policy.state_snapshot()


def forget_memos() -> None:
    """Empty this process's warm-up and generated-workload memos."""
    _snapshots.clear()
    forget_generated()


@dataclass(frozen=True)
class WarmupCache:
    """The recipe of one warm-up: the workload and the config it runs under."""

    workload: WorkloadConfig
    config: SimulationConfig

    def snapshot_for(self, policy_name: str) -> object:
        """The policy's state after this warm-up, from this process's memo."""
        key = (policy_name, self)
        if key not in _snapshots:
            _snapshots[key] = warm_policy_snapshot(
                policy_name, generated(self.workload), self.config
            )
        return _snapshots[key]

    def prewarm(self, policy_names: Sequence[str]) -> None:
        """Warm every *learning* policy in ``policy_names`` into the memo.

        A serial loop over :meth:`snapshot_for`.  Nothing in the package
        calls it; the benchmark's tracer (``perfbench/tracer.py``) wraps it
        by name, so it stays until that tracer changes.
        """
        for name in dict.fromkeys(policy_names):  # preserve order, dedupe
            if policy_learns(name):
                self.snapshot_for(name)
