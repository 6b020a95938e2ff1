"""Shared warm-up caching: warm each learning policy once, ship snapshots.

``compare_policies`` warms learning policies (GRASS) on a separate workload
so their sample stores reflect cluster history before the measured run.
Every figure that runs GRASS goes through it, Figure 15's ξ variants
(``grass-xi*``) included, so no figure measures a cold or carried-over GRASS.
Re-simulating that warm-up inside every ``(policy, seed)`` request would
cost, at ``paper()`` scale, 21 warm-ups each roughly a third as large as the
measured workload.  The cache runs each warm-up exactly once per
``(policy, warm-up seed)``, snapshots the policy's cross-job state
(:meth:`~repro.core.policies.base.SpeculationPolicy.state_snapshot`) and
ships the snapshot to workers, which restore it instead of re-simulating.
A cache is also the only way a request is warmed: ``RunRequest.warm_state``
holds either a cache or a snapshot taken from one.

Where the warm-up runs
----------------------

A request names the cache itself as its ``warm_state``, and the cache is
resolved wherever the request runs.  In-process, ``RunRequest.execute``
asks :meth:`WarmupCache.snapshot_for`, so the first request of a learning
policy warms it and the rest hit the memo.  On a pool, the dispatch loop
behind ``ParallelExecutor.run`` and ``run_stream`` sends each (cache,
policy) pair's first request as a *chain head* — warm-up, then that
request, as one worker task — and the head hands its snapshot back to the
parent's cache (:meth:`WarmupCache.record`) for the pair's later requests,
which wait for it.  A pickled cache carries only its recipe (the warm-up
workload and config), so the copy a head takes to a worker starts empty.
:meth:`WarmupCache.prewarm` is a plain serial loop that nothing in the
package calls; the benchmark's tracer wraps it by name.

Cache semantics
---------------

* **Key**: ``(policy name, warm-up seed)`` where the warm-up seed is the
  warm-up *simulation config's* seed.  The warm-up workload itself is
  regenerated deterministically from its config, so two calls with the same
  key have byte-identical warm-up runs and may share a snapshot.
* **Invalidation**: a cache instance is scoped to the one warm-up workload +
  config pair it was constructed with — the memo key deliberately omits
  them, so do NOT reuse an instance across different warm-up workloads or
  configs.  Callers build a fresh cache per ``compare_policies`` call, so
  there is nothing to invalidate within a process: changing the workload,
  scale, framework or seed produces a different cache, never a stale hit.
* **Transparency**: restoring a snapshot is byte-equivalent to re-running
  the warm-up under the same config (locked in by
  ``tests/test_warmup_cache.py``), so sharing changes wall-clock only —
  metrics digests are identical whether a comparison's requests share one
  cache or each carry their own (``compare_policies(warm_cache=False)``).

Stateless policies (``learns_across_jobs`` false) are never warmed at all:
a warm-up simulation shares nothing with the measured one except the policy
object, so for a policy without cross-job state it is pure waste.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.experiments.policies import make_policy
from repro.simulator.engine import Simulation, SimulationConfig
from repro.workload.synthetic import GeneratedWorkload


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


class WarmupCache:
    """Memoised warm-up snapshots for one (warm-up workload, config) pair.

    ``measured_seeds`` (when given) are the simulation seeds of the runs the
    warm-ups will serve; the constructor refuses a warm-up seed that is also
    a measured seed (see :func:`check_warmup_seed_collision`).
    """

    def __init__(
        self,
        warmup: GeneratedWorkload,
        warmup_config: SimulationConfig,
        measured_seeds: Sequence[int] = (),
    ) -> None:
        check_warmup_seed_collision(warmup_config.seed, measured_seeds)
        self.warmup = warmup
        self.warmup_config = warmup_config
        self._snapshots: Dict[Tuple[str, int], object] = {}
        self.hits = 0
        self.misses = 0

    def __reduce__(self) -> tuple:
        # A cache pickles as its recipe: the copy a worker unpickles starts
        # empty, and pickling never reads the memo while this process fills it.
        return (WarmupCache, (self.warmup, self.warmup_config))

    def _key(self, policy_name: str) -> Tuple[str, int]:
        return (policy_name, self.warmup_config.seed)

    def holds(self, policy_name: str) -> bool:
        """True if the policy's snapshot is memoised (a lookup would hit)."""
        return self._key(policy_name) in self._snapshots

    def record(self, policy_name: str, snapshot: object) -> None:
        """Memoise a freshly warmed snapshot, counted as the miss that made it.

        ``ParallelExecutor`` records the snapshots its pool workers warm.
        """
        self._snapshots[self._key(policy_name)] = snapshot
        self.misses += 1

    def snapshot_for(self, policy_name: str) -> object:
        """The warmed state snapshot for one learning policy (memoised)."""
        key = self._key(policy_name)
        if key in self._snapshots:
            self.hits += 1
            return self._snapshots[key]
        snapshot = warm_policy_snapshot(policy_name, self.warmup, self.warmup_config)
        self.record(policy_name, snapshot)
        return snapshot

    def prewarm(self, policy_names: Sequence[str]) -> None:
        """Warm every *learning* policy in ``policy_names`` not yet memoised.

        A serial loop over :meth:`snapshot_for`.  Nothing in the package
        calls it; the benchmark's tracer (``perfbench/tracer.py``) wraps it
        by name, so it stays until that tracer changes.
        """
        for name in dict.fromkeys(policy_names):  # preserve order, dedupe
            if policy_learns(name) and not self.holds(name):
                self.snapshot_for(name)
