"""Cluster: machines, slots and fair-share allocation across jobs.

The cluster tracks which slots are busy, assigns newly launched copies to
machines, and recomputes each running job's slot allocation whenever the set
of running jobs changes.  Fair sharing is what makes jobs *multi-waved* (§2.1):
a job with 1000 tasks given 100 slots runs one tenth of its tasks at a time.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.simulator.machine import Machine
from repro.utils.rng import RngStream
from repro.utils.stats import left_sum, median


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated cluster.

    The default of 200 machines with one slot each mirrors the paper's 200
    node EC2 deployment (each node contributing one task slot keeps the
    arithmetic of waves simple; ``slots_per_machine`` can be raised to model
    multi-slot nodes).
    """

    num_machines: int = 200
    slots_per_machine: int = 1
    heterogeneity: float = 0.08
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_machines <= 0:
            raise ValueError("num_machines must be positive")
        if self.slots_per_machine <= 0:
            raise ValueError("slots_per_machine must be positive")
        if not 0.0 <= self.heterogeneity < 1.0:
            raise ValueError("heterogeneity must be in [0, 1)")

    @property
    def total_slots(self) -> int:
        return self.num_machines * self.slots_per_machine


class Cluster:
    """Runtime slot accounting and machine placement."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        rng = RngStream(config.seed, "cluster")
        self.machines: List[Machine] = []
        for machine_id in range(config.num_machines):
            if config.heterogeneity > 0:
                speed = rng.truncated_gauss(
                    1.0,
                    config.heterogeneity,
                    low=1.0 - config.heterogeneity,
                    high=1.0 + 2.0 * config.heterogeneity,
                )
            else:
                speed = 1.0
            self.machines.append(
                Machine(
                    machine_id=machine_id,
                    num_slots=config.slots_per_machine,
                    speed_factor=speed,
                )
            )
        self._machine_by_id: Dict[int, Machine] = {
            machine.machine_id: machine for machine in self.machines
        }
        self._placement_rng = rng.spawn("placement")
        # ``pick_machine`` runs once per copy launch; bind the stream's
        # underlying ``Random.choice`` to skip the passthrough wrapper.
        self._placement_choice = self._placement_rng._random.choice
        self._busy_count = 0
        # Flat columns over the machines (index == machine_id): the speed
        # column feeds placement-free duration math without touching Machine
        # objects, and the cached median is what oracle ``tnew`` snapshots
        # use instead of re-sorting 200 speeds per estimate.
        self.speed_column: array = array(
            "d", (machine.speed_factor for machine in self.machines)
        )
        self.median_speed: float = median(self.speed_column)
        # Busy-count-bucketed free-list: ``_busy_buckets[b]`` holds the ids of
        # machines with exactly ``b`` busy slots, kept sorted ascending.  The
        # lowest non-empty bucket below ``slots_per_machine`` *is* the
        # least-loaded candidate set ``pick_machine`` used to rebuild in
        # O(machines) per copy launch.
        self._busy_buckets: List[List[int]] = [
            [] for _ in range(config.slots_per_machine + 1)
        ]
        self._busy_buckets[0] = list(range(config.num_machines))

    def _move_bucket(self, machine_id: int, old_busy: int, new_busy: int) -> None:
        bucket = self._busy_buckets[old_busy]
        del bucket[bisect_left(bucket, machine_id)]
        insort(self._busy_buckets[new_busy], machine_id)

    # -- capacity ---------------------------------------------------------------

    @property
    def total_slots(self) -> int:
        return self.config.total_slots

    @property
    def busy_slots(self) -> int:
        return self._busy_count

    @property
    def free_slots(self) -> int:
        return self.total_slots - self.busy_slots

    def has_free_slot(self) -> bool:
        return self.free_slots > 0

    def utilization(self) -> float:
        """Fraction of slots currently busy, in [0, 1]."""
        if self.total_slots == 0:
            return 0.0
        return self.busy_slots / self.total_slots

    # -- placement --------------------------------------------------------------

    def machine(self, machine_id: int) -> Machine:
        return self._machine_by_id[machine_id]

    def pick_machine(self) -> Optional[Machine]:
        """Pick a machine with a free slot, randomly among the least loaded.

        Random placement among least-loaded machines approximates the data
        locality-agnostic placement the paper's prototypes use for
        speculative copies.
        """
        # The lowest non-empty bucket (below the per-machine slot count) is
        # exactly the old least-loaded candidate list, already sorted by
        # machine id; ``random.choice`` consumes randomness as a function of
        # the sequence *length* only, so the draw is identical to picking
        # from the materialised Machine list.
        buckets = self._busy_buckets
        for busy in range(self.config.slots_per_machine):
            bucket = buckets[busy]
            if bucket:
                return self._machine_by_id[self._placement_choice(bucket)]
        return None

    def occupy(self, machine_id: int, job_id: int, task_id: int, copy_id: int) -> None:
        machine = self._machine_by_id[machine_id]
        busy = machine.busy_slots
        machine.occupy(job_id, task_id, copy_id)
        self._busy_count += 1
        self._move_bucket(machine_id, busy, busy + 1)

    def release(self, machine_id: int, job_id: int, task_id: int, copy_id: int) -> None:
        machine = self._machine_by_id[machine_id]
        busy = machine.busy_slots
        machine.release(job_id, task_id, copy_id)
        self._busy_count -= 1
        self._move_bucket(machine_id, busy, busy - 1)

    # -- fair sharing ---------------------------------------------------------------

    def fair_share(
        self,
        job_ids: Sequence[int],
        demands: Dict[int, int],
        caps: Optional[Dict[int, Optional[int]]] = None,
        capacity: Optional[int] = None,
    ) -> Dict[int, int]:
        """Max-min fair allocation of slots to jobs.

        ``demands`` maps a job to how many slots it could use right now
        (pending tasks plus running copies); ``caps`` optionally limits a job
        (``JobSpec.max_slots``).  Slots a job cannot use are redistributed to
        the others, which is what lets a lone small job in an idle cluster
        become single-waved while a crowded cluster forces multi-waved runs.
        ``capacity`` overrides the number of slots available for sharing
        (used to model background utilisation from other tenants).
        """
        if not job_ids:
            return {}
        caps = caps or {}

        # Precompute each job's effective limit once; the convergence loop
        # below reads it O(rounds) times per job.
        limits: Dict[int, int] = {}
        for job_id in job_ids:
            cap = caps.get(job_id)
            demand = demands.get(job_id, 0)
            limits[job_id] = demand if cap is None else min(cap, demand)
        return self.fair_share_limits(limits, capacity=capacity)

    def fair_share_limits(
        self, limits: Dict[int, int], capacity: Optional[int] = None
    ) -> Dict[int, int]:
        """Max-min fair allocation from precomputed per-job limits.

        The core of :meth:`fair_share`, exposed for callers (the engine's
        allocation pass) that already know each job's effective limit
        (``min(cap, demand)``) and would otherwise rebuild the demand and
        cap dicts on every recompute.  Iteration order of ``limits`` is the
        sharing order, exactly as ``job_ids`` ordered the wrapper.

        When the positive limits fit in the capacity the rounds below grant
        every job exactly its limit, so that answer is returned directly —
        the common, uncontended case.
        """
        remaining = self.total_slots if capacity is None else max(0, capacity)
        if left_sum(limit for limit in limits.values() if limit > 0) <= remaining:
            return {
                job_id: (limit if limit > 0 else 0) for job_id, limit in limits.items()
            }
        allocations = {job_id: 0 for job_id in limits}
        # Insertion-ordered dict as the active set: O(1) removal of converged
        # jobs (the old list paid an O(n) ``list.remove`` per convergence)
        # with the same deterministic iteration order.
        active: Dict[int, None] = {
            job_id: None for job_id, limit in limits.items() if limit > 0
        }
        # Iteratively hand out equal shares, redistributing unused capacity.
        while remaining > 0 and active:
            share = max(1, remaining // len(active))
            progressed = False
            for job_id in list(active):
                if remaining <= 0:
                    break
                limit = limits[job_id]
                want = limit - allocations[job_id]
                if want <= 0:
                    active.pop(job_id, None)
                    continue
                grant = min(share, want, remaining)
                if grant > 0:
                    allocations[job_id] += grant
                    remaining -= grant
                    progressed = True
                if allocations[job_id] >= limit:
                    active.pop(job_id, None)
            if not progressed:
                break
        return allocations
