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
from typing import Dict, List, Optional

from repro.simulator.machine import Machine
from repro.utils.rng import RngStream
from repro.utils.stats import left_sum, median


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated cluster.

    The default of 200 one-slot machines mirrors the paper's 200 node EC2
    deployment (one task slot per node keeps the arithmetic of waves
    simple).
    """

    num_machines: int = 200
    heterogeneity: float = 0.08
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_machines <= 0:
            raise ValueError("num_machines must be positive")
        if not 0.0 <= self.heterogeneity < 1.0:
            raise ValueError("heterogeneity must be in [0, 1)")

    @property
    def total_slots(self) -> int:
        return self.num_machines


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
            self.machines.append(Machine(machine_id=machine_id, speed_factor=speed))
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
        # The ids of the idle machines, kept sorted ascending: the candidate
        # set ``pick_machine`` draws from.
        self._idle: List[int] = list(range(config.num_machines))

    # -- capacity ---------------------------------------------------------------

    @property
    def total_slots(self) -> int:
        return self.config.total_slots

    # -- placement --------------------------------------------------------------

    def pick_machine(self) -> Optional[Machine]:
        """Pick an idle machine uniformly at random.

        Random placement approximates the data locality-agnostic placement
        the paper's prototypes use for speculative copies.  The idle list is
        sorted by machine id, and ``random.choice`` consumes randomness as a
        function of the sequence *length* only.
        """
        idle = self._idle
        if not idle:
            return None
        return self._machine_by_id[self._placement_choice(idle)]

    def occupy(self, machine_id: int, job_id: int, task_id: int, copy_id: int) -> None:
        self._machine_by_id[machine_id].occupy(job_id, task_id, copy_id)
        self._busy_count += 1
        idle = self._idle
        del idle[bisect_left(idle, machine_id)]

    def release(self, machine_id: int, job_id: int, task_id: int, copy_id: int) -> None:
        self._machine_by_id[machine_id].release(job_id, task_id, copy_id)
        self._busy_count -= 1
        insort(self._idle, machine_id)

    # -- fair sharing ---------------------------------------------------------------

    def fair_share_limits(self, limits: Dict[int, int]) -> Dict[int, int]:
        """Max-min fair allocation of the slots from per-job limits.

        ``limits`` maps a job to how many slots it could use right now
        (pending tasks plus running copies, capped by ``JobSpec.max_slots``).
        Slots a job cannot use are redistributed to the others, which is
        what lets a lone small job in an idle cluster become single-waved
        while a crowded cluster forces multi-waved runs.  Iteration order of
        ``limits`` is the sharing order.

        When the positive limits fit in the cluster the rounds below grant
        every job exactly its limit, so that answer is returned directly —
        the common, uncontended case.
        """
        remaining = self.total_slots
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
