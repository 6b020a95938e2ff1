"""Machines: the physical substrate providing compute slots.

Each machine has one slot and a static speed factor modelling hardware
heterogeneity (§2.1 notes that tasks take different durations even with the
same amount of work because of cluster heterogeneity).  Transient
slowdowns — the stragglers themselves — are modelled per copy by
:mod:`repro.simulator.stragglers`, matching the paper's observation that
machines are *not* consistently problematic (§2.2), so blacklisting them
would not help.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass
class Machine:
    """A one-slot machine with a static speed factor.

    ``speed_factor`` multiplies task durations: 1.0 is the reference machine,
    larger is slower.
    """

    machine_id: int
    speed_factor: float = 1.0
    _running_copy_key: Optional[Tuple[int, int, int]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")

    def occupy(self, job_id: int, task_id: int, copy_id: int) -> None:
        """Occupy the slot with a task copy."""
        if self._running_copy_key is not None:
            raise RuntimeError(f"machine {self.machine_id} has no free slot")
        self._running_copy_key = (job_id, task_id, copy_id)

    def release(self, job_id: int, task_id: int, copy_id: int) -> None:
        """Release the slot held by a task copy."""
        key = (job_id, task_id, copy_id)
        if self._running_copy_key != key:
            raise RuntimeError(f"copy {key} is not running on machine {self.machine_id}")
        self._running_copy_key = None
