"""Switch-point deciders: when should GRASS move from RAS to GS?

Two deciders are provided:

* :class:`LearnedSwitchDecider` — the paper's approach (§4.1): step through
  every point in the job's remaining work at which it could switch, estimate
  the resulting performance from the sample store, and switch now only if
  "now" is the best point.  Which of the three factors (bound, utilisation,
  estimator accuracy) are used to select samples is configurable so the
  Best-1 / Best-2 ablations of Figures 13-14 can be reproduced.
* :class:`StrawmanSwitchDecider` — the static strawman of §6.3.2: switch when
  the remaining work amounts to at most two waves of tasks.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.core.bounds import BoundType
from repro.core.job import job_bin_label
from repro.core.policies.base import SchedulingView
from repro.core.policies.samples import (
    SampleStore,
    accuracy_bucket,
    mean_fraction_completed,
    mean_time_for_fraction,
    utilization_bucket,
)
from repro.utils.stats import median

#: The three switching factors of §4.1.
FACTOR_BOUND = "bound"
FACTOR_UTILIZATION = "utilization"
FACTOR_ACCURACY = "accuracy"
ALL_FACTORS: FrozenSet[str] = frozenset(
    {FACTOR_BOUND, FACTOR_UTILIZATION, FACTOR_ACCURACY}
)


class SwitchDecider(abc.ABC):
    """Decides, at a scheduling point, whether a job should switch RAS -> GS."""

    @abc.abstractmethod
    def should_switch(self, view: SchedulingView) -> bool:
        """True if the job should switch to GS now."""


def _median_task_duration(view: SchedulingView) -> float:
    """Median expected task duration of the job's unfinished tasks."""
    durations = [snap.tnew for snap in view.tasks]
    if not durations:
        return 0.0
    return median(durations)


@dataclass
class StrawmanSwitchDecider(SwitchDecider):
    """Static two-wave strawman (§6.3.2).

    Deadline-bound jobs switch when the remaining time fits at most
    ``waves_threshold`` waves of median-duration tasks; error-bound jobs when
    the tasks still required fit in at most ``waves_threshold`` waves of the
    current wave width.
    """

    waves_threshold: float = 2.0

    def should_switch(self, view: SchedulingView) -> bool:
        if view.bound.is_deadline:
            remaining = view.remaining_deadline
            if remaining is None:
                return False
            median_duration = _median_task_duration(view)
            if median_duration <= 0:
                return True
            return remaining <= self.waves_threshold * median_duration
        needed = view.remaining_required_tasks
        if needed <= 0:
            return True
        wave_width = max(1, view.wave_width)
        return needed <= self.waves_threshold * wave_width


@dataclass
class LearnedSwitchDecider(SwitchDecider):
    """Learning-based switch-point estimation (§4.1).

    The decider evaluates every candidate switch delay on a grid over the
    job's remaining work.  For a deadline-bound job with ``d`` seconds left,
    switching after ``s`` seconds is scored as the expected fraction of tasks
    a pure-RAS job completes in ``s`` seconds plus the fraction a pure-GS job
    completes in ``d - s`` seconds.  For an error-bound job needing ``k``
    more tasks, switching after ``j`` tasks is scored as the expected time a
    pure-RAS job takes for ``j`` tasks plus the time a pure-GS job takes for
    ``k - j`` tasks.  The job switches only when "switch immediately" is the
    best-scoring point.  When the store cannot answer (cold start) we fall
    back to the strawman so behaviour stays sensible.

    The store cannot change mid-decision, so each decision looks up the RAS
    and GS sample lists once and scores every grid point from them — the
    same means ``SampleStore.expected_*`` would return per point.
    """

    store: SampleStore
    factors: FrozenSet[str] = field(default_factory=lambda: ALL_FACTORS)
    grid_points: int = 12
    fallback: StrawmanSwitchDecider = field(default_factory=StrawmanSwitchDecider)

    def __post_init__(self) -> None:
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        unknown = set(self.factors) - set(ALL_FACTORS)
        if unknown:
            raise ValueError(f"unknown switching factors: {sorted(unknown)}")

    # -- bucket selection ----------------------------------------------------------

    def _buckets(self, view: SchedulingView):
        size = job_bin_label(view.job.spec.num_input_tasks)
        util = (
            utilization_bucket(view.cluster_utilization)
            if FACTOR_UTILIZATION in self.factors
            else None
        )
        acc = (
            accuracy_bucket(view.estimator_accuracy)
            if FACTOR_ACCURACY in self.factors
            else None
        )
        return size, util, acc

    # -- deadline-bound ---------------------------------------------------------------

    def _deadline_switch(self, view: SchedulingView) -> Optional[bool]:
        remaining = view.remaining_deadline
        if remaining is None:
            return None
        if remaining <= 0:
            return True
        size, util, acc = self._buckets(view)
        kind = BoundType.DEADLINE.value
        ras_samples = self.store.samples_for("ras", kind, size, util, acc)
        gs_samples = self.store.samples_for("gs", kind, size, util, acc)
        if not ras_samples or not gs_samples:
            return None
        step = remaining / self.grid_points
        best_value = None
        best_delay = None
        for index in range(self.grid_points + 1):
            delay = index * step
            value = mean_fraction_completed(ras_samples, delay) + mean_fraction_completed(
                gs_samples, remaining - delay
            )
            if best_value is None or value > best_value + 1e-12:
                best_value = value
                best_delay = delay
        if best_delay is None:
            return None
        return best_delay <= step * 0.5

    # -- error-bound -----------------------------------------------------------------

    def _error_switch(self, view: SchedulingView) -> Optional[bool]:
        needed = view.remaining_required_tasks
        if needed <= 0:
            return True
        total = max(1, view.job.spec.num_input_tasks)
        size, util, acc = self._buckets(view)
        kind = BoundType.ERROR.value
        ras_samples = self.store.samples_for("ras", kind, size, util, acc)
        gs_samples = self.store.samples_for("gs", kind, size, util, acc)
        if not ras_samples or not gs_samples:
            return None
        points = min(self.grid_points, needed)
        best_cost = None
        best_tasks_under_ras = None
        for index in range(points + 1):
            tasks_under_ras = round(index * needed / points)
            ras_time = mean_time_for_fraction(ras_samples, tasks_under_ras / total)
            gs_time = mean_time_for_fraction(
                gs_samples, (needed - tasks_under_ras) / total
            )
            if ras_time is None or gs_time is None:
                return None
            cost = ras_time + gs_time
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost = cost
                best_tasks_under_ras = tasks_under_ras
        if best_tasks_under_ras is None:
            return None
        return best_tasks_under_ras <= max(1, needed // points) // 2

    # -- public API -------------------------------------------------------------------

    def should_switch(self, view: SchedulingView) -> bool:
        if view.bound.is_deadline:
            decision = self._deadline_switch(view)
        else:
            decision = self._error_switch(view)
        if decision is None:
            return self.fallback.should_switch(view)
        return decision
