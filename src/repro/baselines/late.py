"""LATE: Longest Approximate Time to End (Zaharia et al., OSDI 2008).

LATE is the straggler mitigation deployed in the Facebook cluster the paper
traces come from, and the primary baseline of the evaluation.  Its behaviour,
as modelled here:

* New (pending) tasks always take priority over speculation.
* Once a job has no pending tasks in the current phase, LATE considers
  speculating on running tasks whose *progress rate* is below the
  ``slow_task_percentile`` of the job's running tasks.
* Among those, it duplicates the task with the longest estimated time to end
  (the largest ``trem``), at most one speculative copy per task, and never
  more than ``speculative_cap`` of the job's slots running speculative copies.
* A task must have run for ``min_runtime_before_speculation`` seconds before
  it can be speculated on, so brand-new copies are not immediately flagged.

Crucially — and this is the gap GRASS exploits — LATE is oblivious to the
approximation bound: it neither prunes tasks that cannot meet the deadline
nor prioritises the tasks that contribute earliest to the error bound.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.policies.base import (
    SchedulingDecision,
    SchedulingView,
    SpeculationPolicy,
    TaskSnapshot,
    make_decision,
)
from repro.utils.stats import percentile


class LatePolicy(SpeculationPolicy):
    """The LATE baseline."""

    name = "late"
    stateless_choose = True

    def __init__(
        self,
        slow_task_percentile: float = 25.0,
        speculative_cap: float = 0.1,
        min_runtime_before_speculation: float = 1.0,
    ) -> None:
        if not 0.0 < slow_task_percentile < 100.0:
            raise ValueError("slow_task_percentile must be in (0, 100)")
        if not 0.0 < speculative_cap <= 1.0:
            raise ValueError("speculative_cap must be in (0, 1]")
        if min_runtime_before_speculation < 0:
            raise ValueError("min_runtime_before_speculation must be non-negative")
        self.slow_task_percentile = slow_task_percentile
        self.speculative_cap = speculative_cap
        self.min_runtime_before_speculation = min_runtime_before_speculation

    # -- helpers -----------------------------------------------------------------

    def _speculative_budget(self, view: SchedulingView) -> int:
        """Maximum number of simultaneously running speculative copies."""
        return max(1, int(self.speculative_cap * max(1, view.wave_width)))

    @staticmethod
    def _running_speculative_copies(view: SchedulingView) -> int:
        """Copies beyond the first per running task — LATE's current spend."""
        return sum(max(0, snap.copies - 1) for snap in view.running())

    def _slow_candidates(self, view: SchedulingView) -> List[TaskSnapshot]:
        running = [snap for snap in view.running() if snap.copies == 1]
        if not running:
            return []
        now = view.now
        rates = []
        eligible = []
        for snap in running:
            copies = snap.task.running_copies
            if not copies:
                continue
            best = min(copies, key=lambda c: c.remaining(now))
            if best.elapsed(now) < self.min_runtime_before_speculation:
                continue
            rate = best.progress_rate(now)
            rates.append(rate)
            eligible.append((snap, rate))
        if not eligible:
            return []
        threshold = percentile(rates, self.slow_task_percentile)
        return [snap for snap, rate in eligible if rate <= threshold]

    # -- policy ------------------------------------------------------------------

    def choose_task(self, view: SchedulingView) -> Optional[SchedulingDecision]:
        first = view.first_pending()
        if first is not None:
            # Bound-oblivious: plain input order, no pruning, no SJF/LJF.
            return make_decision(first)
        if self._running_speculative_copies(view) >= self._speculative_budget(view):
            return None
        slow = self._slow_candidates(view)
        if not slow:
            return None
        # Longest approximate time to end: largest estimated remaining time.
        return make_decision(min(slow, key=lambda snap: (-snap.trem, snap.task_id)))
