"""Mantri (Ananthanarayanan et al., OSDI 2010): resource-aware restarts.

Mantri is the straggler mitigation deployed in the Bing cluster.  The aspects
relevant to this reproduction:

* Mantri monitors running tasks and duplicates a task when its remaining
  time is large relative to a fresh copy — the classic trigger is
  ``trem > 2 * tnew`` — so duplication saves cluster resources in expectation.
* Unlike LATE, Mantri will act on a straggler even while pending tasks exist,
  because the duplicate frees up the occupied slot sooner.
* At most two copies of a task run at once.

Like LATE, Mantri is oblivious to approximation bounds — it neither prunes
doomed tasks for deadline jobs nor prioritises the earliest contributors for
error-bound jobs — which is why GRASS outperforms it on approximation jobs.
Mantri's kill-restart variant is approximated by the duplicate-then-kill-loser
semantics the simulator already applies when the faster copy finishes.
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


class MantriPolicy(SpeculationPolicy):
    """The Mantri baseline."""

    name = "mantri"
    stateless_choose = True

    def __init__(
        self,
        duplicate_threshold: float = 2.0,
        max_copies_per_task: int = 2,
        min_runtime_before_speculation: float = 1.0,
    ) -> None:
        if duplicate_threshold <= 1.0:
            raise ValueError("duplicate_threshold must exceed 1.0")
        if max_copies_per_task < 2:
            raise ValueError("max_copies_per_task must be at least 2")
        if min_runtime_before_speculation < 0:
            raise ValueError("min_runtime_before_speculation must be non-negative")
        self.duplicate_threshold = duplicate_threshold
        self.max_copies_per_task = max_copies_per_task
        self.min_runtime_before_speculation = min_runtime_before_speculation

    def _duplicate_candidates(self, view: SchedulingView) -> List[TaskSnapshot]:
        # The conditions are pure and conjunctive, so the cheap estimate test
        # runs before the scan over the task's copies.
        now = view.now
        candidates = []
        for snap in view.running():
            if snap.copies >= self.max_copies_per_task:
                continue
            if not snap.trem > self.duplicate_threshold * snap.tnew:
                continue
            copies = snap.task.running_copies
            if not copies:
                continue
            best = min(copies, key=lambda c: c.remaining(now))
            if best.elapsed(now) < self.min_runtime_before_speculation:
                continue
            candidates.append(snap)
        return candidates

    def choose_task(self, view: SchedulingView) -> Optional[SchedulingDecision]:
        duplicates = self._duplicate_candidates(view)
        if duplicates:
            # Duplicate the worst offender: largest remaining time.
            return make_decision(
                min(duplicates, key=lambda snap: (-snap.trem, snap.task_id))
            )
        return make_decision(view.first_pending())
