"""Greedy Speculative (GS) scheduling — Pseudocode 1 & 2 with ``OC = 0``.

GS greedily picks the task (original or speculative copy) that improves the
approximation goal the earliest *right now*:

* Deadline-bound jobs: Shortest Job First over the pruned candidates — the
  task with the smallest ``tnew`` that still fits within the deadline.
* Error-bound jobs: Longest Job First over the earliest-contributing tasks —
  the task with the largest ``trem``, so that the straggler holding back the
  error bound gets a fresh copy.

Speculative copies are admitted whenever the new copy is expected to beat the
running one (``tnew < trem``); the opportunity cost of burning a slot on the
duplicate is ignored, which is exactly what RAS fixes.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policies.base import (
    SchedulingView,
    SpeculationPolicy,
    TaskSnapshot,
    index_error_window,
    index_fallback,
    index_pending_tail,
)


class GreedySpeculative(SpeculationPolicy):
    """The GS policy of §3.1."""

    name = "gs"
    stateless_choose = True

    def __init__(self, max_copies_per_task: int = 4) -> None:
        if max_copies_per_task < 1:
            raise ValueError("max_copies_per_task must be at least 1")
        self.max_copies_per_task = max_copies_per_task

    # -- selection ----------------------------------------------------------------
    #
    # Pseudocode 1-2, served from the view's scheduling index.  Pruning keeps
    # pending tasks and the running tasks under the copy cap whose fresh copy
    # would beat the running one (``tnew < trem``); deadline jobs also drop
    # tasks that cannot finish in time, error jobs keep only the window of
    # earliest contributors (``index_error_window``).  Selection ties favour
    # originals over duplicates (a duplicate never beats an equally fast
    # original), then the lower id.  Pending tasks come pre-sorted, so only
    # the running tasks — bounded by the allocation — are scanned.

    def _choose_deadline(self, view: SchedulingView) -> Optional[TaskSnapshot]:
        # Shortest job first: the lowest ``(tnew, running, task_id)``.
        sched = view.sched
        remaining = view.remaining_deadline
        cap = self.max_copies_per_task
        snaps = sched.snaps
        pending = sched.pending_sorted
        best: Optional[TaskSnapshot] = None
        best_key = None
        if pending:
            tnew, task_id = pending[0][:2]
            if remaining is None or tnew <= remaining:
                best = snaps[task_id]
                best_key = (tnew, False, task_id)
        for task_id in sched.running_ids:
            snap = snaps[task_id]
            tnew = snap.tnew
            if snap.copies >= cap or not tnew < snap.trem:
                continue
            if remaining is not None and tnew > remaining:
                continue
            key = (tnew, True, task_id)
            if best_key is None or key < best_key:
                best = snap
                best_key = key
        if best is not None:
            return best
        # Nothing is expected to fit in the remaining time: fill the slot
        # anyway rather than idling (durations are stochastic).
        return index_fallback(sched, cap)

    def _choose_error(self, view: SchedulingView) -> Optional[TaskSnapshot]:
        # Longest job first: the lowest ``(-remaining, running, task_id)``,
        # where a pending task's remaining time is its ``tnew``.
        sched = view.sched
        needed = view.remaining_required_tasks
        if needed <= 0:
            # The input-phase bound is met (or this is an intermediate phase
            # where every remaining task is required): every task qualifies.
            needed = len(sched.snaps)
        k_p, included = index_error_window(sched, needed)
        snaps = sched.snaps
        best: Optional[TaskSnapshot] = None
        best_key = None
        tail = index_pending_tail(sched, k_p)
        if tail is not None:
            tnew, task_id = tail[:2]
            best = snaps[task_id]
            best_key = (-tnew, False, task_id)
        cap = self.max_copies_per_task
        for task_id in included:
            snap = snaps[task_id]
            if snap.copies >= cap or not snap.tnew < snap.trem:
                continue
            key = (-snap.trem, True, task_id)
            if best_key is None or key < best_key:
                best = snap
                best_key = key
        return best

    def choose_task(self, view: SchedulingView) -> Optional[TaskSnapshot]:
        if view.bound.is_deadline:
            return self._choose_deadline(view)
        return self._choose_error(view)
