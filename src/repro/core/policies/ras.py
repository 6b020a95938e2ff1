"""Resource Aware Speculative (RAS) scheduling — Pseudocode 1 & 2 with ``OC = 1``.

RAS accounts for the opportunity cost of speculation: a duplicate is launched
only when it saves both time *and* resources, i.e. when the total slot-time
spent with the duplicate is smaller than letting the running copies finish:

    saving = c * trem - (c + 1) * tnew > 0

Among speculation candidates RAS picks the one with the highest saving.  When
no speculation passes the savings test RAS falls back to the same default as
GS: the pending task with the lowest ``tnew`` within the deadline for
deadline-bound jobs, or the pending earliest-contributing task with the
highest expected duration for error-bound jobs.
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


class ResourceAwareSpeculative(SpeculationPolicy):
    """The RAS policy of §3.1."""

    name = "ras"
    stateless_choose = True

    def __init__(self, max_copies_per_task: int = 4) -> None:
        if max_copies_per_task < 1:
            raise ValueError("max_copies_per_task must be at least 1")
        self.max_copies_per_task = max_copies_per_task

    # -- selection ----------------------------------------------------------------
    #
    # Pseudocode 1-2, served from the view's scheduling index.  Pruning keeps
    # the running tasks under the copy cap whose duplicate saves resources
    # (``saving > 0``); deadline jobs also drop tasks that cannot finish in
    # time, error jobs keep only the window of earliest contributors
    # (``index_error_window``).  Selection takes the highest saving (ties to
    # the lower id), else the pending default: the sorted list's head
    # (deadline) or the window's bisected tail (error).

    def _choose_deadline(self, view: SchedulingView) -> Optional[TaskSnapshot]:
        sched = view.sched
        remaining = view.remaining_deadline
        cap = self.max_copies_per_task
        snaps = sched.snaps
        best: Optional[TaskSnapshot] = None
        best_key = None
        for task_id in sched.running_ids:
            snap = snaps[task_id]
            if snap.copies >= cap:
                continue
            saving = snap.copies * snap.trem - (snap.copies + 1) * snap.tnew
            if saving <= 0:
                continue
            if remaining is not None and snap.tnew > remaining:
                continue
            key = (-saving, task_id)
            if best_key is None or key < best_key:
                best = snap
                best_key = key
        if best is not None:
            return best
        # Default: lowest tnew within the deadline, same as GS.
        pending = sched.pending_sorted
        if pending:
            tnew, task_id = pending[0][:2]
            if remaining is None or tnew <= remaining:
                return snaps[task_id]
        # Nothing is expected to fit in the remaining time: fill the slot
        # anyway rather than idling (durations are stochastic).
        return index_fallback(sched, cap)

    def _choose_error(self, view: SchedulingView) -> Optional[TaskSnapshot]:
        sched = view.sched
        needed = view.remaining_required_tasks
        if needed <= 0:
            # The input-phase bound is met (or this is an intermediate phase
            # where every remaining task is required): every task qualifies.
            needed = len(sched.snaps)
        k_p, included = index_error_window(sched, needed)
        snaps = sched.snaps
        cap = self.max_copies_per_task
        best: Optional[TaskSnapshot] = None
        best_key = None
        for task_id in included:
            snap = snaps[task_id]
            if snap.copies >= cap:
                continue
            saving = snap.copies * snap.trem - (snap.copies + 1) * snap.tnew
            if saving <= 0:
                continue
            key = (-saving, task_id)
            if best_key is None or key < best_key:
                best = snap
                best_key = key
        if best is not None:
            return best
        # Default: highest expected duration among the earliest contributors.
        tail = index_pending_tail(sched, k_p)
        if tail is None:
            return None
        return snaps[tail[1]]

    def choose_task(self, view: SchedulingView) -> Optional[TaskSnapshot]:
        if view.bound.is_deadline:
            return self._choose_deadline(view)
        return self._choose_error(view)
