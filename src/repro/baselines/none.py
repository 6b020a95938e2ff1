"""No-speculation baseline: schedule originals in task order, never duplicate.

Useful as a lower bound in ablations and to measure how much any speculation
helps at all; the paper does not report it directly but its simulator section
implicitly uses it when quantifying the cost of stragglers.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policies.base import SchedulingView, SpeculationPolicy, TaskSnapshot


class NoSpeculationPolicy(SpeculationPolicy):
    """Launch each task exactly once, in task-id (input) order."""

    name = "no-spec"
    stateless_choose = True

    def choose_task(self, view: SchedulingView) -> Optional[TaskSnapshot]:
        return view.first_pending()
