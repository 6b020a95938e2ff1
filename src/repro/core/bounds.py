"""Approximation bounds: deadline-bound and error-bound jobs (§2.1).

A deadline-bound job maximises the fraction of (input) tasks completed by a
wall-clock deadline.  An error-bound job minimises the time taken to complete
``(1 - error)`` of its (input) tasks.  An error bound of zero is an exact job
that must complete every task — the paper treats exact computation as the
special case ``error == 0`` and so do we.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional


class BoundType(Enum):
    """Which approximation dimension a job is bounded on."""

    DEADLINE = "deadline"
    ERROR = "error"


@dataclass(frozen=True)
class ApproximationBound:
    """An approximation bound attached to a job.

    Exactly one of ``deadline`` (seconds, relative to the job's start) or
    ``error`` (fraction of input tasks that may be left incomplete) is set
    depending on ``kind``.
    """

    kind: BoundType
    deadline: Optional[float] = None
    error: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind is BoundType.DEADLINE:
            if self.deadline is None or self.deadline <= 0:
                raise ValueError("deadline-bound jobs need a positive deadline")
            if self.error is not None:
                raise ValueError("deadline-bound jobs must not set an error")
        elif self.kind is BoundType.ERROR:
            if self.error is None or not 0.0 <= self.error < 1.0:
                raise ValueError("error bound must lie in [0, 1)")
            if self.deadline is not None:
                raise ValueError("error-bound jobs must not set a deadline")
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown bound type {self.kind}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def with_deadline(cls, deadline: float) -> "ApproximationBound":
        """A job that must stop at ``deadline`` seconds after it starts."""
        return cls(kind=BoundType.DEADLINE, deadline=deadline)

    @classmethod
    def with_error(cls, error: float) -> "ApproximationBound":
        """A job that finishes once ``(1 - error)`` of its input tasks are done."""
        return cls(kind=BoundType.ERROR, error=error)

    @classmethod
    def exact(cls) -> "ApproximationBound":
        """An exact job: every task must complete (error bound of zero)."""
        return cls(kind=BoundType.ERROR, error=0.0)

    # -- helpers --------------------------------------------------------------

    @property
    def is_deadline(self) -> bool:
        return self.kind is BoundType.DEADLINE

    @property
    def is_error(self) -> bool:
        return self.kind is BoundType.ERROR

    def required_tasks(self, total_tasks: int) -> int:
        """Number of input tasks an error-bound job must complete.

        For deadline-bound jobs the notion does not apply and the total is
        returned (the job simply completes as many as it can).
        """
        if total_tasks < 0:
            raise ValueError("total_tasks must be non-negative")
        if self.is_deadline:
            return total_tasks
        assert self.error is not None
        return int(math.ceil((1.0 - self.error) * total_tasks))
