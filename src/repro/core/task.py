"""Tasks and task copies.

A *task* is the unit of work a job is decomposed into.  A *copy* is one
attempt at executing a task on a machine slot; speculation creates additional
copies of an already-running task and the earliest copy to finish wins while
the rest are killed (§2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional


class TaskState(Enum):
    """Lifecycle of a task (not an individual copy)."""

    PENDING = "pending"        # no copy has been launched yet
    RUNNING = "running"        # at least one copy is executing
    COMPLETED = "completed"    # some copy finished
    ABANDONED = "abandoned"    # job ended (deadline/error bound) before completion


class CopyState(Enum):
    """Lifecycle of a single copy of a task."""

    RUNNING = "running"
    FINISHED = "finished"
    KILLED = "killed"


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """Static description of a task, produced by the workload generator.

    ``work`` is the task's intrinsic size in seconds on a reference machine
    with no straggling; the actual duration of each copy also depends on the
    machine speed and the per-copy straggler multiplier.
    """

    task_id: int
    job_id: int
    work: float
    phase_index: int = 0

    def __post_init__(self) -> None:
        if self.work <= 0:
            raise ValueError("task work must be positive")
        if self.phase_index < 0:
            raise ValueError("phase_index must be non-negative")


@dataclass(slots=True)
class TaskCopy:
    """A single execution attempt of a task on a specific machine slot."""

    copy_id: int
    task_id: int
    machine_id: int
    start_time: float
    duration: float
    state: CopyState = CopyState.RUNNING
    end_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("copy duration must be positive")

    @property
    def finish_time(self) -> float:
        """Wall-clock time at which this copy would finish if left alone."""
        return self.start_time + self.duration

    def elapsed(self, now: float) -> float:
        """Seconds this copy has been running at time ``now``."""
        return max(0.0, now - self.start_time)

    def remaining(self, now: float) -> float:
        """True remaining seconds at time ``now`` (0 if already past finish)."""
        return max(0.0, self.finish_time - now)

    def progress(self, now: float) -> float:
        """Fraction of work done at ``now``, in [0, 1]."""
        if self.duration <= 0:
            return 1.0
        return min(1.0, self.elapsed(now) / self.duration)

    def progress_rate(self, now: float) -> float:
        """Progress per second, the signal LATE uses to flag stragglers."""
        elapsed = self.elapsed(now)
        if elapsed <= 0:
            return float("inf")
        return self.progress(now) / elapsed

    def is_running(self) -> bool:
        return self.state is CopyState.RUNNING

    def finish(self, now: float) -> None:
        """Mark the copy finished at ``now``."""
        if self.state is not CopyState.RUNNING:
            raise RuntimeError(f"cannot finish copy in state {self.state}")
        self.state = CopyState.FINISHED
        self.end_time = now

    def kill(self, now: float) -> None:
        """Kill the copy (its sibling finished first, or the job ended)."""
        if self.state is not CopyState.RUNNING:
            raise RuntimeError(f"cannot kill copy in state {self.state}")
        self.state = CopyState.KILLED
        self.end_time = now


class TaskObserver:
    """Interface for objects that track task state changes incrementally.

    :class:`~repro.core.job.Job` implements it to maintain O(1) per-phase
    pending/completed counters and the job-wide running-copy count, so the
    simulator's hot path never has to rescan every task.  All notifications
    fire from the :class:`Task` mutators themselves, which keeps the counters
    correct no matter who drives the task (the engine or a unit test).
    """

    def note_task_started(self, task: "Task") -> None:
        """The task launched its first copy (PENDING -> RUNNING)."""

    def note_copies_changed(self, task: "Task", delta: int) -> None:
        """The task's running-copy count changed by ``delta``."""

    def note_task_completed(self, task: "Task") -> None:
        """The task completed (some copy finished)."""

    def note_task_abandoned(self, task: "Task", was_pending: bool) -> None:
        """The task was abandoned before completing."""


@dataclass(slots=True)
class Task:
    """Runtime state of a task: its spec plus every copy launched for it."""

    spec: TaskSpec
    state: TaskState = TaskState.PENDING
    copies: List[TaskCopy] = field(default_factory=list)
    completion_time: Optional[float] = None
    first_start_time: Optional[float] = None
    observer: Optional[TaskObserver] = field(
        default=None, init=False, repr=False, compare=False
    )
    _copies_by_id: Dict[int, TaskCopy] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _num_running: int = field(default=0, init=False, repr=False, compare=False)
    # Maintained flat list of the running copies, in launch order.  Copies
    # only stop running in bulk (``complete`` / ``abandon`` kill every
    # running copy), so the list is an append-then-clear structure and always
    # equals ``[c for c in copies if c.is_running()]`` without the rescan.
    _running: List[TaskCopy] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for copy in self.copies:
            self._copies_by_id[copy.copy_id] = copy
            if copy.is_running():
                self._num_running += 1
                self._running.append(copy)

    # -- identity ------------------------------------------------------------

    @property
    def task_id(self) -> int:
        return self.spec.task_id

    @property
    def phase_index(self) -> int:
        return self.spec.phase_index

    @property
    def work(self) -> float:
        return self.spec.work

    # -- copy bookkeeping ------------------------------------------------------

    @property
    def running_copies(self) -> List[TaskCopy]:
        """The running copies in launch order (maintained; do not mutate)."""
        return self._running

    @property
    def running_copy_count(self) -> int:
        """Number of currently running copies — the ``c`` of Pseudocode 1."""
        return self._num_running

    @property
    def total_copies_launched(self) -> int:
        return len(self.copies)

    @property
    def is_running(self) -> bool:
        return self.state is TaskState.RUNNING

    @property
    def is_completed(self) -> bool:
        return self.state is TaskState.COMPLETED

    @property
    def is_finished(self) -> bool:
        """True once the task no longer needs scheduling attention."""
        return self.state in (TaskState.COMPLETED, TaskState.ABANDONED)

    def add_copy(self, copy: TaskCopy) -> None:
        """Register a newly launched copy and update task state."""
        if self.is_finished:
            raise RuntimeError("cannot launch a copy of a finished task")
        if copy.task_id != self.task_id:
            raise ValueError("copy belongs to a different task")
        was_pending = self.state is TaskState.PENDING
        self.copies.append(copy)
        self._copies_by_id[copy.copy_id] = copy
        if copy.is_running():
            self._num_running += 1
            self._running.append(copy)
        if self.first_start_time is None:
            self.first_start_time = copy.start_time
        self.state = TaskState.RUNNING
        if self.observer is not None:
            if was_pending:
                self.observer.note_task_started(self)
            self.observer.note_copies_changed(self, +1)

    def copy_by_id(self, copy_id: int) -> Optional[TaskCopy]:
        """O(1) lookup of a copy by its id (the engine's completion hot path)."""
        return self._copies_by_id.get(copy_id)

    def true_remaining(self, now: float) -> float:
        """True remaining time of the best (soonest-finishing) running copy."""
        running = self.running_copies
        if not running:
            raise RuntimeError("task has no running copies")
        return min(copy.remaining(now) for copy in running)

    def complete(self, now: float, winning_copy: TaskCopy) -> List[TaskCopy]:
        """Mark the task complete; kill and return the losing running copies."""
        if self.is_finished:
            raise RuntimeError("task already finished")
        winning_copy.finish(now)
        killed = []
        for copy in self.copies:
            if copy.is_running():
                copy.kill(now)
                killed.append(copy)
        stopped = self._num_running
        self._num_running = 0
        self._running.clear()
        self.state = TaskState.COMPLETED
        self.completion_time = now
        if self.observer is not None:
            if stopped:
                self.observer.note_copies_changed(self, -stopped)
            self.observer.note_task_completed(self)
        return killed

    def abandon(self, now: float) -> List[TaskCopy]:
        """Abandon the task (job hit its bound); kill any running copies."""
        was_pending = self.state is TaskState.PENDING
        killed = []
        for copy in self.copies:
            if copy.is_running():
                copy.kill(now)
                killed.append(copy)
        stopped = self._num_running
        self._num_running = 0
        self._running.clear()
        if not self.is_completed:
            self.state = TaskState.ABANDONED
            if self.observer is not None:
                if stopped:
                    self.observer.note_copies_changed(self, -stopped)
                self.observer.note_task_abandoned(self, was_pending)
        return killed

    def wasted_work(self) -> float:
        """Total seconds burnt by killed copies (resource cost of speculation)."""
        total = 0.0
        for copy in self.copies:
            if copy.state is CopyState.KILLED and copy.end_time is not None:
                total += copy.end_time - copy.start_time
        return total
