"""Jobs: collections of tasks organised into DAG phases with an approximation bound.

A job is specified by a :class:`JobSpec` (produced by the workload generator)
and materialised into a runtime :class:`Job` by the simulator when it arrives.
Phase 0 holds the *input* tasks (map / extract); later phases hold
*intermediate* tasks (reduce / join).  Following §5.2, the accuracy of an
approximation job is the fraction of completed input tasks, and intermediate
phases only start once the required input tasks are done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

from repro.core.bounds import ApproximationBound
from repro.core.task import Task, TaskObserver, TaskSpec
from repro.utils.stats import median


@dataclass(frozen=True)
class JobPhaseSpec:
    """One phase of a job's DAG: how many tasks and how large they are."""

    phase_index: int
    task_works: tuple

    def __post_init__(self) -> None:
        if self.phase_index < 0:
            raise ValueError("phase_index must be non-negative")
        if not self.task_works:
            raise ValueError("a phase must contain at least one task")
        if any(work <= 0 for work in self.task_works):
            raise ValueError("every task's work must be positive")

    @property
    def task_count(self) -> int:
        return len(self.task_works)

    @property
    def total_work(self) -> float:
        return float(sum(self.task_works))

    @cached_property
    def median_work(self) -> float:
        """Median task work, computed once per spec.

        Deadline apportioning (``Simulation._set_input_deadline``) and the
        workload generator's ideal-duration calibration both need it; sorting
        ``task_works`` on every deadline-bound arrival was measurable on the
        engine's hot path.
        """
        return median(self.task_works)


@dataclass(frozen=True)
class JobSpec:
    """Static description of a job as produced by the workload generator."""

    job_id: int
    arrival_time: float
    phases: tuple
    bound: ApproximationBound
    name: str = ""
    max_slots: Optional[int] = None

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")
        if self.max_slots is not None and self.max_slots <= 0:
            raise ValueError("max_slots must be positive when given")
        if not self.phases:
            raise ValueError("a job needs at least one phase")
        indices = [phase.phase_index for phase in self.phases]
        if indices != list(range(len(self.phases))):
            raise ValueError("phases must be numbered 0..n-1 in order")

    @property
    def input_phase(self) -> JobPhaseSpec:
        return self.phases[0]

    @property
    def intermediate_phases(self) -> Sequence[JobPhaseSpec]:
        return self.phases[1:]

    @property
    def num_input_tasks(self) -> int:
        return self.input_phase.task_count

    @property
    def num_tasks(self) -> int:
        return sum(phase.task_count for phase in self.phases)

    @property
    def dag_length(self) -> int:
        return len(self.phases)

    @property
    def total_work(self) -> float:
        return sum(phase.total_work for phase in self.phases)

    def ideal_duration(self, slots: int) -> float:
        """Lower bound on duration with ``slots`` slots and no stragglers.

        Used by the workload generator to calibrate deadlines (§6.1): the
        paper sets the deadline to the ideal duration (each task at the
        job's median duration) plus a small factor.
        """
        if slots <= 0:
            raise ValueError("slots must be positive")
        total = 0.0
        for phase in self.phases:
            waves = math.ceil(phase.task_count / slots)
            total += waves * phase.median_work
        return total


class JobState:
    """Enumeration-like constants for the runtime state of a job."""

    WAITING = "waiting"
    RUNNING = "running"
    FINISHED = "finished"


@dataclass
class JobResult:
    """Final outcome of a job, consumed by the experiment harness."""

    job_id: int
    bound: ApproximationBound
    num_input_tasks: int
    completed_input_tasks: int
    accuracy: float
    start_time: float
    finish_time: float
    duration: float
    wasted_work: float
    speculative_copies: int
    met_bound: bool
    dag_length: int = 1
    name: str = ""
    policy_label: str = ""
    estimator_accuracy: float = 0.75

    @property
    def job_bin(self) -> str:
        """The paper's job-size bins: <50, 51-500, >500 input tasks."""
        if self.num_input_tasks <= 50:
            return "small"
        if self.num_input_tasks <= 500:
            return "medium"
        return "large"


class Job(TaskObserver):
    """Runtime state of a job inside the simulator.

    The job observes its own tasks (via :class:`~repro.core.task.TaskObserver`)
    and keeps per-phase pending/completed counters, the set of unfinished
    tasks per phase and the job-wide running-copy count incrementally, so the
    scheduler's per-event queries (``schedulable_tasks``, ``current_phase``,
    ``running_copy_count``, ...) are O(1) or O(schedulable) instead of
    rescanning every task and copy.
    """

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.state = JobState.WAITING
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.allocation: int = 0
        self.input_deadline: Optional[float] = None
        self.speculative_copies_launched: int = 0
        # A plain int, not a property over ``spec.phases``: ``current_phase``
        # and the engine's per-round paths read it on every scheduling query.
        self.dag_length: int = spec.dag_length
        self.tasks: Dict[int, Task] = {}
        self._tasks_by_phase: List[List[Task]] = []
        self._completed_by_phase: List[int] = [0] * self.dag_length
        self._pending_by_phase: List[int] = [
            phase.task_count for phase in spec.phases
        ]
        # Insertion-ordered task_id -> Task maps; deletion on completion keeps
        # the iteration order identical to filtering the phase's task list.
        self._unfinished_by_phase: List[Dict[int, Task]] = []
        self._phase_cursor: int = 0
        self._running_copy_total: int = 0
        # Completions needed before each phase unblocks the next: the bound's
        # required fraction for the input phase, every task for intermediate
        # phases.  Both are fixed at admission, and precomputing them keeps
        # ``current_phase`` — called on every scheduling query — a plain
        # counter comparison.
        self._required_by_phase: List[int] = [
            spec.bound.required_tasks(spec.num_input_tasks)
            if phase.phase_index == 0
            else phase.task_count
            for phase in spec.phases
        ]
        self._build_tasks()

    def _build_tasks(self) -> None:
        task_id = 0
        for phase in self.spec.phases:
            phase_tasks: List[Task] = []
            unfinished: Dict[int, Task] = {}
            for work in phase.task_works:
                spec = TaskSpec(
                    task_id=task_id,
                    job_id=self.spec.job_id,
                    work=work,
                    phase_index=phase.phase_index,
                )
                task = Task(spec=spec)
                task.observer = self
                self.tasks[task_id] = task
                phase_tasks.append(task)
                unfinished[task_id] = task
                task_id += 1
            self._tasks_by_phase.append(phase_tasks)
            self._unfinished_by_phase.append(unfinished)

    # -- task observation (incremental counters) ---------------------------------

    def note_task_started(self, task: Task) -> None:
        self._pending_by_phase[task.phase_index] -= 1

    def note_copies_changed(self, task: Task, delta: int) -> None:
        self._running_copy_total += delta

    def note_task_completed(self, task: Task) -> None:
        self._completed_by_phase[task.phase_index] += 1
        self._unfinished_by_phase[task.phase_index].pop(task.task_id, None)

    def note_task_abandoned(self, task: Task, was_pending: bool) -> None:
        if was_pending:
            self._pending_by_phase[task.phase_index] -= 1
        self._unfinished_by_phase[task.phase_index].pop(task.task_id, None)

    # -- identity --------------------------------------------------------------

    @property
    def job_id(self) -> int:
        return self.spec.job_id

    @property
    def bound(self) -> ApproximationBound:
        return self.spec.bound

    # -- lifecycle --------------------------------------------------------------

    def start(self, now: float) -> None:
        if self.state is not JobState.WAITING:
            raise RuntimeError("job already started")
        self.state = JobState.RUNNING
        self.start_time = now

    def finish(self, now: float) -> None:
        if self.state is not JobState.RUNNING:
            raise RuntimeError("job is not running")
        self.state = JobState.FINISHED
        self.finish_time = now

    @property
    def is_running(self) -> bool:
        return self.state == JobState.RUNNING

    @property
    def is_finished(self) -> bool:
        return self.state == JobState.FINISHED

    # -- task views -------------------------------------------------------------

    def phase_tasks(self, phase_index: int) -> List[Task]:
        return self._tasks_by_phase[phase_index]

    @property
    def input_tasks(self) -> List[Task]:
        return self._tasks_by_phase[0]

    @property
    def all_tasks(self) -> List[Task]:
        return list(self.tasks.values())

    def running_tasks(self) -> List[Task]:
        return [task for task in self.tasks.values() if task.is_running]

    def running_copy_count(self) -> int:
        return self._running_copy_total

    def completed_input_tasks(self) -> int:
        return self._completed_by_phase[0]

    def completed_phase_tasks(self, phase_index: int) -> int:
        return self._completed_by_phase[phase_index]

    def phase_complete(self, phase_index: int, required: Optional[int] = None) -> bool:
        """True if a phase has finished enough tasks (all, unless ``required``)."""
        tasks = self.phase_tasks(phase_index)
        needed = len(tasks) if required is None else required
        return self.completed_phase_tasks(phase_index) >= needed

    def required_input_tasks(self) -> int:
        """Input tasks the job must finish to satisfy its bound."""
        return self._required_by_phase[0]

    def accuracy(self) -> float:
        """Fraction of input tasks completed — the paper's accuracy metric."""
        total = self.spec.num_input_tasks
        if total == 0:
            return 1.0
        return self.completed_input_tasks() / total

    def current_phase(self) -> int:
        """Index of the earliest phase that still has schedulable work.

        Phase ``p+1`` becomes eligible once phase ``p`` has completed its
        required number of tasks (all tasks for intermediate phases; the
        bound-determined fraction for the input phase).
        """
        cursor = self._phase_cursor
        dag_length = self.dag_length
        completed = self._completed_by_phase
        required = self._required_by_phase
        while cursor < dag_length and completed[cursor] >= required[cursor]:
            cursor += 1
        self._phase_cursor = cursor
        return cursor

    def schedulable_tasks(self, now: float) -> List[Task]:
        """Tasks the scheduler may act on right now (current phase only)."""
        phase = self.current_phase()
        if phase >= self.dag_length:
            return []
        return list(self._unfinished_by_phase[phase].values())

    def schedulable_counts(self) -> "tuple[int, int]":
        """O(1) ``(pending, running)`` counts over the schedulable tasks.

        This is what fair-share demand estimation needs; it avoids
        materialising the schedulable task list on every allocation pass.
        """
        phase = self.current_phase()
        if phase >= self.dag_length:
            return 0, 0
        pending = self._pending_by_phase[phase]
        return pending, len(self._unfinished_by_phase[phase]) - pending

    def pending_task_count(self) -> int:
        return sum(self._pending_by_phase)

    # -- accounting --------------------------------------------------------------

    def wasted_work(self) -> float:
        return sum(task.wasted_work() for task in self.tasks.values())

    def elapsed(self, now: float) -> float:
        if self.start_time is None:
            return 0.0
        return max(0.0, now - self.start_time)

    def remaining_deadline(self, now: float) -> Optional[float]:
        """Seconds until the (input-phase) deadline, or None for error-bound jobs."""
        if not self.bound.is_deadline or self.start_time is None:
            return None
        deadline = self.input_deadline
        if deadline is None:
            assert self.bound.deadline is not None
            deadline = self.bound.deadline
        return max(0.0, self.start_time + deadline - now)

    def remaining_required_tasks(self) -> int:
        """Input tasks still needed to satisfy an error bound (0 if met)."""
        return max(0, self.required_input_tasks() - self.completed_input_tasks())

    def bound_satisfied(self) -> bool:
        """True when the job's input-phase goal is met.

        For error-bound jobs this means the required fraction of input tasks
        is done.  For deadline-bound jobs the goal is simply to do as much as
        possible, so this returns True only when *all* input tasks are done.
        """
        if self.bound.is_error:
            return self.completed_input_tasks() >= self.required_input_tasks()
        return self.completed_input_tasks() >= self.spec.num_input_tasks

    def all_required_work_done(self) -> bool:
        """True when the input-phase goal and every later phase are complete."""
        if not self.bound_satisfied():
            return False
        for index in range(1, self.dag_length):
            if not self.phase_complete(index):
                return False
        return True

    def abandon_incomplete_tasks(self, now: float) -> List:
        """Kill every running copy of unfinished tasks (job hit its bound)."""
        killed = []
        for task in self.tasks.values():
            if not task.is_finished:
                killed.extend(task.abandon(now))
        return killed

    def to_result(
        self, policy_label: str = "", estimator_accuracy: float = 0.75
    ) -> JobResult:
        """Snapshot the job's outcome; only valid once the job has finished."""
        if self.start_time is None or self.finish_time is None:
            raise RuntimeError("job has not finished yet")
        duration = self.finish_time - self.start_time
        met_bound = self.bound_satisfied() if self.bound.is_error else (
            self.accuracy() >= 1.0
        )
        return JobResult(
            job_id=self.job_id,
            bound=self.bound,
            num_input_tasks=self.spec.num_input_tasks,
            completed_input_tasks=self.completed_input_tasks(),
            accuracy=self.accuracy(),
            start_time=self.start_time,
            finish_time=self.finish_time,
            duration=duration,
            wasted_work=self.wasted_work(),
            speculative_copies=self.speculative_copies_launched,
            met_bound=met_bound,
            dag_length=self.dag_length,
            name=self.spec.name,
            policy_label=policy_label,
            estimator_accuracy=estimator_accuracy,
        )


def job_bin_label(num_tasks: int) -> str:
    """The paper's job bins (§6.1): small (<50), medium (51-500), large (>500)."""
    if num_tasks <= 50:
        return "small"
    if num_tasks <= 500:
        return "medium"
    return "large"
