"""Trace records and summaries (the Table 1 stand-in).

Real production traces are proprietary, so the "traces" this module handles
are either (a) summaries of synthetic workloads, used to verify the synthetic
mix matches the published statistics, or (b) user-supplied JSON-lines files
in the simple schema below, should someone want to replay their own cluster:

    {"job_id": 1, "arrival_time": 0.0, "task_durations": [12.5, 9.1, ...]}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Union

from repro.core.job import JobSpec, job_bin_label
from repro.utils.stats import mean, median, percentile


class TraceFormatError(ValueError):
    """Raised when a JSONL trace file is malformed (bad JSON, bad fields)."""


@dataclass
class TraceJob:
    """One job of a trace: arrival time and its task durations."""

    job_id: int
    arrival_time: float
    task_durations: List[float]

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_time) or self.arrival_time < 0:
            raise ValueError("arrival_time must be finite and non-negative")
        if not self.task_durations:
            raise ValueError("a trace job needs at least one task")
        if any(
            not math.isfinite(duration) or duration <= 0
            for duration in self.task_durations
        ):
            raise ValueError("task durations must be finite and positive")

    @property
    def num_tasks(self) -> int:
        return len(self.task_durations)

    @property
    def size_bin(self) -> str:
        return job_bin_label(self.num_tasks)

    @property
    def median_duration(self) -> float:
        return median(self.task_durations)

    @property
    def slowest_to_median_ratio(self) -> float:
        """The straggler severity statistic the paper quotes (~8x, §2.2)."""
        med = self.median_duration
        if med <= 0:
            return 1.0
        return max(self.task_durations) / med


@dataclass
class TraceSummary:
    """Aggregate trace statistics in the spirit of Table 1."""

    name: str
    num_jobs: int
    num_tasks: int
    bin_counts: Dict[str, int]
    median_task_duration: float
    p95_task_duration: float
    mean_slowest_to_median: float


def trace_from_specs(job_specs: Iterable[JobSpec]) -> List[TraceJob]:
    """Build trace records from generated job specs (input-phase works)."""
    trace = []
    for spec in job_specs:
        trace.append(
            TraceJob(
                job_id=spec.job_id,
                arrival_time=spec.arrival_time,
                task_durations=list(spec.input_phase.task_works),
            )
        )
    return trace


def summarize_trace(trace: Sequence[TraceJob], name: str = "synthetic") -> TraceSummary:
    """Compute Table 1 style statistics for a trace."""
    if not trace:
        raise ValueError("cannot summarise an empty trace")
    bin_counts: Dict[str, int] = {"small": 0, "medium": 0, "large": 0}
    all_durations: List[float] = []
    ratios: List[float] = []
    for job in trace:
        bin_counts[job.size_bin] += 1
        all_durations.extend(job.task_durations)
        ratios.append(job.slowest_to_median_ratio)
    return TraceSummary(
        name=name,
        num_jobs=len(trace),
        num_tasks=len(all_durations),
        bin_counts=bin_counts,
        median_task_duration=median(all_durations),
        p95_task_duration=percentile(all_durations, 95.0),
        mean_slowest_to_median=mean(ratios),
    )


def save_trace(trace: Sequence[TraceJob], path: Union[str, Path]) -> None:
    """Write a trace as JSON-lines."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for job in trace:
            record = {
                "job_id": job.job_id,
                "arrival_time": job.arrival_time,
                "task_durations": job.task_durations,
            }
            handle.write(json.dumps(record) + "\n")


def iter_trace(path: Union[str, Path]) -> Iterator[TraceJob]:
    """Lazily parse a JSON-lines trace, one :class:`TraceJob` at a time.

    Reads a trace written by :func:`save_trace` (or by users); a caller that
    wants the whole trace in memory takes ``list(iter_trace(path))``.  Jobs
    are yielded as their lines are read, so a trace never has to fit in
    memory at once.  A duplicated job id is an error, so a lazily windowed
    replay rejects the same malformed traces a whole-file read does.  The
    guard's seen-id set is the only state
    that grows with the file: O(#jobs) integers, never task payloads (a
    1M-job trace costs ~30 MB of ids — bounded-by-ids, not O(1); generated
    sources whose ids are sequential by construction skip it entirely).
    Blank lines are skipped.
    Anything else that is not a well-formed record — invalid JSON, a
    non-object line, missing or non-numeric fields, values :class:`TraceJob`
    rejects, duplicated job ids — raises :class:`TraceFormatError` naming
    the file and line.
    """
    path = Path(path)
    seen_ids: set = set()
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise TraceFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise TraceFormatError(
                    f"{path}:{lineno}: expected a JSON object, got {type(record).__name__}"
                )
            try:
                job = TraceJob(
                    job_id=int(record["job_id"]),
                    arrival_time=float(record["arrival_time"]),
                    task_durations=[float(d) for d in record["task_durations"]],
                )
            except KeyError as exc:
                raise TraceFormatError(
                    f"{path}:{lineno}: missing field {exc.args[0]!r}"
                ) from exc
            except (TypeError, ValueError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
            if job.job_id in seen_ids:
                raise TraceFormatError(
                    f"{path}:{lineno}: duplicate job_id {job.job_id}"
                )
            seen_ids.add(job.job_id)
            yield job


@dataclass(frozen=True)
class TraceScan:
    """Bounded-memory statistics from one streaming pass over a trace file.

    This is the calibration pre-pass of replay: sharded replay needs the
    trace's *total* job count (to cut its arrival windows) and its *mean*
    slowest-to-median ratio (every shard replays under the full trace's
    observed straggler severity) before the first shard simulates.  The
    statistics themselves accumulate in O(1) memory; the pass as a whole
    retains only the duplicate-id check's set of job ids (O(#jobs) ints —
    never task payloads).  The ratio sum folds
    left-to-right exactly like ``stats.mean`` over the full list in input
    order.
    """

    num_jobs: int
    mean_slowest_to_median: float
    #: True when (arrival_time, job_id) is non-decreasing in file order —
    #: the precondition for cutting shard windows lazily, without sorting the
    #: trace in memory first.
    arrival_sorted: bool


def scan_jobs(jobs: Iterable[TraceJob], source: str = "trace") -> TraceScan:
    """Fold the calibration statistics over any stream of trace jobs.

    The single definition of the calibration pass: O(1) memory, the ratio
    sum folds left-to-right exactly like ``stats.mean`` over a full list.
    :func:`scan_trace` applies it to a JSONL file; replay of a *generated*
    trace (the cluster tier) or of a job list applies it to the jobs
    directly — same statistics, same floats, no file required.  ``source``
    only names the stream in the empty-input error.
    """
    num_jobs = 0
    ratio_sum = 0.0
    arrival_sorted = True
    previous_key = None
    for job in jobs:
        num_jobs += 1
        ratio_sum += job.slowest_to_median_ratio
        key = (job.arrival_time, job.job_id)
        if previous_key is not None and key < previous_key:
            arrival_sorted = False
        previous_key = key
    if num_jobs == 0:
        raise ValueError(f"cannot scan an empty trace: {source}")
    return TraceScan(
        num_jobs=num_jobs,
        mean_slowest_to_median=ratio_sum / num_jobs,
        arrival_sorted=arrival_sorted,
    )


def scan_trace(path: Union[str, Path]) -> TraceScan:
    """One streaming pass over a JSONL trace: count, severity, sortedness.

    Raises :class:`TraceFormatError` for malformed records (the pass shares
    :func:`iter_trace`'s validation — including the duplicate-id guard, so
    replay rejects a malformed trace before any simulation starts) and
    ``ValueError`` for an empty trace.
    """
    return scan_jobs(iter_trace(path), source=str(path))
