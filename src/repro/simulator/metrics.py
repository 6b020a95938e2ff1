"""Metrics collection for simulation runs.

The collector delegates per-job results to a pluggable
:class:`~repro.simulator.sinks.ResultSink` (retain everything, fold into
streaming aggregates, or spill to JSONL — see ``repro.simulator.sinks``) and
keeps the few run-level gauges an entry point reads: copies launched (the
quickstart's speculation ratio), truncated jobs, peak resident jobs and
events processed.  Its :attr:`~MetricsCollector.aggregates` are the sink's
:class:`~repro.simulator.sinks.StreamingAggregates`, so an aggregate-only
collector reports the same summary as a retaining one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.bounds import BoundType
from repro.core.job import JobResult
from repro.simulator.sinks import (
    ResultSink,
    RetainAllSink,
    StreamingAggregates,
    results_with_bound,
)
from repro.utils.stats import mean


@dataclass
class MetricsCollector:
    """Accumulates :class:`JobResult` records (via a sink) and run gauges."""

    sink: ResultSink = field(default_factory=RetainAllSink)
    total_copies_launched: int = 0
    #: Jobs cut off by ``max_simulated_time``: in flight (force-finished with
    #: partial results) or arriving past the horizon (no result at all).
    truncated_jobs: int = 0
    #: High-water mark of jobs resident in the engine at once — O(max
    #: concurrent), not O(workload): finished jobs are evicted, and the
    #: eviction frees them by reference counting (no cycle waits for the
    #: collector).  It counts entries of an engine dict, not bytes; the
    #: process's peak RSS is what shows memory staying flat.
    peak_resident_jobs: int = 0
    #: Engine events processed by the simulation that filled this collector;
    #: replay-level benches sum it across simulations to report events/s
    #: without holding the Simulation objects.
    events_processed: int = 0

    # -- recording -------------------------------------------------------------

    def add_result(self, result: JobResult) -> None:
        self.sink.record(result)

    # -- result access ----------------------------------------------------------

    @property
    def retains_results(self) -> bool:
        return self.sink.retains_results

    @property
    def results(self) -> List[JobResult]:
        """The retained raw results; raises when the sink dropped them.

        Raising (instead of silently returning an empty list) turns "this
        code path still assumes retained results" into an actionable error
        under ``--sink aggregate`` rather than a wrong 0.0 in a report.
        """
        retained = self.sink.results
        if retained is None:
            raise RuntimeError(
                f"per-job results were not retained ({type(self.sink).__name__}); "
                "use the aggregate accessors or run with the retain sink"
            )
        return retained

    @property
    def aggregates(self) -> StreamingAggregates:
        """This run's results as a mergeable constant-size aggregate view."""
        return self.sink.aggregates

    # -- filters ----------------------------------------------------------------

    def error_results(self) -> List[JobResult]:
        return results_with_bound(self.results, BoundType.ERROR)

    # -- aggregates ----------------------------------------------------------------

    def average_duration(self, results: Optional[Sequence[JobResult]] = None) -> float:
        """Mean duration of error-bound jobs."""
        if results is None:
            return self.aggregates.average_duration
        pool = list(results)
        if not pool:
            return 0.0
        return mean([result.duration for result in pool])

    def speculation_ratio(self) -> float:
        """Speculative copies as a fraction of all copies launched."""
        if self.total_copies_launched == 0:
            return 0.0
        return self.aggregates.speculative_copies / self.total_copies_launched

    def summary(self) -> Dict[str, float]:
        """A compact dictionary used by the CLI and the experiment reports."""
        aggregates = self.aggregates
        return {
            "jobs": float(aggregates.num_results),
            "deadline_jobs": float(aggregates.deadline_jobs),
            "error_jobs": float(aggregates.error_jobs),
            "avg_accuracy": aggregates.average_accuracy,
            "avg_duration": aggregates.average_duration,
            "bound_met_fraction": aggregates.bound_met_fraction,
            "speculation_ratio": self.speculation_ratio(),
            "truncated_jobs": float(self.truncated_jobs),
            "peak_resident_jobs": float(self.peak_resident_jobs),
        }
