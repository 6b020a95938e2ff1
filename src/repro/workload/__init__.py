"""Workload synthesis: the stand-in for the Facebook and Bing production traces.

The original traces (575 K Facebook Hadoop jobs, 500 K Bing Dryad jobs) are
proprietary; this package generates synthetic workloads calibrated to every
property the paper publishes about them — heavy-tailed (Pareto, β ≈ 1.259)
task durations, slowest-task ≈ 8× median, the small/medium/large job-size
mix, multi-waved execution, and the §6.1 recipe for assigning deadlines
(2–20 % over the ideal duration) and error bounds (5–30 %).  That recipe is
one function, :func:`~repro.workload.synthetic.recipe_spec`: the synthetic
generator and trace replay build every job through it.  Every draw comes
straight from a named :class:`~repro.utils.rng.RngStream`.
"""

from repro.workload.bins import (
    DEADLINE_BINS,
    ERROR_BINS,
    deadline_bin_label,
    error_bin_label,
)
from repro.workload.profiles import (
    FrameworkProfile,
    WorkloadProfile,
    framework_profile,
    workload_profile,
)
from repro.workload.ingest import (
    INGEST_FORMATS,
    IngestStats,
    ingest_trace,
    iter_ingested_trace,
)
from repro.workload.synthetic import SyntheticWorkloadGenerator, WorkloadConfig
from repro.workload.trace_replay import (
    ClusterTierConfig,
    ShardSpecSource,
    TraceReplayConfig,
    cluster_trace_job,
    export_trace,
    iter_cluster_trace,
    slice_trace,
    synthesize_trace,
)
from repro.workload.traces import (
    TraceFormatError,
    TraceJob,
    TraceSummary,
    save_trace,
    scan_jobs,
    scan_trace,
    summarize_trace,
    trace_from_specs,
)

__all__ = [
    "DEADLINE_BINS",
    "ERROR_BINS",
    "deadline_bin_label",
    "error_bin_label",
    "FrameworkProfile",
    "WorkloadProfile",
    "framework_profile",
    "workload_profile",
    "SyntheticWorkloadGenerator",
    "WorkloadConfig",
    "ClusterTierConfig",
    "INGEST_FORMATS",
    "IngestStats",
    "TraceFormatError",
    "TraceJob",
    "ShardSpecSource",
    "TraceReplayConfig",
    "TraceSummary",
    "cluster_trace_job",
    "export_trace",
    "ingest_trace",
    "iter_cluster_trace",
    "iter_ingested_trace",
    "save_trace",
    "scan_jobs",
    "scan_trace",
    "slice_trace",
    "summarize_trace",
    "synthesize_trace",
    "trace_from_specs",
]
