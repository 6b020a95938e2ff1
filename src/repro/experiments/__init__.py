"""Experiment harness: regenerates every table and figure of the evaluation.

* :mod:`repro.experiments.policies` — the named policy registry used across
  figures ("late", "mantri", "gs", "ras", "grass", "oracle", ...).
* :mod:`repro.experiments.executor` — fans independent (policy, seed) runs
  out over worker processes with a deterministic merge.
* :mod:`repro.experiments.runner` — runs a workload under one or more
  policies and computes the paper's improvement metrics.
* :mod:`repro.experiments.figures` — one function per table/figure.
* :mod:`repro.experiments.cli` — ``grass-experiments <figure>`` command line.
"""

from repro.experiments.executor import ParallelExecutor, RunRequest
from repro.experiments.policies import available_policies, make_policy
from repro.experiments.runner import (
    ComparisonResult,
    ExperimentScale,
    PolicyRun,
    compare_policies,
    improvement_in_accuracy,
    improvement_in_duration,
)

__all__ = [
    "available_policies",
    "make_policy",
    "ParallelExecutor",
    "RunRequest",
    "ComparisonResult",
    "ExperimentScale",
    "PolicyRun",
    "compare_policies",
    "improvement_in_accuracy",
    "improvement_in_duration",
]
