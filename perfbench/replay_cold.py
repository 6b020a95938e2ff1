"""``replay-cold``: fresh ``grass-experiments replay`` processes, no cache.

Each measured operation is one process over the seeded trace::

    python3 -m repro.experiments.cli replay --trace T --policy grass --policy late \
        --scale quick --shards 8 --stream-specs --sink aggregate --workers 2

timed from spawn to exit, so import, the fingerprint/calibration scan, the
per-request trace re-parse, pool fan-out and the engine all count.  Every
process's printed digest must equal the reference digest, computed once per
run by the serial path (``workers=1``, no cache) before anything is timed.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from perfbench import inputs, layers
from perfbench.procs import (
    ProcessRun,
    WorkloadResult,
    import_probe_seconds,
    median,
    p90,
    prime_bytecode,
    program_env,
    run_process,
)
from perfbench.settings import ReplaySettings

DIGEST_PREFIX = "metrics digest: sha256="


def replay_args(trace: Path, settings: ReplaySettings) -> List[str]:
    args = ["replay", "--trace", str(trace)]
    for policy in settings.policies:
        args += ["--policy", policy]
    return args + [
        "--scale", settings.scale,
        "--shards", str(settings.shards),
        "--stream-specs",
        "--sink", "aggregate",
        "--workers", str(settings.workers),
    ]


def reference_digest(trace: Path, settings: ReplaySettings) -> str:
    """The digest of the serial path: ``workers=1``, no cache, in this process."""
    from repro.experiments.plan import ReplayPlan
    from repro.experiments.runner import execute

    plan = ReplayPlan(
        trace=str(trace),
        policies=tuple(settings.policies),
        scale=settings.scale,
        shards=settings.shards,
        stream_specs=True,
        sink="aggregate",
        workers=1,
    )
    return execute(plan.validate()).digest


def printed_digest(lines: Sequence[str]) -> Optional[str]:
    for line in lines:
        if line.startswith(DIGEST_PREFIX):
            return line[len(DIGEST_PREFIX):].strip()
    return None


def check(run: ProcessRun, reference: str) -> Optional[str]:
    """The failure of one replay process, or ``None`` if it is correct."""
    if run.returncode != 0:
        return f"replay exited {run.returncode}: {run.stderr.strip()[-300:]}"
    digest = printed_digest(run.lines)
    if digest != reference:
        return f"replay digest {digest} != reference {reference}"
    return None


def job_runs(settings: ReplaySettings) -> int:
    # The quick scale simulates one seed per (policy, shard).
    return len(settings.policies) * settings.jobs


def _replay(argv_prefix: List[str], trace: Path, settings: ReplaySettings) -> ProcessRun:
    return run_process(
        argv_prefix + replay_args(trace, settings), env=program_env(PYTHONUNBUFFERED="1")
    )


CLI = [sys.executable, "-m", "repro.experiments.cli"]


def measure(
    seed: int,
    seconds: float,
    workdir: Path,
    settings: ReplaySettings = ReplaySettings(),
    reference: Optional[str] = None,
) -> WorkloadResult:
    """The untraced run: end-to-end metrics."""
    trace = inputs.write_trace(workdir / "trace.jsonl", seed, settings)
    if reference is None:
        reference = reference_digest(trace, settings)
    prime_bytecode()
    setup: List[float] = []
    runs: List[ProcessRun] = []
    started = time.perf_counter()
    while len(runs) < settings.min_processes or (
        time.perf_counter() - started + runs[-1].seconds / 2 < seconds
    ):
        runs.append(_replay(CLI, trace, settings))
        setup += import_probe_seconds("repro.experiments.cli", settings.setup_probes)
    checked = [(run, check(run, reference)) for run in runs]
    failures = [failure for _run, failure in checked if failure]
    ok = [run for run, failure in checked if failure is None] or runs
    durations = [run.seconds for run in ok]
    first_output = [run.line_times[0] if run.line_times else run.seconds for run in ok]
    return WorkloadResult(
        metrics={
            # Fastest of the probes spread over the run: a busy moment of the
            # host does not count.
            "setup_s": min(setup),
            "jobs_per_s": job_runs(settings) * len(durations) / sum(durations),
            "peak_rss_mb": median([run.peak_rss_mb for run in ok]),
            "done_p50_ms": median(durations) * 1000.0,
            "done_p90_ms": p90(durations) * 1000.0,
            "first_delta_p90_ms": p90(first_output) * 1000.0,
        },
        attempted=len(runs),
        failures=failures,
        extra={"processes": float(len(runs))},
    )


def traced(
    seed: int,
    seconds: float,
    workdir: Path,
    settings: ReplaySettings = ReplaySettings(),
    spans_out: Optional[Path] = None,
) -> WorkloadResult:
    """The traced run: one untraced and one traced process, per-layer metrics."""
    trace = inputs.write_trace(workdir / "trace.jsonl", seed, settings)
    reference = reference_digest(trace, settings)
    prime_bytecode()
    plain = _replay(CLI, trace, settings)
    spans = workdir / "spans"
    shutil.rmtree(spans, ignore_errors=True)
    bootstrap = [sys.executable, "-m", "perfbench.bootstrap", "--spans", str(spans), "--entry", "cli", "--"]
    traced_run = _replay(bootstrap, trace, settings)
    failures = [f for f in (check(plain, reference), check(traced_run, reference)) if f]
    merged = layers.load_dumps(spans)
    if spans_out is not None:
        layers.write_spans(merged, spans_out)
    # jobs_per_s slowdown: (untraced - traced) / untraced.
    overhead = 1.0 - plain.seconds / traced_run.seconds
    return WorkloadResult(
        metrics=layers.layer_metrics(merged, settings.jobs, overhead),
        attempted=2,
        failures=failures,
        extra={
            "untraced_jobs_per_s": job_runs(settings) / plain.seconds,
            "traced_jobs_per_s": job_runs(settings) / traced_run.seconds,
        },
    )
