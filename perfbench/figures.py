"""``figures``: fresh processes computing the Figure 5 and Figure 7 cells.

Each measured operation is one ``python3 -m perfbench.figures_proc`` process
calling ``compare_policies(["late", "mantri", "grass"], ...)`` with
``workers=2`` for the (facebook, hadoop, deadline) and (bing, spark, error)
cells.  ``jobs_per_s`` counts the job runs of those calls over the time
spent in them; ``done_*`` is spawn to exit and ``first_delta_p90_ms`` spawn
to the first cell's printed result.  Every cell's digest and per-bin
improvements must equal the reference, computed once per run by the serial
path (``workers=1``, ``warm_cache=False``) before anything is timed.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import inputs, layers
from perfbench.procs import (
    ProcessRun,
    WorkloadResult,
    import_probe_seconds,
    median,
    p90,
    prime_bytecode,
    run_process,
)
from perfbench.settings import FigureSettings


def cell_cost(cell: Tuple[str, str, str], seed: int) -> float:
    """Cost proxy of a figure cell: the task count of its generated workload."""
    from repro.experiments.runner import ExperimentScale
    from repro.workload.synthetic import WorkloadConfig, generate_workload

    workload, framework, bound_kind = cell
    scale = ExperimentScale()
    generated = generate_workload(
        WorkloadConfig(
            workload=workload,
            framework=framework,
            bound_kind=bound_kind,
            num_jobs=scale.num_jobs,
            size_scale=scale.size_scale,
            max_tasks_per_job=scale.max_tasks_per_job,
            seed=seed,
        )
    )
    return float(sum(phase.task_count for spec in generated.job_specs for phase in spec.phases))


def cell_seeds_for(seed: int, settings: FigureSettings) -> Tuple[int, ...]:
    return inputs.figure_seeds(seed, settings, cell_cost=cell_cost)


def reference_cells(cell_seeds: Tuple[int, ...], settings: FigureSettings) -> List[str]:
    """Comparable cell records of the serial path, computed in this process."""
    from perfbench.figures_proc import comparable, run_cell

    return [
        comparable(run_cell(cell, seed, settings.policies, workers=1, warm_cache=False))
        for cell, seed in zip(settings.cells, cell_seeds)
    ]


def proc_args(cell_seeds: Tuple[int, ...], settings: FigureSettings) -> List[str]:
    return ["--workers", str(settings.workers), "--cell-seeds"] + [str(s) for s in cell_seeds]


def cell_records(run: ProcessRun) -> List[Dict[str, object]]:
    records = []
    for line in run.lines:
        if line.startswith("{"):
            records.append(json.loads(line))
    return records


def check(run: ProcessRun, reference: List[str]) -> Optional[str]:
    """The failure of one figures process, or ``None`` if it is correct."""
    from perfbench.figures_proc import comparable

    if run.returncode != 0:
        return f"figures process exited {run.returncode}: {run.stderr.strip()[-300:]}"
    got = [comparable(record) for record in cell_records(run)]
    if got != reference:
        return f"figures cells differ from the reference: {got} != {reference}"
    return None


def throughput(runs: Sequence[ProcessRun]) -> float:
    """Job runs per second spent inside ``compare_policies``, over ``runs``."""
    records = [record for run in runs for record in cell_records(run)]
    compare_s = sum(float(r["compare_s"]) for r in records)
    return sum(int(r["job_runs"]) for r in records) / compare_s if compare_s else 0.0


PROC = [sys.executable, "-m", "perfbench.figures_proc"]


def measure(
    seed: int,
    seconds: float,
    workdir: Path,
    settings: FigureSettings = FigureSettings(),
    reference: Optional[List[str]] = None,
) -> WorkloadResult:
    """The untraced run: end-to-end metrics."""
    cell_seeds = cell_seeds_for(seed, settings)
    if reference is None:
        reference = reference_cells(cell_seeds, settings)
    prime_bytecode()
    setup: List[float] = []
    runs: List[ProcessRun] = []
    started = time.perf_counter()
    while len(runs) < settings.min_processes or (
        time.perf_counter() - started + runs[-1].seconds / 2 < seconds
    ):
        runs.append(run_process(PROC + proc_args(cell_seeds, settings)))
        setup += import_probe_seconds("repro.experiments.runner", settings.setup_probes)
    checked = [(run, check(run, reference)) for run in runs]
    failures = [failure for _run, failure in checked if failure]
    ok = [run for run, failure in checked if failure is None] or runs
    durations = [run.seconds for run in ok]
    first_cell = [run.line_times[0] if run.line_times else run.seconds for run in ok]
    return WorkloadResult(
        metrics={
            # Fastest of the probes spread over the run: a busy moment of the
            # host does not count.
            "setup_s": min(setup),
            "jobs_per_s": throughput(ok),
            "peak_rss_mb": median([run.peak_rss_mb for run in ok]),
            "done_p50_ms": median(durations) * 1000.0,
            "done_p90_ms": p90(durations) * 1000.0,
            "first_delta_p90_ms": p90(first_cell) * 1000.0,
        },
        attempted=len(runs),
        failures=failures,
        extra={"processes": float(len(runs))},
    )


def traced(
    seed: int,
    seconds: float,
    workdir: Path,
    settings: FigureSettings = FigureSettings(),
    spans_out: Optional[Path] = None,
) -> WorkloadResult:
    """The traced run: one untraced and one traced process, per-layer metrics."""
    cell_seeds = cell_seeds_for(seed, settings)
    reference = reference_cells(cell_seeds, settings)
    prime_bytecode()
    plain = run_process(PROC + proc_args(cell_seeds, settings))
    spans = workdir / "spans"
    shutil.rmtree(spans, ignore_errors=True)
    bootstrap = [sys.executable, "-m", "perfbench.bootstrap", "--spans", str(spans), "--entry", "figures", "--"]
    traced_run = run_process(bootstrap + proc_args(cell_seeds, settings))
    failures = [f for f in (check(plain, reference), check(traced_run, reference)) if f]
    merged = layers.load_dumps(spans)
    if spans_out is not None:
        layers.write_spans(merged, spans_out)
    untraced_jps, traced_jps = throughput([plain]), throughput([traced_run])
    overhead = (untraced_jps - traced_jps) / untraced_jps if untraced_jps else 0.0
    # Synthetic workloads read no trace: parse amplification has no base.
    return WorkloadResult(
        metrics=layers.layer_metrics(merged, 0, overhead),
        attempted=2,
        failures=failures,
        extra={"untraced_jobs_per_s": untraced_jps, "traced_jobs_per_s": traced_jps},
    )
