"""System process of the ``figures`` workload.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python3 -m perfbench.figures_proc --workers 2 --cell-seeds 11 22

Calls ``compare_policies(["late", "mantri", "grass"], ...)`` once per figure
cell of :class:`perfbench.settings.FigureSettings` at the default experiment
scale, computes GRASS's per-bin improvements over each baseline (the Figure 5
accuracy and Figure 7 speed shapes) and prints one JSON line per cell as soon
as it is done.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

# Called through the module so a tracer installed after this import still
# sees compare_policies (perfbench.bootstrap wraps module attributes).
from repro.experiments import runner
from repro.workload.synthetic import WorkloadConfig

from perfbench.settings import FigureSettings


def run_cell(
    cell: Tuple[str, str, str],
    seed: int,
    policies: Sequence[str],
    workers: int,
    warm_cache: bool = True,
) -> Dict[str, object]:
    """One figure cell: its digest, job runs, timing and per-bin improvements."""
    workload, framework, bound_kind = cell
    started = time.perf_counter()
    comparison = runner.compare_policies(
        list(policies),
        WorkloadConfig(workload=workload, framework=framework, bound_kind=bound_kind, seed=seed),
        scale=runner.ExperimentScale(),
        workers=workers,
        warm_cache=warm_cache,
    )
    compare_s = time.perf_counter() - started
    improvements: Dict[str, Dict[str, float]] = {}
    for baseline in policies:
        if baseline == "grass":
            continue
        if bound_kind == "deadline":
            by_bin = comparison.accuracy_improvement_by_bin("grass", baseline)
            overall = comparison.accuracy_improvement("grass", baseline)
        else:
            by_bin = comparison.duration_improvement_by_bin("grass", baseline)
            overall = comparison.duration_improvement("grass", baseline)
        improvements[baseline] = dict(sorted(by_bin.items()), overall=overall)
    return {
        "cell": "/".join(cell),
        "seed": seed,
        "digest": runner.metrics_digest(comparison),
        "job_runs": sum(run.aggregates.num_results for run in comparison.runs.values()),
        "compare_s": compare_s,
        "improvements": improvements,
    }


def comparable(record: Dict[str, object]) -> str:
    """The deterministic part of a cell record, as canonical JSON."""
    return json.dumps(
        {key: record[key] for key in ("cell", "seed", "digest", "job_runs", "improvements")},
        sort_keys=True,
    )


def main(argv: Optional[List[str]] = None) -> int:
    settings = FigureSettings()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", type=int, default=settings.workers)
    parser.add_argument("--cell-seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.cell_seeds) != len(settings.cells):
        parser.error(f"need {len(settings.cells)} cell seeds")
    for cell, seed in zip(settings.cells, args.cell_seeds):
        record = run_cell(cell, seed, settings.policies, args.workers)
        print(json.dumps(record, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
