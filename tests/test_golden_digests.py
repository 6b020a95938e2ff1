"""Absolute replay digests: every replay must reproduce these exact bytes.

Mode-vs-mode and worker-vs-worker parity only prove that replay is
*reproducible*; a change that shifts every path the same way passes them.
``tests/golden/replay_digests.json`` pins the sha256 metrics digests of a
fixed set of plans instead, and this module recomputes each one at
``workers`` 1 and 2.

The digests were computed under CPython 3.11.  They also pin the
interpreter's float arithmetic: CPython 3.12 made ``sum()`` over floats
compensated, which moves six of the eight entries.

Two cases pin the figures path instead of a replay plan: the digest of a
``compare_policies`` run over one synthetic figure cell, with the three
policies the paper compares plus no-speculation.

A change that moves a digest changes results.  If that is intended,
regenerate the corpus with::

    PYTHONPATH=src python tests/test_golden_digests.py --reason "why the digests move"

It refuses to run without a non-empty reason, rewrites
``tests/golden/replay_digests.json`` itself and reports every entry as
added, changed, unchanged or removed.  Quote the reason in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

import pytest

from repro.experiments.figures import trace_vs_synthetic
from repro.experiments.plan import ReplayPlan
from repro.experiments.runner import (
    ExperimentScale,
    compare_policies,
    execute,
    metrics_digest,
)
from repro.utils.stats import mean
from repro.workload.ingest import ingest_trace
from repro.workload.synthetic import WorkloadConfig
from repro.workload.traces import load_trace

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "replay_digests.json"
TRACES = ROOT / "traces"
POLICIES = ("grass", "late", "mantri")
#: Policies of the figure-cell cases: the paper's comparison plus no-spec.
FIGURE_POLICIES = ("late", "mantri", "grass", "no-spec")
#: Seed of the shuffle that turns facebook_like.jsonl into an unsorted trace.
#: Chosen so the file-order mean slowest/median ratio differs in its last bit
#: from the arrival-order mean: the case pins which order calibrates.
SHUFFLE_SEED = 2


def _plan(**fields) -> ReplayPlan:
    return ReplayPlan(policies=POLICIES, scale="quick", **fields)


def _shuffled_facebook(workdir: Path) -> str:
    lines = (TRACES / "facebook_like.jsonl").read_text(encoding="utf-8").splitlines()
    random.Random(SHUFFLE_SEED).shuffle(lines)
    path = workdir / "facebook_like.shuffled.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _ingested_google(workdir: Path) -> str:
    path = workdir / "google.jsonl"
    ingest_trace(
        "google", TRACES / "samples" / "google_task_events.sample.csv", path
    )
    return str(path)


def _figure_rows_digest(workers: int) -> str:
    """sha256 over the ``trace-replay`` figure's replay rows (exact floats)."""
    scale = replace(ExperimentScale.quick(), workers=workers)
    rows = [
        row
        for row in trace_vs_synthetic(scale).rows
        if row["source"] == "trace-replay"
    ]
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cache_restored_digest(workdir: Path, workers: int) -> str:
    """Digest of a plan served entirely from a cache the same plan filled."""
    plan = _plan(
        trace=str(TRACES / "bing_like.jsonl"),
        shards=3,
        bound_kind="deadline",
        cache=str(workdir / "cache"),
        workers=workers,
    )
    cold = execute(plan)
    warm = execute(plan)
    assert warm.cache_stats.misses == 0
    assert warm.cache_stats.hits == len(POLICIES) * 3
    assert cold.digest == warm.digest
    return warm.digest


def _plan_case(**fields) -> Callable[[Path, int], str]:
    def run(workdir: Path, workers: int) -> str:
        return execute(_plan(workers=workers, **fields)).digest

    return run


def _trace_case(make_trace, **fields) -> Callable[[Path, int], str]:
    def run(workdir: Path, workers: int) -> str:
        return execute(
            _plan(trace=make_trace(workdir), workers=workers, **fields)
        ).digest

    return run


def _figure_cell_case(
    workload: str, framework: str, bound_kind: str, seed: int
) -> Callable[[Path, int], str]:
    """Digest of ``compare_policies`` over one synthetic figure cell."""

    def run(workdir: Path, workers: int) -> str:
        comparison = compare_policies(
            list(FIGURE_POLICIES),
            WorkloadConfig(
                workload=workload,
                framework=framework,
                bound_kind=bound_kind,
                seed=seed,
            ),
            scale=ExperimentScale.quick(),
            workers=workers,
        )
        return metrics_digest(comparison)

    return run


#: Golden case name -> ``compute(workdir, workers) -> sha256 hex``.
CASES: Dict[str, Callable[[Path, int], str]] = {
    "facebook_like-shards1-deadline": _plan_case(
        trace=str(TRACES / "facebook_like.jsonl"), shards=1, bound_kind="deadline"
    ),
    "facebook_like-shards2-error": _plan_case(
        trace=str(TRACES / "facebook_like.jsonl"), shards=2, bound_kind="error"
    ),
    "bing_like-spark-mixed-shards2": _plan_case(
        trace=str(TRACES / "bing_like.jsonl"),
        shards=2,
        framework="spark",
        bound_kind="mixed",
    ),
    "facebook_like-shuffled-shards2": _trace_case(_shuffled_facebook, shards=2),
    "cluster-200x4": _plan_case(cluster_jobs=200, shards=4),
    "ingested-google-sample-shards2": _trace_case(_ingested_google, shards=2),
    "trace-replay-figure-rows": lambda workdir, workers: _figure_rows_digest(workers),
    "cache-restored-bing_like-shards3-deadline": _cache_restored_digest,
    "compare_policies-facebook-hadoop-deadline-seed11": _figure_cell_case(
        "facebook", "hadoop", "deadline", 11
    ),
    "compare_policies-bing-spark-error-seed22": _figure_cell_case(
        "bing", "spark", "error", 22
    ),
}


def _golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]


def test_corpus_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


def test_shuffled_case_separates_calibration_orders(tmp_path):
    trace = load_trace(_shuffled_facebook(tmp_path))
    in_order = mean([job.slowest_to_median_ratio for job in trace])
    ordered = sorted(trace, key=lambda job: (job.arrival_time, job.job_id))
    assert in_order != mean([job.slowest_to_median_ratio for job in ordered])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_digest_matches_golden(name, workers, tmp_path):
    assert CASES[name](tmp_path, workers) == _golden()[name]


def main(argv: Optional[List[str]] = None) -> int:
    """Recompute the corpus and rewrite the golden file (the regeneration path)."""
    import tempfile

    parser = argparse.ArgumentParser(
        description="Regenerate tests/golden/replay_digests.json."
    )
    parser.add_argument(
        "--reason",
        default="",
        help="why the digests are being regenerated (required; quote it in CHANGES.md)",
    )
    args = parser.parse_args(argv)
    reason = args.reason.strip()
    if not reason:
        parser.error("refusing to regenerate the golden corpus without a non-empty --reason")
    old = _golden() if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as workdir:
        digests = {name: CASES[name](Path(workdir), 1) for name in sorted(CASES)}
    for name, digest in digests.items():
        if name not in old:
            status = "added"
        elif old[name] != digest:
            status = "changed"
        else:
            status = "unchanged"
        print(f"{status:9}  {name}  {digest}")
    for name in sorted(set(old) - set(digests)):
        print(f"{'removed':9}  {name}  {old[name]}")
    corpus = {
        "note": "sha256 metrics digests pinned by tests/test_golden_digests.py; "
        "regenerate only on purpose and record why in CHANGES.md",
        "digests": digests,
    }
    GOLDEN.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN.relative_to(ROOT)}; reason: {reason}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
