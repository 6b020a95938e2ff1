"""Micro-benchmark: the content-addressed replay cache, cold vs. warm.

Executes the same :class:`ReplayPlan` three ways at the bench scale —
without a cache, against an empty cache (cold: every slice simulates and
stores), and against the populated store (warm: every slice restores from
disk) — asserting all three digests are byte-identical and recording the
cold/warm throughputs under the ``replay-cache`` kind in
``BENCH_engine.json``.

Two numbers gate the feature's worth: the warm path must be at least an
order of magnitude faster than simulating (the whole point of the cache),
and the cold path must not pay more than a few percent for fingerprinting
and stores (else nobody would leave the cache on).  Both are asserted here.
The overhead is measured over *interleaved* plain/cold pairs with the
minimum pairwise ratio: scheduler noise on a busy machine swings
independent wall-clocks by ±10%, far above the real overhead (~1%, per
profile), and the paired minimum is the only estimator of the two-run
ratio that stays stable under that noise.

The record deliberately uses ``cold_events_per_second`` /
``warm_events_per_second`` field names: the bench-gate regression check
keys on ``events_per_second``, and a cache-restore throughput is not
comparable to a simulation throughput.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List

from benchmarks.conftest import (
    bench_rounds,
    bench_scale,
    bench_scale_name,
    record_benchmark,
)
from repro.experiments.plan import ReplayPlan
from repro.experiments.runner import execute
from repro.workload.trace_replay import synthesize_trace
from repro.workload.traces import save_trace

POLICIES = ("no-spec", "grass")
SHARDS = 4
#: Interleaved plain/cold measurement pairs for the overhead ratio.
OVERHEAD_PAIRS = 5
#: The warm path must beat re-simulation by at least this factor.
MIN_WARM_SPEEDUP = 10.0
#: Fractional wall-clock the cold path may pay over a cache-less run.
MAX_COLD_OVERHEAD = 0.05


def _run(plan: ReplayPlan) -> tuple:
    """Execute ``plan``; returns (digest, events, elapsed, cache_stats)."""
    events: List[int] = []

    def on_metrics(policy, seed, shard, metrics):
        events.append(metrics.events_processed)

    started = time.perf_counter()
    executed = execute(plan, on_metrics=on_metrics)
    elapsed = time.perf_counter() - started
    return executed.digest, sum(events), elapsed, executed.cache_stats


def test_replay_cache_cold_vs_warm(benchmark, tmp_path):
    scale = bench_scale()
    trace = synthesize_trace(
        workload="facebook",
        framework="hadoop",
        # 4x the scale's job count: long enough runs that per-plan constant
        # costs (fingerprints, the probe) sit in the regime the cache
        # targets, short enough for bench-smoke.
        num_jobs=scale.num_jobs * 4,
        size_scale=scale.size_scale,
        max_tasks_per_job=scale.max_tasks_per_job,
        seed=17,
    )
    trace_path = tmp_path / "bench_trace.jsonl"
    save_trace(trace, trace_path)
    plan = ReplayPlan(
        trace=str(trace_path),
        policies=POLICIES,
        scale=bench_scale_name(),
        shards=SHARDS,
        seed=17,
        workers=scale.workers,
    ).validate()
    rounds = bench_rounds()

    # Plain vs cold, interleaved: each pair runs back to back under the
    # same machine conditions, each cold round gets a fresh (empty) store,
    # and the overhead is the *minimum* pairwise ratio — see module doc.
    plain: List[tuple] = []
    cold: List[tuple] = []
    for index in range(OVERHEAD_PAIRS):
        plain.append(_run(plan))
        cold_plan = replace(plan, cache=str(tmp_path / f"cold{index}" / "cache"))
        cold.append(_run(cold_plan))
    plain_digest, events, plain_seconds, _stats = min(plain, key=lambda r: r[2])
    cold_digest, _events, cold_seconds, cold_stats = min(cold, key=lambda r: r[2])
    cold_overhead = min(
        c[2] / p[2] for p, c in zip(plain, cold, strict=True) if p[2] > 0
    ) - 1.0

    # Warm: one store populated by a discarded priming run, then best-of
    # timed restores — the benchmark.pedantic rounds measure only these.
    warm_plan = replace(plan, cache=str(tmp_path / "warm" / "cache"))
    _run(warm_plan)  # prime
    warm: List[tuple] = []
    benchmark.pedantic(lambda: warm.append(_run(warm_plan)), rounds=rounds, iterations=1)
    warm_digest, _events, warm_seconds, warm_stats = min(warm, key=lambda r: r[2])

    digests_match = plain_digest == cold_digest == warm_digest
    warm_speedup = plain_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    record_benchmark(
        "replay-cache",
        "grass",
        events=events,
        cold_events_per_second=round(events / cold_seconds, 1) if cold_seconds else 0.0,
        warm_events_per_second=round(events / warm_seconds, 1) if warm_seconds else 0.0,
        wall_time_plain_seconds=round(plain_seconds, 4),
        wall_time_cold_seconds=round(cold_seconds, 4),
        wall_time_warm_seconds=round(warm_seconds, 4),
        warm_speedup=round(warm_speedup, 1),
        cold_overhead_fraction=round(cold_overhead, 4),
        digests_match=digests_match,
        shards=SHARDS,
        scale=bench_scale_name(),
        workers=scale.workers,
    )
    print(
        f"\nreplay-cache/grass: plain {plain_seconds:.3f}s, cold "
        f"{cold_seconds:.3f}s (overhead {cold_overhead:+.1%}), warm "
        f"{warm_seconds:.4f}s ({warm_speedup:,.0f}x), digests "
        f"{'match' if digests_match else 'DIFFER'}"
    )
    assert digests_match, "caching changed the metrics digest"
    assert cold_stats is not None and cold_stats.hits == 0
    assert warm_stats is not None and warm_stats.misses == 0, (
        f"warm run missed the cache: {warm_stats.summary()}"
    )
    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm cache only {warm_speedup:.1f}x faster than simulating "
        f"(need >= {MIN_WARM_SPEEDUP:.0f}x)"
    )
    assert cold_overhead < MAX_COLD_OVERHEAD, (
        f"cold cache overhead {cold_overhead:.1%} exceeds "
        f"{MAX_COLD_OVERHEAD:.0%} of the cache-less wall clock"
    )
