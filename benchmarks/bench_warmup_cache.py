"""Micro-benchmark: warm-ups of a multi-seed ``compare_policies``.

A learning policy's requests carry the recipe of its warm-up, and the
process that runs a request warms the policy through its own memo: a serial
comparison warms each learning policy once, a pool at most once per worker.
The bench runs one four-seed GRASS comparison at ``workers=1`` and again on
a pool (``scale.workers``, or 2 when that is 1 or auto, so the second leg
crosses a process boundary), and records each leg's wall-clock and warm-up
count into ``BENCH_engine.json`` under the ``warmup-cache`` kind, together
with whether the two legs' metrics digests matched (they must: the worker count is a
wall-clock knob, not a correctness knob; the assert below enforces it on
every bench run).

The bench forces four seeds even at quick scale because the seeds are what
a pool's per-worker warm-ups trade against: serially the four runs share
one warm-up, on a pool each worker warms once and the runs spread over the
workers.  Both wall-clocks are best-of-two to keep them stable against
scheduler noise.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from benchmarks.conftest import bench_scale, bench_scale_name, record_benchmark
from repro.experiments import warmup
from repro.experiments.cli import metrics_digest
from repro.experiments.runner import compare_policies
from repro.workload.synthetic import WorkloadConfig

#: The learning policy — the only kind that pays a warm-up at all.
POLICIES = ("grass",)


def test_warmup_cache_wall_clock(benchmark, tmp_path, monkeypatch):
    scale = bench_scale()
    if len(scale.seeds) < 4:
        scale = replace(scale, seeds=(1, 2, 3, 4))
    pool_workers = scale.workers if scale.workers > 1 else 2
    config = WorkloadConfig(bound_kind="mixed", seed=11)

    # Every warm-up appends a line; forked pool workers inherit the wrapper.
    log = tmp_path / "warmups.log"
    original = warmup.warm_policy_snapshot

    def logged(policy_name, workload, warmup_config):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{policy_name} {os.getpid()}\n")
        return original(policy_name, workload, warmup_config)

    monkeypatch.setattr(warmup, "warm_policy_snapshot", logged)

    def run(workers: int):
        """One comparison: its result, wall-clock and warm-up count."""
        log.write_text("", encoding="utf-8")
        started = time.perf_counter()
        result = compare_policies(POLICIES, config, scale=scale, workers=workers)
        seconds = time.perf_counter() - started
        return result, seconds, len(log.read_text(encoding="utf-8").splitlines())

    serial_runs = [run(1) for _ in range(2)]
    pool_runs = []

    def run_pool():
        pool_runs.append(run(pool_workers))
        return pool_runs[-1][0]

    benchmark.pedantic(run_pool, rounds=2, iterations=1)
    serial, serial_seconds, serial_warmups = min(serial_runs, key=lambda leg: leg[1])
    pooled, pool_seconds, pool_warmups = min(pool_runs, key=lambda leg: leg[1])

    digests_match = metrics_digest(pooled) == metrics_digest(serial)
    record_benchmark(
        "warmup-cache",
        "compare_policies",
        wall_time_seconds=round(serial_seconds, 3),
        warmups=serial_warmups,
        wall_time_pool_seconds=round(pool_seconds, 3),
        warmups_pool=pool_warmups,
        pool_workers=pool_workers,
        digests_match=digests_match,
        seeds=len(scale.seeds),
        scale=bench_scale_name(),
        workers=scale.workers,
    )
    print(
        f"\nwarmup-cache/compare_policies: workers 1 {serial_seconds:.2f}s "
        f"({serial_warmups} warm-up) -> workers {pool_workers} {pool_seconds:.2f}s "
        f"({pool_warmups} warm-ups), digests {'match' if digests_match else 'DIFFER'}"
    )
    # Serially one warm-up per learning policy; on a pool one per worker at most.
    assert serial_warmups == len(POLICIES)
    assert 1 <= pool_warmups <= len(POLICIES) * pool_workers
    assert digests_match, "the worker count changed the metrics digest"
