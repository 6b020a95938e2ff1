"""Micro-benchmark: lazy job-spec streaming inside one simulation.

Times ``execute(plan)`` over an arrival-sorted trace file — requests carry a
``TraceSpecSource`` window description, the engine ingests specs through its
one-spec lookahead and evicts finished jobs — and records the wall-clock
plus the engine's peak-resident-jobs gauge under the ``stream-specs`` kind
in ``BENCH_engine.json``.

The trace is deliberately *longer* than the figure-bench workloads (count
scaled up, task sizes scaled down) because the number this bench exists to
track is the residency *ratio*: peak concurrently-resident jobs over trace
length, which must stay ``O(max concurrent)`` — a few percent — however long
the trace grows.
"""

from __future__ import annotations

import time

from benchmarks.conftest import bench_scale, bench_scale_name, record_benchmark
from repro.experiments.plan import ReplayPlan
from repro.experiments.runner import execute
from repro.workload.trace_replay import synthesize_trace
from repro.workload.traces import save_trace

#: Trace-length multiplier over the bench scale's job count (see module docs).
TRACE_LENGTH_FACTOR = 12


def test_stream_specs_wall_clock(benchmark, tmp_path):
    scale = bench_scale()
    num_jobs = scale.num_jobs * TRACE_LENGTH_FACTOR
    trace = synthesize_trace(
        workload="facebook",
        framework="hadoop",
        num_jobs=num_jobs,
        size_scale=scale.size_scale / 2,
        max_tasks_per_job=scale.max_tasks_per_job,
        seed=17,
    )
    path = tmp_path / "bench_trace.jsonl"
    save_trace(trace, path)
    plan = ReplayPlan(
        trace=str(path),
        policies=("gs",),
        scale=bench_scale_name(),
        workers=scale.workers,
        seed=17,
    ).validate()

    started = time.perf_counter()
    executed = benchmark.pedantic(execute, args=(plan,), rounds=1, iterations=1)
    stream_seconds = time.perf_counter() - started

    residency_ratio = executed.peak_resident_jobs / num_jobs
    record_benchmark(
        "stream-specs",
        "gs",
        wall_time_seconds=round(stream_seconds, 3),
        trace_jobs=num_jobs,
        peak_resident_jobs=executed.peak_resident_jobs,
        residency_ratio=round(residency_ratio, 4),
        scale=bench_scale_name(),
        workers=scale.workers,
    )
    print(
        f"\nstream-specs/gs: {stream_seconds:.2f}s, peak resident jobs "
        f"{executed.peak_resident_jobs}/{num_jobs} ({residency_ratio:.1%})"
    )
    assert executed.num_jobs == num_jobs
    assert executed.peak_resident_jobs >= 1
    # The load-bearing bound: resident jobs track concurrency, not length.
    assert residency_ratio < 0.10, (
        f"peak resident jobs {executed.peak_resident_jobs} is "
        f"{residency_ratio:.1%} of the {num_jobs}-job trace"
    )
