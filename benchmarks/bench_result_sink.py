"""Micro-benchmark: streaming result sinks vs retaining every JobResult.

Replays the same synthesized, arrival-sorted trace through
``execute(plan)`` twice — once with the retaining sink (the default) and
once with the aggregate sink — and records what the sink architecture exists to
deliver: with ``--sink aggregate`` the comparison holds **zero** resident
``JobResult`` objects and the digest still matches the retain path
byte-for-byte, while the memory still traced once the pipeline has drained
(the part that grows with trace length under the retain sink: the results)
drops to a small fraction of the retaining run's.

Peak traced memory is recorded for context but does not gate: the peak is
dominated by transient engine state — concurrent jobs' tasks and copies —
which lazy spec streaming already bounds to O(max concurrent) regardless of
the sink.  The *residency ratio* is the sink's own number.

Both legs run with ``workers=1`` so every allocation happens in this
process, where ``tracemalloc`` can see it; the digest identity across worker
counts is locked elsewhere (``tests/test_result_sinks.py`` and the
``replay-determinism`` CI job).

Like ``bench_stream_specs``, the trace is longer than the figure-bench
workloads (count scaled up, task sizes scaled down): the number under test
is how memory scales with trace *length*.
"""

from __future__ import annotations

import gc
import time
import tracemalloc

from benchmarks.conftest import bench_scale, bench_scale_name, record_benchmark
from repro.experiments.plan import ReplayPlan
from repro.experiments.runner import execute, metrics_digest
from repro.workload.trace_replay import synthesize_trace
from repro.workload.traces import save_trace

#: Trace-length multiplier over the bench scale's job count (see module docs).
TRACE_LENGTH_FACTOR = 12


def test_result_sink_residency(benchmark, tmp_path):
    scale = bench_scale()
    num_jobs = scale.num_jobs * TRACE_LENGTH_FACTOR
    trace = synthesize_trace(
        workload="facebook",
        framework="hadoop",
        num_jobs=num_jobs,
        size_scale=scale.size_scale / 2,
        max_tasks_per_job=scale.max_tasks_per_job,
        seed=19,
    )
    path = tmp_path / "bench_trace.jsonl"
    save_trace(trace, path)

    def run(sink_kind: str):
        plan = ReplayPlan(
            trace=str(path), policies=("gs",), scale=bench_scale_name(),
            workers=1, sink=sink_kind, seed=19,
        ).validate()
        tracemalloc.start()
        started = time.perf_counter()
        executed = execute(plan)
        elapsed = time.perf_counter() - started
        # pytest-benchmark disables the cyclic GC while timing; collect
        # explicitly so "resident" counts live objects, not engine cycles
        # (Job <-> Task observer references) awaiting collection.
        gc.collect()
        resident, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return executed.comparison, resident, peak, elapsed

    retained, retain_resident, retain_peak, retain_seconds = run("retain")
    folded_holder = []

    def run_aggregate():
        folded_holder.append(run("aggregate"))
        return folded_holder[-1]

    benchmark.pedantic(run_aggregate, rounds=1, iterations=1)
    folded, aggregate_resident, aggregate_peak, aggregate_seconds = folded_holder[-1]

    digests_match = metrics_digest(folded) == metrics_digest(retained)
    resident_retain = sum(
        len(metrics.results) for metrics in retained.runs["gs"].metrics
    )
    resident_aggregate = sum(
        len(metrics.sink.results or ()) for metrics in folded.runs["gs"].metrics
    )
    residency_ratio = (
        aggregate_resident / retain_resident if retain_resident else float("inf")
    )
    peak_ratio = aggregate_peak / retain_peak if retain_peak else float("inf")
    record_benchmark(
        "result-sink",
        "gs",
        trace_jobs=num_jobs,
        resident_results_retain=resident_retain,
        resident_results_aggregate=resident_aggregate,
        resident_bytes_retain=retain_resident,
        resident_bytes_aggregate=aggregate_resident,
        residency_ratio=round(residency_ratio, 4),
        peak_traced_bytes_retain=retain_peak,
        peak_traced_bytes_aggregate=aggregate_peak,
        peak_ratio=round(peak_ratio, 4),
        wall_time_seconds=round(aggregate_seconds, 3),
        wall_time_retain_seconds=round(retain_seconds, 3),
        digests_match=digests_match,
        scale=bench_scale_name(),
        workers=1,
    )
    print(
        f"\nresult-sink/gs: retain resident {retain_resident / 1e6:.2f}MB "
        f"({resident_retain} results), aggregate resident "
        f"{aggregate_resident / 1e6:.2f}MB ({resident_aggregate} results) "
        f"-> residency ratio {residency_ratio:.2f} (peak ratio "
        f"{peak_ratio:.2f}), digests {'match' if digests_match else 'DIFFER'}"
    )
    assert digests_match, "the aggregate sink changed the metrics digest"
    # The load-bearing claims: the aggregate path holds zero JobResults, its
    # post-drain resident memory sits materially below the retaining path's
    # (what grows with trace length), and its transient peak is no worse.
    assert resident_retain == num_jobs
    assert resident_aggregate == 0
    assert residency_ratio < 0.5, (
        f"aggregate-sink resident memory is {residency_ratio:.2f}x the retain "
        "path's — expected a material reduction"
    )
    # Sanity bound only: the transient peak belongs to the engine (bounded by
    # lazy spec streaming, identical across sinks) and tracemalloc's peak is noisy
    # across a shared pytest session, so the gate is deliberately loose.
    assert peak_ratio < 1.5, (
        f"aggregate-sink peak memory is {peak_ratio:.2f}x the retain path's"
    )
