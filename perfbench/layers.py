"""Per-layer metrics from the tracer's per-process dumps.

A layer is a ``repro`` module group; each metric is ``<layer>.<metric>``.
Times are seconds summed over every process of the run (the system process
and its pool workers), so with parallel workers a layer's time can exceed
the wall time.  Every ratio names its base in :data:`LAYER_METRICS`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from perfbench.procs import p90, percentile

#: ``(name, unit, better, definition)`` of every per-layer metric.
LAYER_METRICS: Tuple[Tuple[str, str, str, str], ...] = (
    ("cli.import_s", "s", "lower", "entry-module import in the system process"),
    ("workload.scan_s", "s", "lower", "calibration scans (scan_jobs), parsing included"),
    ("workload.scan_calls", "count", "lower", "calibration scans"),
    ("workload.parsed_jobs", "count", "lower", "trace records parsed plus cluster-tier jobs generated"),
    ("workload.parse_amplification", "ratio", "lower", "parsed_jobs over the jobs of the sources replayed"),
    ("workload.specs", "count", "lower", "job specs built (trace adaptation and synthetic generation)"),
    ("workload.generate_s", "s", "lower", "synthetic workload and cluster-tier job generation"),
    ("workload.self_s", "s", "lower", "self time of every workload call"),
    ("cache.fingerprint_s", "s", "lower", "source and engine fingerprints"),
    ("cache.lookups", "count", "lower", "ReplayCache.lookup calls"),
    ("cache.lookup_s", "s", "lower", "time in ReplayCache.lookup"),
    ("cache.hit_ratio", "ratio", "higher", "lookups that found an entry, over lookups"),
    ("cache.stores", "count", "lower", "ReplayCache.store calls"),
    ("cache.store_s", "s", "lower", "time in ReplayCache.store"),
    ("cache.store_bytes", "bytes", "lower", "entry bytes written"),
    ("cache.self_s", "s", "lower", "self time of every cache call"),
    ("executor.requests", "count", "lower", "RunRequests handed to ParallelExecutor"),
    ("executor.pool_starts", "count", "lower", "multiprocessing pools started"),
    ("executor.request_bytes", "bytes", "lower", "pickled requests sent to pool workers"),
    ("executor.result_bytes", "bytes", "lower", "pickled results returned by pool workers"),
    ("executor.wall_s", "s", "lower", "wall time inside ParallelExecutor.run/run_stream"),
    ("executor.busy_frac", "ratio", "higher", "RunRequest.execute time over workers x executor.wall_s"),
    ("executor.self_s", "s", "lower", "executor time not spent executing requests or nested layers"),
    ("engine.run_s", "s", "lower", "self time of Simulation.run"),
    ("engine.events", "count", "lower", "events processed"),
    ("engine.events_per_s", "1/s", "higher", "events over total Simulation.run time"),
    ("engine.peak_resident_jobs", "count", "lower", "largest resident job set of any run"),
    ("policies.choose_calls", "count", "lower", "choose_task calls (delegation counted once)"),
    ("policies.choose_s", "s", "lower", "time in choose_task"),
    ("policies.decision_ratio", "ratio", "higher", "choose_task calls returning a decision, over calls"),
    ("policies.prepare_calls", "count", "lower", "SchedulingIndex.prepare calls"),
    ("policies.prepare_s", "s", "lower", "time in SchedulingIndex.prepare, estimator updates included"),
    ("policies.self_s", "s", "lower", "self time of choose_task and prepare"),
    ("estimators.update_calls", "count", "lower", "TaskEstimator.update_running_snaps calls"),
    ("estimators.update_s", "s", "lower", "time in update_running_snaps"),
    ("stragglers.draws", "count", "lower", "StragglerModel.copy_duration calls"),
    ("stragglers.draw_s", "s", "lower", "time in copy_duration"),
    ("sinks.records", "count", "lower", "results recorded into sinks"),
    ("sinks.record_s", "s", "lower", "time in ResultSink.record"),
    ("sinks.merge_s", "s", "lower", "time in StreamingAggregates.merged"),
    ("sinks.digest_s", "s", "lower", "time in fold_run_digests"),
    ("warmup.prewarm_s", "s", "lower", "time in WarmupCache.prewarm"),
    ("warmup.snapshots", "count", "lower", "warm-up snapshots simulated"),
    ("runner.execute_s", "s", "lower", "time in runner.execute"),
    ("runner.probe_s", "s", "lower", "time in probe_plan_cache"),
    ("runner.compare_s", "s", "lower", "time in compare_policies"),
    ("runner.self_s", "s", "lower", "runner time not spent in nested layers"),
    ("admission.wait_p50_ms", "ms", "lower", "median FairShareAdmission.submit-to-next wait"),
    ("admission.wait_p90_ms", "ms", "lower", "90th percentile submit-to-next wait"),
    ("admission.depth_max", "count", "lower", "largest pending backlog after a submit"),
    ("admission.rejected", "count", "lower", "submissions refused by admission"),
    ("protocol.frames_out", "count", "lower", "frames encoded"),
    ("protocol.bytes_out", "bytes", "lower", "bytes of frames encoded"),
    ("protocol.encode_s", "s", "lower", "time in encode_message"),
    ("tracing.overhead_frac", "ratio", "lower",
     "traced minus untraced run, over untraced: jobs_per_s slowdown, or done_p50_ms growth on service-mixed"),
    ("tracing.spans", "count", "lower", "spans recorded"),
)


def load_dumps(directory: Path) -> Dict[str, Any]:
    """Merge every process dump in ``directory`` into one record."""
    merged: Dict[str, Any] = {"spans": [], "stats": {}, "values": {}, "maxima": {}, "samples": {}}
    for path in sorted(Path(directory).glob("*.json")):
        dump = json.loads(path.read_text(encoding="utf-8"))
        pid = dump["pid"]
        merged["spans"].extend([pid] + span for span in dump["spans"])
        for name, (calls, total, own) in dump["stats"].items():
            entry = merged["stats"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, value in dump["values"].items():
            merged["values"][name] = merged["values"].get(name, 0.0) + value
        for name, value in dump["maxima"].items():
            merged["maxima"][name] = max(merged["maxima"].get(name, value), value)
        for name, values in dump["samples"].items():
            merged["samples"].setdefault(name, []).extend(values)
    return merged


def write_spans(merged: Dict[str, Any], path: Path) -> None:
    """Write the run's spans as JSON objects (times on the monotonic clock)."""
    keys = ("pid", "name", "start", "end", "span", "parent", "request")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps([dict(zip(keys, span)) for span in merged["spans"]], indent=None),
        encoding="utf-8",
    )


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(merged: Dict[str, Any], source_jobs: int, overhead_frac: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run; 0 where a layer did no work."""
    stats, values, maxima = merged["stats"], merged["values"], merged["maxima"]

    def calls(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[1]

    def own(prefix: str) -> float:
        return sum(entry[2] for name, entry in stats.items() if name.startswith(prefix))

    waits: List[float] = merged["samples"].get("admission.wait_ms", [])
    events = values.get("engine.events", 0.0)
    return {
        "cli.import_s": values.get("cli.import_s", 0.0),
        "workload.scan_s": total("workload.scan"),
        "workload.scan_calls": calls("workload.scan"),
        "workload.parsed_jobs": values.get("workload.parsed_jobs", 0.0),
        "workload.parse_amplification": _ratio(values.get("workload.parsed_jobs", 0.0), source_jobs),
        "workload.specs": values.get("workload.specs", 0.0),
        "workload.generate_s": total("workload.generate") + total("workload.generate_job"),
        "workload.self_s": own("workload."),
        "cache.fingerprint_s": total("cache.fingerprint"),
        "cache.lookups": calls("cache.lookup"),
        "cache.lookup_s": total("cache.lookup"),
        "cache.hit_ratio": _ratio(values.get("cache.hits", 0.0), calls("cache.lookup")),
        "cache.stores": calls("cache.store"),
        "cache.store_s": total("cache.store"),
        "cache.store_bytes": values.get("cache.store_bytes", 0.0),
        "cache.self_s": own("cache."),
        "executor.requests": values.get("executor.requests", 0.0),
        "executor.pool_starts": values.get("executor.pool_starts", 0.0),
        "executor.request_bytes": values.get("executor.request_bytes", 0.0),
        "executor.result_bytes": values.get("executor.result_bytes", 0.0),
        "executor.wall_s": values.get("executor.wall_s", 0.0),
        "executor.busy_frac": _ratio(total("executor.request"), values.get("executor.slot_s", 0.0)),
        "executor.self_s": own("executor."),
        "engine.run_s": own("engine.run"),
        "engine.events": events,
        "engine.events_per_s": _ratio(events, total("engine.run")),
        "engine.peak_resident_jobs": maxima.get("engine.peak_resident_jobs", 0.0),
        "policies.choose_calls": calls("policies.choose"),
        "policies.choose_s": total("policies.choose"),
        "policies.decision_ratio": _ratio(values.get("policies.decisions", 0.0), calls("policies.choose")),
        "policies.prepare_calls": calls("policies.prepare"),
        "policies.prepare_s": total("policies.prepare"),
        "policies.self_s": own("policies."),
        "estimators.update_calls": calls("estimators.update"),
        "estimators.update_s": total("estimators.update"),
        "stragglers.draws": calls("stragglers.draw"),
        "stragglers.draw_s": total("stragglers.draw"),
        "sinks.records": calls("sinks.record"),
        "sinks.record_s": total("sinks.record"),
        "sinks.merge_s": total("sinks.merge"),
        "sinks.digest_s": total("sinks.digest"),
        "warmup.prewarm_s": total("warmup.prewarm"),
        "warmup.snapshots": calls("warmup.snapshot"),
        "runner.execute_s": total("runner.execute"),
        "runner.probe_s": total("runner.probe"),
        "runner.compare_s": total("runner.compare"),
        "runner.self_s": own("runner."),
        "admission.wait_p50_ms": percentile(waits, 50.0) if waits else 0.0,
        "admission.wait_p90_ms": p90(waits) if waits else 0.0,
        "admission.depth_max": maxima.get("admission.depth_max", 0.0),
        "admission.rejected": values.get("admission.rejected", 0.0),
        "protocol.frames_out": values.get("protocol.frames_out", 0.0),
        "protocol.bytes_out": values.get("protocol.bytes_out", 0.0),
        "protocol.encode_s": total("protocol.encode"),
        "tracing.overhead_frac": overhead_frac,
        "tracing.spans": float(len(merged["spans"])),
    }


#: Counts that must repeat exactly across traced runs of one seed.
DETERMINISTIC_COUNTS = (
    "engine.events",
    "policies.choose_calls",
    "stragglers.draws",
    "workload.parsed_jobs",
    "cache.lookups",
)
