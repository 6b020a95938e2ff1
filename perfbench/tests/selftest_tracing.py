"""The traced run: wrappers are transparent and deterministic counts repeat."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import figures, layers, replay_cold, service_mixed  # noqa: E402
from perfbench.settings import ReplaySettings, ServiceSettings  # noqa: E402

SMALL_REPLAY = ReplaySettings(jobs=120, setup_probes=1, min_processes=1)


def test_traced_replay_matches_the_reference_and_counts_repeat(tmp_path):
    # traced() checks both the untraced and the traced process against the
    # serial reference digest: no failure means the wrappers are transparent.
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = replay_cold.traced(7, 1.0, tmp_path / "a", SMALL_REPLAY, spans_out=tmp_path / "spans.json")
    second = replay_cold.traced(7, 1.0, tmp_path / "b", SMALL_REPLAY)
    assert first.failures == [] and second.failures == []
    for name in layers.DETERMINISTIC_COUNTS:
        assert first.metrics[name] == second.metrics[name], name
    metrics = first.metrics
    assert metrics["engine.events"] > 0
    assert metrics["workload.parsed_jobs"] > SMALL_REPLAY.jobs  # per-shard re-parse
    assert metrics["executor.pool_starts"] >= 1
    assert metrics["executor.requests"] == len(SMALL_REPLAY.policies) * SMALL_REPLAY.shards
    assert metrics["cache.lookups"] == 0  # replay-cold runs without a cache
    assert set(metrics) == {name for name, *_ in layers.LAYER_METRICS}
    # Spans from the pool workers made it into the merged file.
    spans = (tmp_path / "spans.json").read_text()
    assert spans.count('"executor.request"') == metrics["executor.requests"]


def test_traced_service_serves_verified_digests(tmp_path):
    settings = ServiceSettings(fresh_jobs=6, warm_set=2, nominal_rate=6.0)
    result = service_mixed.traced(3, 2.0, tmp_path, settings)
    assert result.failures == []
    assert result.metrics["cache.lookups"] > 0
    assert result.metrics["protocol.frames_out"] > 0
    assert result.metrics["admission.wait_p50_ms"] >= 0.0


def test_traced_figures_match_the_reference(tmp_path):
    result = figures.traced(4, 1.0, tmp_path)
    assert result.failures == []
    metrics = result.metrics
    assert metrics["runner.compare_s"] > 0
    assert metrics["warmup.snapshots"] >= 1
    assert metrics["workload.specs"] > 0
    assert metrics["sinks.records"] > 0
