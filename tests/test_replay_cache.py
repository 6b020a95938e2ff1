"""The content-addressed replay cache: parity, eviction, integrity, CLI.

Four layers, tested bottom-up:

* :class:`ReplayCache` as a plain store — the in-memory LRU bound in front
  of the unbounded disk store, engine-fingerprint keying, and the contract
  that corrupt/truncated/wrong-version entries are warned misses that get
  overwritten, never crashes;
* concurrency — two real processes storing the same content-addressed key
  race to a single valid entry (atomic tmp + ``os.replace``);
* the runner — a warm cache reproduces the cold run's digest byte-for-byte
  across every (workers, sink) combination with zero misses — also when the
  warm plan carries the inert ``stream`` / ``stream_specs`` flags the cold
  plan lacked, since the slice key ignores them — for both trace files and
  generated cluster tiers, and ``probe_plan_cache`` answers fully cached
  plans without simulating;
* the ``grass-experiments cache`` verb — stats, verify (including a tampered
  entry drawing a non-zero exit) and clear.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import pytest

import repro
from repro.experiments.cache import (
    MEMORY_ENTRIES,
    CacheIntegrityWarning,
    CachedSlice,
    ReplayCache,
    StaleEntryError,
    engine_fingerprint,
    source_descriptor,
    source_from_descriptor,
)
from repro.core.policies import GreedySpeculative
from repro.experiments.cli import main as cli_main
from repro.experiments.plan import ReplayPlan
from repro.experiments import runner
from repro.experiments.runner import execute, probe_plan_cache
from repro.simulator.engine import Simulation
from repro.simulator.stragglers import StragglerConfig
from repro.workload import trace_replay
from repro.simulator.sinks import AggregateSink
from repro.workload.synthetic import WorkloadConfig, generate_workload
from repro.workload.trace_replay import ClusterTierConfig, synthesize_trace
from repro.workload.traces import save_trace

from tests.conftest import make_simulation_config

POLICIES = ("no-spec", "grass")
SHARDS = 2


def make_plan(trace_path, cache_dir, **overrides):
    fields = dict(
        trace=str(trace_path),
        policies=POLICIES,
        scale="quick",
        shards=SHARDS,
        seed=3,
        cache=str(cache_dir),
    )
    fields.update(overrides)
    return ReplayPlan(**fields).validate()


def make_slice() -> CachedSlice:
    """A synthetic (empty-chunk) cacheable slice for store-level tests."""
    return CachedSlice(chunk=AggregateSink().aggregates.chunks[0])


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    trace = synthesize_trace(
        workload="facebook",
        framework="hadoop",
        num_jobs=12,
        size_scale=0.05,
        max_tasks_per_job=12,
        seed=3,
    )
    path = tmp_path_factory.mktemp("cache_trace") / "trace.jsonl"
    save_trace(trace, path)
    return path


@pytest.fixture(scope="module")
def cold(tmp_path_factory, trace_path):
    """One cold run into a fresh cache; the warm matrix replays against it."""
    cache_dir = tmp_path_factory.mktemp("cache_store") / "cache"
    executed = execute(make_plan(trace_path, cache_dir))
    assert executed.cache_stats is not None
    assert executed.cache_stats.hits == 0
    assert executed.cache_stats.stores == executed.cache_stats.misses > 0
    return {
        "cache_dir": cache_dir,
        "digest": executed.digest,
        "slices": executed.cache_stats.stores,
    }


class TestWarmColdParity:
    @pytest.mark.parametrize("sink", ["retain", "aggregate"])
    @pytest.mark.parametrize("mode", ["batch", "stream", "stream-specs"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_warm_digest_matches_cold_with_zero_misses(
        self, cold, trace_path, workers, mode, sink
    ):
        plan = make_plan(
            trace_path,
            cold["cache_dir"],
            workers=workers,
            stream=mode == "stream",
            stream_specs=mode == "stream-specs",
            sink=sink,
        )
        executed = execute(plan)
        assert executed.digest == cold["digest"]
        assert executed.cache_stats is not None
        assert executed.cache_stats.misses == 0
        assert executed.cache_stats.hits == cold["slices"]

    def test_cluster_tier_sources_cache_too(self, tmp_path):
        plan = ReplayPlan(
            cluster_jobs=8,
            policies=("grass",),
            scale="quick",
            shards=2,
            stream_specs=True,
            sink="aggregate",
            cache=str(tmp_path / "cache"),
        ).validate()
        cold_executed = execute(plan)
        warm_executed = execute(plan)
        assert warm_executed.digest == cold_executed.digest
        assert warm_executed.cache_stats.misses == 0
        assert warm_executed.cache_stats.hits == cold_executed.cache_stats.stores

    def test_partial_hits_fold_into_the_same_digest(self, trace_path, tmp_path):
        cache_dir = tmp_path / "cache"
        # Prime only one policy; the two-policy plan then mixes restored
        # and freshly simulated slices in one merge.
        execute(make_plan(trace_path, cache_dir, policies=("no-spec",)))
        plain = execute(make_plan(trace_path, tmp_path / "unused"))
        mixed = execute(make_plan(trace_path, cache_dir))
        assert mixed.digest == plain.digest
        assert mixed.cache_stats.hits > 0
        assert mixed.cache_stats.misses > 0

    def test_probe_answers_fully_cached_plans_without_simulating(
        self, cold, trace_path
    ):
        plan = make_plan(trace_path, cold["cache_dir"])
        seen = []
        probed = probe_plan_cache(plan, on_metrics=lambda *a: seen.append(a))
        assert probed is not None
        assert probed.digest == cold["digest"]
        assert len(seen) == cold["slices"]

    def test_probe_never_scans_a_cluster_tier(self, tmp_path, monkeypatch):
        # A tier's slice key needs only its job count, a config field: an
        # uncached probe regenerates no job, and a full hit still reports it.
        plan = ReplayPlan(
            cluster_jobs=40,
            policies=("late",),
            scale="quick",
            shards=2,
            sink="aggregate",
            seed=11,
            cache=str(tmp_path / "cache"),
        ).validate()
        generated = []
        real = trace_replay.cluster_trace_job

        def counted(config, index):
            generated.append(index)
            return real(config, index)

        monkeypatch.setattr(trace_replay, "cluster_trace_job", counted)
        monkeypatch.setattr(runner, "_SCAN_MEMO", {})
        assert probe_plan_cache(plan) is None
        assert generated == []
        cold_executed = execute(plan)
        generated.clear()
        probed = probe_plan_cache(plan)
        assert generated == []
        assert probed is not None and probed.digest == cold_executed.digest
        assert (probed.num_jobs, probed.num_shards) == (40, 2)

    def test_probe_declines_partially_cached_plans(self, trace_path, tmp_path):
        cache_dir = tmp_path / "cache"
        execute(make_plan(trace_path, cache_dir, policies=("no-spec",)))
        assert probe_plan_cache(make_plan(trace_path, cache_dir)) is None


class TestCachedSlice:
    def test_restored_collector_answers_like_the_simulated_one(self, tmp_path):
        # A horizon that cuts the workload short, so every gauge is non-zero.
        workload = generate_workload(
            WorkloadConfig(
                num_jobs=12, seed=5, size_scale=0.12, max_tasks_per_job=60,
                bound_kind="mixed",
            )
        )
        config = replace(
            make_simulation_config(machines=30, seed=2, stragglers=StragglerConfig()),
            max_simulated_time=80.0,
        )
        simulated = Simulation(
            config, GreedySpeculative(), workload.specs(), sink=AggregateSink()
        ).run()
        ReplayCache(tmp_path, engine="unit-test").store(
            {"policy": "gs"}, CachedSlice.from_metrics(simulated)
        )
        # A fresh instance reads the entry back from disk.
        restored = ReplayCache(tmp_path, engine="unit-test").lookup({"policy": "gs"}).restore()

        def gauges(metrics):
            return (
                metrics.truncated_jobs,
                metrics.peak_resident_jobs,
                metrics.events_processed,
                metrics.total_copies_launched,
            )

        assert all(gauges(simulated))
        assert gauges(restored) == gauges(simulated)
        assert restored.summary() == simulated.summary()
        assert restored.aggregates == simulated.aggregates
        assert not restored.retains_results


class TestStoreBounds:
    def test_memory_lru_is_bounded_and_falls_back_to_disk(self, tmp_path):
        cache = ReplayCache(tmp_path, engine="unit-test")
        for index in range(MEMORY_ENTRIES + 1):
            cache.store({"index": index}, make_slice())
        assert len(cache._memory) == MEMORY_ENTRIES
        assert cache.store_stats().entries == MEMORY_ENTRIES + 1
        # The oldest entry left memory; its disk copy still hits.
        assert cache.lookup({"index": 0}) is not None
        assert cache.counters.bytes_read > 0
        assert cache.lookup({"index": MEMORY_ENTRIES}) is not None
        assert cache.counters.hits == 2

    def test_concurrent_writers_race_to_one_valid_entry(self, tmp_path):
        root = tmp_path / "shared"
        script = (
            "import sys\n"
            "from repro.experiments.cache import ReplayCache, CachedSlice\n"
            "from repro.simulator.sinks import AggregateSink\n"
            "cache = ReplayCache(sys.argv[1], engine='race-test')\n"
            "slice_ = CachedSlice(chunk=AggregateSink().aggregates.chunks[0])\n"
            "for _ in range(100):\n"
            "    cache.store({'shared': 'key'}, slice_)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        workers = [
            subprocess.Popen([sys.executable, "-c", script, str(root)], env=env)
            for _ in range(2)
        ]
        assert [proc.wait(timeout=60) for proc in workers] == [0, 0]
        cache = ReplayCache(root, engine="race-test")
        assert cache.lookup({"shared": "key"}) is not None
        entries = list(root.glob("??/*.json"))
        assert len(entries) == 1
        assert not list(root.glob("??/.*.tmp")), "a temp file leaked"


def copy_package(destination: Path, edit: Optional[str] = None) -> Path:
    """Copy the ``repro`` package's sources, appending one line to ``edit``."""
    base = Path(repro.__file__).resolve().parent
    shutil.copytree(base, destination, ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        target = destination / edit
        target.write_text(target.read_text() + "\n# one edited line\n")
    return destination


class TestInvalidation:
    def test_engine_fingerprint_changes_when_a_source_changes(self, tmp_path):
        pristine_a = copy_package(tmp_path / "a")
        pristine_b = copy_package(tmp_path / "b")
        edited = copy_package(tmp_path / "c", edit="simulator/engine.py")
        # Content-determined: two pristine copies agree regardless of path.
        assert engine_fingerprint(root=pristine_a) == engine_fingerprint(root=pristine_b)
        assert engine_fingerprint(root=edited) != engine_fingerprint(root=pristine_a)

    @pytest.mark.parametrize(
        "edit",
        [
            # A baseline policy, a digest-relevant utility, the registry that
            # builds policies and a core policy: each decides how a
            # simulation behaves.
            "baselines/late.py",
            "utils/rng.py",
            "experiments/policies.py",
            "core/policies/grass.py",
        ],
    )
    def test_an_edit_anywhere_in_the_package_changes_the_fingerprint(
        self, tmp_path, edit
    ):
        pristine = copy_package(tmp_path / "pristine")
        edited = copy_package(tmp_path / "edited", edit=edit)
        assert engine_fingerprint(root=edited) != engine_fingerprint(root=pristine)

    def test_entries_from_another_engine_are_silent_misses(self, tmp_path):
        slice_wire = {"policy": "grass", "sim_seed": 1, "shard": 0}
        old = ReplayCache(tmp_path, engine="engine-A")
        old.store(slice_wire, make_slice())
        new = ReplayCache(tmp_path, engine="engine-B")
        assert new.lookup(slice_wire) is None
        # Not corruption — just unreachable under the new fingerprint.
        assert new.counters.invalid == 0
        assert new.store_stats().stale_engine_entries == 1
        assert old.lookup(slice_wire) is not None

    @pytest.mark.parametrize("damage", ["garbage", "truncated", "wrong-version"])
    def test_damaged_entries_are_warned_misses_and_overwritten(
        self, tmp_path, damage
    ):
        ReplayCache(tmp_path, engine="unit-test").store({"policy": "grass"}, make_slice())
        # A fresh instance has an empty memory LRU, so lookups reach the disk.
        cache = ReplayCache(tmp_path, engine="unit-test")
        slice_wire = {"policy": "grass"}
        path = cache.entry_path(cache.key_for(slice_wire))
        if damage == "garbage":
            path.write_text("not json at all")
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:25])
        else:
            payload = json.loads(path.read_text())
            payload["version"] = 99
            path.write_text(json.dumps(payload))
        with pytest.warns(CacheIntegrityWarning):
            assert cache.lookup(slice_wire) is None
        assert cache.counters.invalid == 1
        assert not path.exists(), "a damaged entry must be deleted, not kept"
        cache.store(slice_wire, make_slice())
        assert ReplayCache(tmp_path, engine="unit-test").lookup(slice_wire) is not None

    def test_replay_survives_a_corrupted_entry_with_the_same_digest(
        self, trace_path, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        cold_executed = execute(make_plan(trace_path, cache_dir))
        victim = sorted(cache_dir.glob("??/*.json"))[0]
        victim.write_text("garbage")
        with pytest.warns(CacheIntegrityWarning):
            warm_executed = execute(make_plan(trace_path, cache_dir))
        assert warm_executed.digest == cold_executed.digest
        assert warm_executed.cache_stats.invalid == 1
        assert warm_executed.cache_stats.misses == 1
        assert warm_executed.cache_stats.stores == 1
        # The overwrite healed the store: the next run is all hits.
        healed = execute(make_plan(trace_path, cache_dir))
        assert healed.cache_stats.misses == 0

    def test_a_tier_descriptor_with_a_retired_field_is_stale(self):
        """An entry whose tier config names a field the tier no longer has."""
        tier = ClusterTierConfig(num_jobs=30, seed=2)
        descriptor = source_descriptor(tier)
        assert source_from_descriptor(descriptor) == tier
        with pytest.raises(StaleEntryError, match="unreadable cluster descriptor"):
            source_from_descriptor({**descriptor, "median_tasks": 4.0})

    def test_editing_the_trace_invalidates_every_entry(self, trace_path, tmp_path):
        cache_dir = tmp_path / "cache"
        edited = tmp_path / "edited.jsonl"
        shutil.copy(trace_path, edited)
        executed = execute(make_plan(edited, cache_dir))
        assert executed.cache_stats.stores > 0
        with open(edited, "a", encoding="utf-8") as handle:
            handle.write("\n")
        rerun = execute(make_plan(edited, cache_dir))
        assert rerun.cache_stats.hits == 0


class TestStoreFailures:
    def test_full_disk_degrades_to_an_uncached_replay(
        self, trace_path, tmp_path, cold, full_disk
    ):
        cache_dir = tmp_path / "cache"
        uncached = execute(make_plan(trace_path, cache_dir, cache=None))
        with pytest.warns(CacheIntegrityWarning, match="cannot store"):
            executed = execute(make_plan(trace_path, cache_dir))
        assert executed.digest == uncached.digest
        stats = executed.cache_stats
        assert stats.store_failures == stats.misses == cold["slices"]
        assert stats.stores == 0
        assert f"{cold['slices']} failed to store" in stats.summary()
        assert list(cache_dir.rglob("*.tmp")) == []
        assert list(cache_dir.rglob("*.json")) == []


class TestCacheVerb:
    def test_stats_verify_clear_roundtrip(self, trace_path, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        execute(make_plan(trace_path, cache_dir))
        assert cli_main(["cache", "stats", "--cache", str(cache_dir)]) == 0
        assert "entries" in capsys.readouterr().out
        assert cli_main(
            ["cache", "verify", "--cache", str(cache_dir), "--sample", "2"]
        ) == 0
        assert "0 mismatch(es)" in capsys.readouterr().out
        assert cli_main(["cache", "clear", "--cache", str(cache_dir)]) == 0
        assert not list(cache_dir.glob("??/*.json"))

    def test_verify_resimulates_entries_of_an_unsorted_trace(
        self, trace_path, tmp_path, capsys
    ):
        # Entries of a trace whose lines are not in arrival order are
        # re-simulated from the same in-memory windows the replay used.
        lines = trace_path.read_text().splitlines()
        unsorted = tmp_path / "unsorted.jsonl"
        unsorted.write_text("\n".join(reversed(lines)) + "\n")
        cache_dir = tmp_path / "cache"
        execute(make_plan(unsorted, cache_dir))
        assert cli_main(
            ["cache", "verify", "--cache", str(cache_dir), "--sample", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert f"verified {len(POLICIES) * SHARDS}/" in out
        assert "0 mismatch(es)" in out

    def test_verify_catches_a_tampered_entry(self, trace_path, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        execute(make_plan(trace_path, cache_dir))
        victim = sorted(cache_dir.glob("??/*.json"))[0]
        payload = json.loads(victim.read_text())
        payload["chunk"]["digest"] = "00" * 32
        victim.write_text(json.dumps(payload))
        status = cli_main(
            ["cache", "verify", "--cache", str(cache_dir), "--sample", "16"]
        )
        captured = capsys.readouterr()
        assert status == 1
        assert "mismatch" in captured.out + captured.err

    def test_replay_cli_reports_cache_counters(self, trace_path, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = [
            "replay",
            "--trace", str(trace_path),
            "--scale", "quick",
            "--shards", str(SHARDS),
            "--seed", "3",
            "--cache", str(cache_dir),
        ]
        assert cli_main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "replay cache: 0 hits" in cold_out
        assert cli_main(argv) == 0
        warm_out = capsys.readouterr().out
        assert "0 misses" in warm_out

        def digest_line(text):
            return [l for l in text.splitlines() if l.startswith("metrics digest")]

        assert digest_line(cold_out) == digest_line(warm_out)
