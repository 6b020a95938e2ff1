"""Tests for policy state snapshots and the shared warm-up cache.

The cache's contract is transparency: restoring a warmed snapshot into a
fresh policy must be byte-equivalent to re-simulating the warm-up, so
``compare_policies(warm_cache=True)`` and ``warm_cache=False`` — and any
worker count — all produce identical metrics.  The cache only changes how
often the warm-up simulation runs.
"""

import pickle

import pytest

from repro.baselines import LatePolicy
from repro.core.policies import Grass
from repro.experiments.executor import ParallelExecutor, RunRequest
from repro.experiments.policies import make_policy
from repro.experiments.runner import (
    ExperimentScale,
    build_simulation_config,
    compare_policies,
)
from repro.experiments.warmup import WarmupCache, policy_learns, warm_policy_snapshot
from repro.simulator.engine import Simulation
from repro.workload.synthetic import WorkloadConfig, generate_workload

TINY = ExperimentScale(
    num_jobs=8, size_scale=0.1, max_tasks_per_job=60, num_machines=40,
    seeds=(1, 2), warmup_jobs=6,
)


def _tiny_workload(seed: int):
    return generate_workload(
        WorkloadConfig(
            num_jobs=TINY.num_jobs,
            size_scale=TINY.size_scale,
            max_tasks_per_job=TINY.max_tasks_per_job,
            seed=seed,
        )
    )


class TestPolicySnapshots:
    def test_stateless_policies_snapshot_to_none(self):
        for name in ("late", "gs", "ras", "no-spec", "mantri", "oracle"):
            policy = make_policy(name)
            assert not policy.learns_across_jobs
            assert policy.state_snapshot() is None
            policy.restore_state(None)  # no-op, never raises

    def test_stateless_restore_rejects_foreign_snapshot(self):
        with pytest.raises(ValueError, match="stateless"):
            LatePolicy().restore_state({"store": None})

    def test_grass_learns_across_jobs(self):
        assert policy_learns("grass")
        assert not policy_learns("late")

    def test_grass_snapshot_round_trip_reproduces_decisions(self):
        """Warm-then-snapshot-then-restore == warm-then-continue, byte for byte.

        The warmed instance and a fresh instance restored from its (pickled,
        as if shipped to a worker) snapshot must produce identical metrics on
        the same follow-up workload.
        """
        warmup = _tiny_workload(seed=5)
        measured = _tiny_workload(seed=6)
        config = build_simulation_config(measured, TINY, seed=1)

        warmed = make_policy("grass")
        Simulation(config, warmed, warmup.specs()).run()
        snapshot = pickle.loads(pickle.dumps(warmed.state_snapshot()))

        restored = make_policy("grass")
        restored.restore_state(snapshot)

        continued = Simulation(config, warmed, measured.specs()).run()
        resumed = Simulation(config, restored, measured.specs()).run()
        assert pickle.dumps(continued) == pickle.dumps(resumed)

    def test_snapshot_isolated_from_live_policy(self):
        """Mutating the policy after the snapshot must not change the snapshot."""
        warmup = _tiny_workload(seed=5)
        config = build_simulation_config(warmup, TINY, seed=1)
        policy: Grass = make_policy("grass")
        Simulation(config, policy, warmup.specs()).run()
        snapshot = policy.state_snapshot()
        before = pickle.dumps(snapshot)
        Simulation(config, policy, _tiny_workload(seed=6).specs()).run()
        assert pickle.dumps(snapshot) == before

    def test_restore_isolates_runs_sharing_one_snapshot(self):
        """Two in-process restores from one snapshot must not share state."""
        warmup = _tiny_workload(seed=5)
        measured = _tiny_workload(seed=6)
        config = build_simulation_config(measured, TINY, seed=1)
        snapshot = warm_policy_snapshot("grass", warmup, config)

        first = make_policy("grass")
        first.restore_state(snapshot)
        first_metrics = Simulation(config, first, measured.specs()).run()

        second = make_policy("grass")
        second.restore_state(snapshot)
        second_metrics = Simulation(config, second, measured.specs()).run()
        assert pickle.dumps(first_metrics) == pickle.dumps(second_metrics)


class TestWarmupCache:
    def test_memoises_per_policy(self):
        warmup = _tiny_workload(seed=5)
        config = build_simulation_config(warmup, TINY, seed=9)
        cache = WarmupCache(warmup, config)
        first = cache.snapshot_for("grass")
        second = cache.snapshot_for("grass")
        assert first is second
        assert cache.misses == 1
        assert cache.hits == 1

    def test_prewarm_parallel_matches_serial(self):
        """Snapshots a pool's chain heads warm equal serial ``prewarm``'s."""
        warmup = _tiny_workload(seed=5)
        config = build_simulation_config(warmup, TINY, seed=9)
        serial = WarmupCache(warmup, config)
        serial.prewarm(["grass", "grass-strawman", "late"])
        # Stateless policies are never warmed; prewarm itself never re-warms.
        assert serial.misses == 2
        serial.prewarm(["grass", "grass-strawman", "late"])
        assert (serial.misses, serial.hits) == (2, 0)

        parallel = WarmupCache(warmup, config)
        measured = _tiny_workload(seed=6)
        requests = [
            RunRequest(
                workload=measured,
                config=build_simulation_config(measured, TINY, seed),
                policy_name=name,
                warm_state=parallel,
            )
            for name in ("grass", "grass-strawman")
            for seed in TINY.seeds
        ]
        ParallelExecutor(workers=4).run(requests)
        # One miss per policy, recorded from its chain head; one hit per
        # restored second seed.
        assert (parallel.misses, parallel.hits) == (2, 2)
        for name in ("grass", "grass-strawman"):
            assert parallel.holds(name)
            assert pickle.dumps(serial.snapshot_for(name)) == pickle.dumps(
                parallel.snapshot_for(name)
            )

    def test_pickles_as_its_recipe(self):
        """A shipped cache carries the warm-up, never the parent's memo."""
        warmup = _tiny_workload(seed=5)
        config = build_simulation_config(warmup, TINY, seed=9)
        cache = WarmupCache(warmup, config)
        cache.snapshot_for("grass")
        copy = pickle.loads(pickle.dumps(cache))
        assert not copy.holds("grass")
        assert (copy.hits, copy.misses) == (0, 0)
        assert pickle.dumps(copy.snapshot_for("grass")) == pickle.dumps(
            cache.snapshot_for("grass")
        )


class TestComparePoliciesTransparency:
    def test_cache_and_workers_never_change_results(self):
        """warm_cache x workers: four runs, one set of bytes."""
        config = WorkloadConfig(bound_kind="mixed", seed=42)
        reference = compare_policies(
            ["grass", "late"], config, scale=TINY, warm_cache=False, workers=1
        )
        for warm_cache in (False, True):
            for workers in (1, 4):
                candidate = compare_policies(
                    ["grass", "late"],
                    config,
                    scale=TINY,
                    warm_cache=warm_cache,
                    workers=workers,
                )
                for name in reference.runs:
                    assert (
                        candidate.runs[name].results == reference.runs[name].results
                    ), (warm_cache, workers, name)

    def test_warm_state_shared_across_seeds(self):
        """The whole point of the cache: one warm-up serves every seed."""
        warmup = _tiny_workload(seed=5)
        config = build_simulation_config(warmup, TINY, seed=9)
        cache = WarmupCache(warmup, config)
        cache.prewarm(["grass"])
        cache.snapshot_for("grass")
        cache.snapshot_for("grass")
        assert cache.misses == 1
        assert cache.hits == 2
