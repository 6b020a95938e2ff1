"""Tests for policy state snapshots and the per-process warm-up memos.

The memo's contract is transparency: restoring a warmed snapshot into a
fresh policy must be byte-equivalent to re-simulating the warm-up, so any
worker count produces identical metrics.  The memo only changes how often
the warm-up simulation runs.
"""

import pickle
from collections import Counter

import pytest

from repro.baselines import LatePolicy
from repro.core.policies import Grass
from repro.experiments.policies import make_policy
from repro.experiments.runner import (
    ExperimentScale,
    build_simulation_config,
    compare_policies,
)
from repro.experiments.warmup import (
    WarmupCache,
    forget_memos,
    policy_learns,
    warm_policy_snapshot,
)
from repro.simulator.engine import Simulation
from repro.workload import synthetic
from repro.workload.synthetic import WorkloadConfig, generate_workload, generated

TINY = ExperimentScale(
    num_jobs=8, size_scale=0.1, max_tasks_per_job=60, num_machines=40,
    seeds=(1, 2), warmup_jobs=6,
)


def _tiny_config(seed: int) -> WorkloadConfig:
    return WorkloadConfig(
        num_jobs=TINY.num_jobs,
        size_scale=TINY.size_scale,
        max_tasks_per_job=TINY.max_tasks_per_job,
        seed=seed,
    )


def _tiny_workload(seed: int):
    return generate_workload(_tiny_config(seed))


def _recipe(seed: int = 5) -> WarmupCache:
    return WarmupCache(_tiny_config(seed), build_simulation_config(_tiny_workload(seed), TINY, 9))


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
    def test_memoises_per_policy_and_recipe(self, warmup_log):
        first = _recipe().snapshot_for("grass")
        # An equal recipe built on its own is the same key.
        assert _recipe().snapshot_for("grass") is first
        assert _recipe(seed=6).snapshot_for("grass") is not first
        _recipe().snapshot_for("grass-strawman")
        assert Counter(name for name, _pid in warmup_log()) == {"grass": 2, "grass-strawman": 1}
        forget_memos()
        again = _recipe().snapshot_for("grass")
        assert again is not first
        assert pickle.dumps(again) == pickle.dumps(first)

    def test_snapshot_equals_a_direct_warm_up(self, warmup_log):
        recipe = _recipe()
        direct = warm_policy_snapshot("grass", generate_workload(recipe.workload), recipe.config)
        assert pickle.dumps(recipe.snapshot_for("grass")) == pickle.dumps(direct)

    def test_prewarm_warms_learning_policies_only(self, warmup_log):
        recipe = _recipe()
        recipe.prewarm(["grass", "late", "grass", "grass-strawman"])
        recipe.prewarm(["grass"])
        assert [name for name, _pid in warmup_log()] == ["grass", "grass-strawman"]

    def test_each_config_is_generated_once(self, warmup_log, monkeypatch):
        """Spec reads and warm-ups share one generation per config."""
        calls = []

        def counted(config):
            calls.append(config.seed)
            return generate_workload(config)

        monkeypatch.setattr(synthetic, "generate_workload", counted)
        recipe = _recipe()
        measured = _tiny_config(6)
        first = [spec.job_id for spec in measured.iter_specs()]
        assert [spec.job_id for spec in measured.iter_specs()] == first
        recipe.snapshot_for("grass")
        recipe.snapshot_for("grass-strawman")
        assert generated(recipe.workload) is generated(_tiny_config(5))
        assert calls == [6, 5]
        forget_memos()
        assert [spec.job_id for spec in measured.iter_specs()] == first
        assert calls == [6, 5, 6]

    def test_recipe_pickles_to_an_equal_key(self):
        recipe = _recipe()
        copy = pickle.loads(pickle.dumps(recipe))
        assert copy == recipe and hash(copy) == hash(recipe)
        with pytest.raises(AttributeError):
            recipe.workload = _tiny_config(6)


class TestComparePoliciesTransparency:
    def test_cache_and_workers_never_change_results(self):
        """Serial again, then on four workers: the memos never change a result."""
        config = WorkloadConfig(bound_kind="mixed", seed=42)
        reference = compare_policies(["grass", "late"], config, scale=TINY, workers=1)
        for workers in (1, 4):
            candidate = compare_policies(["grass", "late"], config, scale=TINY, workers=workers)
            for name in reference.runs:
                assert candidate.runs[name].results == reference.runs[name].results, (
                    workers,
                    name,
                )

    def test_compare_policies_warms_again_each_call(self, warmup_log):
        """Every comparison empties the memo, so each times its own warm-up."""
        config = WorkloadConfig(bound_kind="mixed", seed=42)
        for _ in range(2):
            compare_policies(["grass", "late"], config, scale=TINY, workers=1)
        assert [name for name, _pid in warmup_log()] == ["grass", "grass"]
