"""The unified ReplayPlan API: round-trip, validation, CLI generation, parity.

The plan is the one description of a replay.  These tests pin its
contracts:

* a plan survives the JSON wire format byte-for-byte (the service depends
  on this — a submitted plan must be *the same experiment* offline);
* every cross-field conflict raises exactly one :class:`PlanError` whose
  message names both the CLI flags and the plan fields;
* the ``replay`` CLI flags are generated from the plan's field metadata,
  so the parser's surface and defaults cannot drift from the dataclass;
* ``execute(plan)`` is digest-identical to the same jobs replayed from an
  in-memory list, across workers × sink, and the ``stream`` /
  ``stream_specs`` fields old clients still send change nothing.
"""

import dataclasses

import pytest

from repro.experiments.cli import build_replay_parser
from repro.experiments.plan import (
    PlanError,
    ReplayPlan,
    add_plan_arguments,
    plan_cli_fields,
    plan_from_args,
)
from repro.experiments.runner import execute, metrics_digest, plan_scale
from repro.simulator.sinks import parse_sink_spec
from repro.workload.trace_replay import TraceReplayConfig, export_trace
from repro.workload.traces import load_trace

from tests.conftest import replay_source

import argparse


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("plan") / "trace.jsonl"
    export_trace(path, num_jobs=18, size_scale=0.1, max_tasks_per_job=60, seed=7)
    return str(path)


class TestWireRoundTrip:
    def test_default_plan_round_trips_through_json(self):
        plan = ReplayPlan(trace="t.jsonl")
        assert ReplayPlan.from_json(plan.to_json()) == plan

    def test_fully_specified_plan_round_trips(self):
        plan = ReplayPlan(
            cluster_jobs=1000,
            policies=("grass", "late", "gs"),
            scale="paper",
            seeds=(3, 1, 4),
            workers=0,
            shards=16,
            stream_specs=True,
            sink="jsonl:out/rows",
            framework="spark",
            bound_kind="deadline",
            seed=42,
        )
        restored = ReplayPlan.from_json(plan.to_json())
        assert restored == plan
        # Tuples (not lists) after the round-trip, so equality is not a fluke
        # of sequence coercion.
        assert isinstance(restored.policies, tuple)
        assert isinstance(restored.seeds, tuple)

    def test_every_field_appears_on_the_wire(self):
        wire = ReplayPlan(trace="t.jsonl").to_wire()
        assert set(wire) == {f.name for f in dataclasses.fields(ReplayPlan)}

    def test_unknown_wire_field_is_rejected(self):
        with pytest.raises(PlanError, match="unknown plan field: bogus"):
            ReplayPlan.from_wire({"trace": "t.jsonl", "bogus": 1})
        # The removed residency knob is named, not silently dropped.
        with pytest.raises(PlanError, match="unknown plan field: max_resident_shards"):
            ReplayPlan.from_wire({"trace": "t.jsonl", "max_resident_shards": 2})

    def test_non_object_payloads_are_rejected(self):
        with pytest.raises(PlanError, match="JSON object"):
            ReplayPlan.from_wire(["not", "a", "dict"])
        with pytest.raises(PlanError, match="not valid JSON"):
            ReplayPlan.from_json("{nope")


class TestValidation:
    def test_valid_plan_returns_itself(self):
        plan = ReplayPlan(trace="t.jsonl")
        assert plan.validate() is plan

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({}, "exactly one of --trace PATH or --cluster-jobs N"),
            ({"trace": "t", "cluster_jobs": 5}, "exactly one of --trace"),
            ({"cluster_jobs": 0}, "--cluster-jobs must be >= 1"),
            (
                {"trace": "t", "policies": ("nope", "nada")},
                "unknown policies nope, nada",
            ),
            ({"trace": "t", "workers": -1}, "--workers must be >= 0"),
            ({"trace": "t", "shards": 0}, "--shards must be >= 1"),
            ({"trace": "t", "sink": "jsonl:"}, "--sink jsonl needs a directory"),
            ({"trace": "t", "policies": ()}, "at least one policy"),
            ({"trace": "t", "policies": ("nope",)}, "unknown policy nope"),
            ({"trace": "t", "scale": "galactic"}, "unknown scale 'galactic'"),
            ({"trace": "t", "seeds": ()}, "--seeds needs at least one seed"),
            ({"trace": "t", "framework": "dryad"}, "unknown framework 'dryad'"),
            ({"trace": "t", "bound_kind": "vibes"}, "unknown bound kind 'vibes'"),
            ({"trace": "t", "sink": "tape"}, "sink"),
            (
                {"trace": "t", "policies": ("late", "grass", "late")},
                "--policy names late more than once",
            ),
            ({"trace": "t", "seeds": (2, 1, 2)}, "--seeds names 2 more than once"),
            ({"trace": "t", "seeds": (1, -1)}, r"--seeds must be >= 0, got -1 \(plan field: seeds"),
            ({"cluster_jobs": 5, "seed": -3}, r"--seed must be >= 0, got -3 \(plan field: seed\)"),
        ],
    )
    def test_each_conflict_raises_one_named_error(self, fields, message):
        with pytest.raises(PlanError, match=message):
            ReplayPlan(**fields).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cluster_jobs", "30"),
            ("cluster_jobs", 2.5),
            ("cluster_jobs", True),
            ("workers", "2"),
            ("shards", "x"),
            ("seed", "x"),
            ("seeds", ["a"]),
            ("seeds", [1, False]),
            ("seeds", 3),
            ("policies", [["grass"]]),
            ("policies", "grass"),
            ("sink", 5),
            ("trace", 7),
            ("cache", ["dir"]),
            ("scale", None),
            ("framework", 1),
            ("bound_kind", {}),
            ("stream", "yes"),
        ],
    )
    def test_a_mistyped_wire_field_is_a_plan_error_naming_it(self, field, value):
        # Decoded JSON can put any value in any field; the value checks
        # must never see one they would crash on or silently accept.
        wire = {"cluster_jobs": 30, field: value}
        if field == "trace":
            del wire["cluster_jobs"]
        with pytest.raises(PlanError, match=f"plan field {field} must be"):
            ReplayPlan.from_wire(wire).validate()

    def test_a_repeated_seed_is_a_cli_usage_error(self, capsys):
        from repro.experiments.cli import main

        argv = ["replay", "--cluster-jobs", "40", "--scale", "quick", "--seeds", "1", "1"]
        assert main(argv) == 2
        assert "--seeds names 1 more than once" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seeds", "1", "-1"], "--seeds must be >= 0"),
            (["--seed", "-1"], "--seed must be >= 0"),
        ],
    )
    def test_a_negative_seed_is_a_cli_usage_error(self, capsys, flags, message):
        # ``random.Random`` seeds with ``abs(seed)``, so -1 would replay seed 1.
        from repro.experiments.cli import main

        argv = ["replay", "--cluster-jobs", "40", "--scale", "quick", *flags]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_stream_flags_are_accepted_together(self):
        plan = ReplayPlan(trace="t", stream=True, stream_specs=True)
        assert plan.validate() is plan

    def test_a_scale_added_to_the_one_table_is_valid_everywhere(self, monkeypatch):
        # ``runner.SCALE_FACTORIES`` is the table the CLI and perfbench read;
        # the plan's --scale check must accept exactly its names.
        from repro.experiments import runner

        tiny = runner.ExperimentScale(num_jobs=4, num_machines=8)
        monkeypatch.setitem(runner.SCALE_FACTORIES, "tiny", lambda: tiny)
        plan = ReplayPlan(cluster_jobs=4, scale="tiny")
        assert plan.validate() is plan
        assert plan_scale(plan).num_machines == 8


class TestGeneratedCli:
    """The replay parser is generated from the plan — no drift possible."""

    def test_every_cli_field_has_a_flag(self):
        parser = argparse.ArgumentParser()
        add_plan_arguments(parser)
        dests = {action.dest for action in parser._actions}
        for spec in plan_cli_fields():
            assert spec.name in dests

    def test_defaults_match_the_dataclass(self):
        args = build_replay_parser().parse_args([])
        plan = plan_from_args(args)
        assert plan == ReplayPlan()

    def test_parsed_flags_land_in_plan_fields(self):
        args = build_replay_parser().parse_args(
            [
                "--cluster-jobs", "500", "--policy", "late", "--policy", "gs",
                "--scale", "quick", "--seeds", "5", "6", "--workers", "3",
                "--shards", "4", "--stream-specs", "--sink", "aggregate",
                "--framework", "spark", "--bound-kind", "error", "--seed", "9",
            ]
        )
        plan = plan_from_args(args)
        assert plan == ReplayPlan(
            cluster_jobs=500,
            policies=("late", "gs"),
            scale="quick",
            seeds=(5, 6),
            workers=3,
            shards=4,
            stream_specs=True,
            sink="aggregate",
            framework="spark",
            bound_kind="error",
            seed=9,
        )

    def test_help_text_comes_from_field_metadata(self):
        parser = build_replay_parser()
        by_dest = {action.dest: action for action in parser._actions}
        for spec in plan_cli_fields():
            assert by_dest[spec.name].help == spec.metadata["cli"]["help"]


def _legacy_digest(trace_path, plan):
    """The digest of the plan's jobs replayed from an in-memory list."""
    comparison = replay_source(
        plan.policies,
        load_trace(trace_path),
        plan_scale(plan),
        shards=plan.shards,
        config=TraceReplayConfig(
            framework=plan.framework, bound_kind=plan.bound_kind, seed=plan.seed
        ),
        sink=parse_sink_spec(plan.sink),
    )
    return metrics_digest(comparison)


class TestExecuteParity:
    """execute(plan) == the same jobs replayed from a list, digest for digest.

    The ``batch`` / ``stream`` / ``stream-specs`` cases carry the flag sets
    old command lines and wire clients still send; they must change nothing.
    """

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "mode_fields",
        [
            {},
            {"sink": "aggregate"},
            {"stream": True},
            {"stream_specs": True, "sink": "aggregate"},
        ],
        ids=["batch", "batch-aggregate", "stream", "stream-specs-aggregate"],
    )
    def test_digest_matches_legacy_across_matrix(self, trace_path, workers, mode_fields):
        plan = ReplayPlan(
            trace=trace_path,
            policies=("late",),
            scale="quick",
            seeds=(1,),
            workers=workers,
            shards=3,
            **mode_fields,
        )
        executed = execute(plan)
        assert executed.digest == _legacy_digest(trace_path, plan)
        assert executed.num_jobs == 18
        assert executed.num_shards == 3
        assert 1 <= executed.peak_resident_jobs <= 6

    def test_all_modes_agree_with_each_other(self, trace_path):
        base = dict(
            trace=trace_path, policies=("late",), scale="quick", seeds=(1,), shards=3
        )
        digests = {
            execute(ReplayPlan(**base)).digest,
            execute(ReplayPlan(stream=True, **base)).digest,
            execute(ReplayPlan(stream_specs=True, sink="aggregate", **base)).digest,
        }
        assert len(digests) == 1

    def test_cluster_tier_plan_executes_in_batch_and_stream(self):
        base = dict(
            cluster_jobs=30, policies=("late",), scale="quick", seeds=(1,), shards=2
        )
        retained = execute(ReplayPlan(**base))
        streamed = execute(
            ReplayPlan(stream_specs=True, sink="aggregate", workers=2, **base)
        )
        assert retained.digest == streamed.digest
        assert retained.num_jobs == 30
        assert sorted(retained.comparison.workload.metadata) == list(range(30))

    def test_on_metrics_hook_sees_every_simulation(self, trace_path):
        plan = ReplayPlan(
            trace=trace_path, policies=("late", "gs"), scale="quick",
            seeds=(1,), shards=2,
        )
        seen = []
        execute(plan, on_metrics=lambda *coords: seen.append(coords[:3]))
        # Shard-major: every policy's shard 0 lands before any shard 1.
        assert seen == [
            (policy, 1, shard) for shard in range(2) for policy in ("late", "gs")
        ]

    def test_empty_trace_is_a_plan_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(PlanError, match="trace is empty"):
            execute(ReplayPlan(trace=str(empty)))
