"""Tests for the pluggable result sinks and mergeable streaming aggregates.

The load-bearing properties:

* **Sink transparency** — an ``AggregateSink`` replay produces aggregates
  and a metrics digest *equal* to the ``RetainAllSink`` path for any shard
  split, worker count and source kind (file or job list), while retaining zero
  ``JobResult`` objects.
* **Exact mergeability** — ``StreamingAggregates.merged`` is chunk-list
  concatenation, hence exactly associative over shard orderings.
* **Loud degradation** — touching raw results on an aggregate-only
  collector raises an actionable error instead of returning a wrong 0.0.
"""

import json
import pickle
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import NoSpeculationPolicy
from repro.core.bounds import ApproximationBound
from repro.core.job import JobResult
from repro.experiments.cli import main, metrics_digest
from repro.experiments.runner import ExperimentScale, compare_policies
from repro.simulator.engine import Simulation
from repro.simulator.sinks import (
    AggregateSink,
    JsonlSpillSink,
    SinkFactory,
    StreamingAggregates,
    canonical_result_record,
    encode_result,
    parse_sink_spec,
)
from repro.utils.stats import OnlineStats
from repro.workload.synthetic import WorkloadConfig, generate_workload
from repro.workload.trace_replay import TraceReplayConfig, synthesize_trace
from repro.workload.traces import TraceJob, save_trace

from tests.conftest import make_simulation_config, replay_source

TINY = ExperimentScale(
    num_jobs=8, size_scale=0.1, max_tasks_per_job=60, num_machines=40,
    seeds=(1,), warmup_jobs=0,
)


def make_result(
    job_id=0,
    bound=None,
    accuracy=1.0,
    duration=10.0,
    num_input_tasks=10,
    met_bound=True,
    speculative_copies=0,
) -> JobResult:
    return JobResult(
        job_id=job_id,
        bound=bound if bound is not None else ApproximationBound.with_deadline(30.0),
        num_input_tasks=num_input_tasks,
        completed_input_tasks=int(round(accuracy * num_input_tasks)),
        accuracy=accuracy,
        start_time=0.0,
        finish_time=duration,
        duration=duration,
        wasted_work=0.0,
        speculative_copies=speculative_copies,
        met_bound=met_bound,
    )


def run_tiny_simulation(sink=None):
    workload = generate_workload(
        WorkloadConfig(num_jobs=12, seed=5, size_scale=0.12, max_tasks_per_job=60)
    )
    config = make_simulation_config(machines=30, seed=2)
    return Simulation(
        config, NoSpeculationPolicy(), workload.specs(), sink=sink
    ).run()


class TestSinkUnits:
    def test_retain_is_the_default_and_keeps_results(self):
        metrics = run_tiny_simulation()
        assert metrics.retains_results
        assert len(metrics.results) == 12

    def test_aggregate_sink_holds_zero_results(self):
        metrics = run_tiny_simulation(sink=AggregateSink())
        assert not metrics.retains_results
        assert metrics.sink.results is None
        assert metrics.aggregates.num_results == 12

    def test_results_access_on_aggregate_collector_raises(self):
        metrics = run_tiny_simulation(sink=AggregateSink())
        with pytest.raises(RuntimeError, match="not retained"):
            metrics.results

    def test_both_sinks_fold_identical_aggregates(self):
        retained = run_tiny_simulation()
        folded = run_tiny_simulation(sink=AggregateSink())
        assert retained.aggregates == folded.aggregates
        assert retained.summary() == folded.summary()

    def test_aggregate_counts_match_raw_results(self):
        metrics = run_tiny_simulation()
        aggregates = metrics.aggregates
        assert aggregates.num_results == len(metrics.results)
        assert aggregates.deadline_jobs == sum(
            1 for r in metrics.results if r.bound.is_deadline
        )
        assert aggregates.error_jobs == len(metrics.error_results())
        assert aggregates.bound_met_jobs == sum(
            1 for r in metrics.results if r.met_bound
        )
        assert aggregates.speculative_copies == sum(
            r.speculative_copies for r in metrics.results
        )
        bins = Counter(r.job_bin for r in metrics.results)
        (chunk,) = aggregates.chunks
        assert chunk.bin_counts == dict(bins)

    def test_aggregate_means_match_raw_results(self):
        metrics = run_tiny_simulation()
        deadline = [r for r in metrics.results if r.bound.is_deadline]
        if deadline:
            assert metrics.aggregates.average_accuracy == pytest.approx(
                sum(r.accuracy for r in deadline) / len(deadline)
            )
        error = metrics.error_results()
        if error:
            assert metrics.average_duration() == pytest.approx(
                sum(r.duration for r in error) / len(error)
            )

    def test_collector_pickle_round_trip_preserves_aggregates(self):
        for sink in (None, AggregateSink()):
            metrics = run_tiny_simulation(sink=sink)
            clone = pickle.loads(pickle.dumps(metrics))
            assert clone.aggregates == metrics.aggregates
            assert clone.summary() == metrics.summary()

    def test_sealed_sink_refuses_further_results(self):
        metrics = run_tiny_simulation(sink=AggregateSink())
        clone = pickle.loads(pickle.dumps(metrics))
        with pytest.raises(RuntimeError, match="sealed"):
            clone.add_result(make_result())

    def test_sink_factory_validation(self):
        with pytest.raises(ValueError, match="unknown sink kind"):
            SinkFactory(kind="csv")
        with pytest.raises(ValueError, match="directory"):
            SinkFactory(kind="jsonl")
        with pytest.raises(ValueError):
            SinkFactory(kind="retain", jsonl_dir="somewhere")

    def test_parse_sink_spec(self):
        assert parse_sink_spec("retain").kind == "retain"
        assert parse_sink_spec("aggregate").kind == "aggregate"
        factory = parse_sink_spec("jsonl:out/rows")
        assert factory.kind == "jsonl" and factory.jsonl_dir == "out/rows"
        with pytest.raises(ValueError):
            parse_sink_spec("jsonl:")
        with pytest.raises(ValueError):
            parse_sink_spec("parquet")


class TestJsonlSpill:
    def test_rows_are_the_canonical_digest_records(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        retained = run_tiny_simulation()
        spilled = run_tiny_simulation(sink=JsonlSpillSink(path))
        spilled.sink.close()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == [canonical_result_record(r) for r in retained.results]
        assert spilled.aggregates == retained.aggregates

    def test_spill_sink_survives_pickling(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        metrics = run_tiny_simulation(sink=JsonlSpillSink(path))
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone.aggregates == metrics.aggregates
        assert len(path.read_text().splitlines()) == 12

    def test_replay_spills_one_file_per_request(self, tmp_path):
        trace = synthesize_trace(
            num_jobs=10, size_scale=0.1, max_tasks_per_job=40, seed=11
        )
        spill_dir = tmp_path / "spill"
        factory = SinkFactory(kind="jsonl", jsonl_dir=str(spill_dir))
        spilled = replay_source(
            ["late"], trace, TINY, shards=2, config=TraceReplayConfig(seed=11),
            sink=factory,
        )
        retained = replay_source(
            ["late"], trace, TINY, shards=2, config=TraceReplayConfig(seed=11)
        )
        assert metrics_digest(spilled) == metrics_digest(retained)
        names = sorted(p.name for p in spill_dir.iterdir())
        assert names == [
            "results-late-seed1-shard0.jsonl",
            "results-late-seed1-shard1.jsonl",
        ]
        rows = [
            json.loads(line)
            for name in names
            for line in (spill_dir / name).read_text().splitlines()
        ]
        assert rows == [
            canonical_result_record(r) for r in retained.runs["late"].results
        ]


def folded(results) -> StreamingAggregates:
    """One simulation's worth of aggregates: ``results`` through a sink."""
    sink = AggregateSink()
    for result in results:
        sink.record(result)
    return sink.aggregates


class TestMergeAssociativity:
    def test_merge_concatenates_chunks(self):
        a = folded([make_result(job_id=1)])
        b = folded([make_result(job_id=2)])
        merged = StreamingAggregates.merged([a, b])
        assert merged.chunks == a.chunks + b.chunks
        assert merged.num_results == 2

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=6),
        split=st.data(),
    )
    def test_any_grouping_of_a_shard_sequence_merges_identically(self, sizes, split):
        """Folding shard aggregates group-wise == folding them one by one.

        This is the associativity the streaming merge relies on: however the
        executor batches shard results before the final (policy, seed, shard)
        fold, the merged aggregates — digest parts included — are equal.
        """
        job_id = 0
        parts = []
        for size in sizes:
            results = []
            for _ in range(size):
                job_id += 1
                results.append(make_result(job_id=job_id, accuracy=job_id / 10.0))
            parts.append(folded(results))
        sequential = StreamingAggregates.merged(parts)
        boundary = split.draw(
            st.integers(min_value=1, max_value=len(parts) - 1), label="boundary"
        )
        left = StreamingAggregates.merged(parts[:boundary])
        right = StreamingAggregates.merged(parts[boundary:])
        regrouped = StreamingAggregates.merged([left, right])
        assert regrouped == sequential
        assert regrouped.digest_parts() == sequential.digest_parts()

    def test_online_stats_merge_matches_adding_every_sample(self):
        samples = [0.5, 1.25, 2.0, 3.5, 8.0, 13.0]
        merged = OnlineStats()
        left, right, whole = OnlineStats(), OnlineStats(), OnlineStats()
        for index, sample in enumerate(samples):
            (left if index < 3 else right).add(sample)
            whole.add(sample)
        merged.merge(left)
        merged.merge(right)
        assert merged.count == whole.count
        assert merged.mean == pytest.approx(whole.mean)


#: Tiny arrival-sorted traces for the equivalence property (mirrors the
#: strategy the streaming-replay property test uses).
_jobs_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),  # inter-arrival gap
        st.lists(
            st.floats(min_value=0.5, max_value=30.0), min_size=1, max_size=5
        ),
    ),
    min_size=2,
    max_size=7,
)


class TestSinkEquivalenceProperty:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        jobs=_jobs_strategy,
        num_shards=st.integers(min_value=1, max_value=4),
        workers=st.sampled_from([1, 4]),
        from_file=st.booleans(),
    )
    def test_aggregate_sink_equals_retain_for_any_pipeline(
        self, tmp_path_factory, jobs, num_shards, workers, from_file
    ):
        """AggregateSink == RetainAllSink for any shard split / workers / source.

        The aggregates are *equal* (strict dataclass equality — same chunk
        partition, same counts, stats and rolling digests) and the printed
        digest is byte-identical, while the aggregate path retains zero
        JobResults.
        """
        trace = []
        arrival = 0.0
        for index, (gap, durations) in enumerate(jobs):
            arrival += gap
            trace.append(
                TraceJob(
                    job_id=index + 1,
                    arrival_time=arrival,
                    task_durations=list(durations),
                )
            )
        path = tmp_path_factory.mktemp("sinkprop") / "trace.jsonl"
        save_trace(trace, path)
        config = TraceReplayConfig(seed=3)
        scale = ExperimentScale(
            num_jobs=len(trace), size_scale=1.0, max_tasks_per_job=None,
            num_machines=20, seeds=(1,), warmup_jobs=0,
        )

        def run(sink_factory):
            return replay_source(
                ["late"], str(path) if from_file else trace,
                replace(scale, workers=workers), shards=num_shards,
                config=config, sink=sink_factory,
            )

        retained = run(SinkFactory(kind="retain"))
        folded = run(SinkFactory(kind="aggregate"))
        assert folded.runs["late"].aggregates == retained.runs["late"].aggregates
        assert metrics_digest(folded) == metrics_digest(retained)
        assert folded.runs["late"].results == []
        assert all(
            not metrics.retains_results for metrics in folded.runs["late"].metrics
        )


class TestCompareAndCli:
    def test_compare_policies_aggregate_sink_matches_retain(self):
        retained = compare_policies(
            ["late", "ras"],
            WorkloadConfig(bound_kind="mixed", seed=42),
            scale=TINY,
        )
        folded = compare_policies(
            ["late", "ras"],
            WorkloadConfig(bound_kind="mixed", seed=42),
            scale=TINY,
            sink=SinkFactory(kind="aggregate"),
        )
        assert metrics_digest(folded) == metrics_digest(retained)
        for name in ("late", "ras"):
            assert folded.runs[name].aggregates == retained.runs[name].aggregates
            assert folded.runs[name].results == []
        assert folded.accuracy_improvement("ras", "late") == retained.accuracy_improvement(
            "ras", "late"
        )
        assert folded.accuracy_improvement_by_bin(
            "ras", "late"
        ) == retained.accuracy_improvement_by_bin("ras", "late")

    def _cli_replay(self, capsys, path, *extra):
        assert (
            main(
                [
                    "replay", "--trace", str(path), "--scale", "quick",
                    "--shards", "2", "--seed", "0", *extra,
                ]
            )
            == 0
        )
        return capsys.readouterr().out

    def test_cli_sink_table_and_digest_identical(self, tmp_path, capsys):
        trace = synthesize_trace(
            num_jobs=10, size_scale=0.1, max_tasks_per_job=40, seed=13
        )
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        outputs = {}
        for sink in ("retain", "aggregate"):
            out = self._cli_replay(capsys, path, "--sink", sink)
            digest = [
                line for line in out.splitlines() if line.startswith("metrics digest")
            ]
            table = [line for line in out.splitlines() if line.startswith(("grass", "late"))]
            outputs[sink] = (digest, table)
        assert outputs["retain"] == outputs["aggregate"]

    def test_cli_stream_specs_aggregate_matches_batch_retain(self, tmp_path, capsys):
        trace = synthesize_trace(
            num_jobs=10, size_scale=0.1, max_tasks_per_job=40, seed=13
        )
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        retained = self._cli_replay(capsys, path)
        streamed = self._cli_replay(
            capsys, path, "--stream-specs", "--sink", "aggregate"
        )
        digest = lambda out: next(  # noqa: E731
            line for line in out.splitlines() if line.startswith("metrics digest")
        )
        assert digest(retained) == digest(streamed)

    def test_cli_rejects_unknown_sink(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        save_trace(
            synthesize_trace(num_jobs=3, size_scale=0.1, max_tasks_per_job=20, seed=1),
            path,
        )
        assert main(["replay", "--trace", str(path), "--sink", "parquet"]) == 2
        assert "unknown sink" in capsys.readouterr().err


class TestEncoding:
    def test_encode_result_is_canonical_compact_json(self):
        result = make_result(job_id=7, accuracy=0.5, duration=12.5)
        encoded = encode_result(result)
        assert encoded == json.dumps(
            canonical_result_record(result), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        # Canonical: sorted keys, no whitespace — the digest's byte contract.
        assert b" " not in encoded
