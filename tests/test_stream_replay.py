"""Tests for trace parsing, the calibration scan and lazy shard windows.

The load-bearing property: how a shard's jobs reach the engine is a
*memory* choice, never a correctness one.  A lazily windowed trace file
(``TraceSpecSource``) and the same jobs sliced from an in-memory list
(``InMemorySpecSource``) must produce byte-identical merged metrics — the
CLI's sha256 digest — for any shard split and any worker count, and the
lazy window keeps the engine's resident jobs bounded by the window.
"""

import pickle
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.cli import metrics_digest
from repro.experiments.plan import PlanError, ReplayPlan
from repro.experiments.runner import (
    ExperimentScale,
    _scan_source,
    _shard_sources,
    execute,
)
from repro.workload.trace_replay import (
    InMemorySpecSource,
    TraceReplayConfig,
    TraceSpecSource,
    shard_sizes,
    slice_trace,
    synthesize_trace,
)
from repro.workload.traces import (
    TraceFormatError,
    TraceJob,
    iter_trace,
    save_trace,
    scan_trace,
)

from tests.conftest import replay_source

TINY = ExperimentScale(
    num_jobs=8, size_scale=0.1, max_tasks_per_job=60, num_machines=40,
    seeds=(1,), warmup_jobs=0,
)


def small_trace(num_jobs: int = 18, seed: int = 7):
    return synthesize_trace(
        num_jobs=num_jobs, size_scale=0.1, max_tasks_per_job=60, seed=seed
    )


@pytest.fixture
def trace_file(tmp_path):
    trace = small_trace()
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    return path, trace


class TestIterTrace:
    def test_matches_load_trace(self, trace_file):
        path, trace = trace_file
        streamed = list(iter_trace(path))
        assert [j.job_id for j in streamed] == [j.job_id for j in trace]
        assert [j.task_durations for j in streamed] == [
            j.task_durations for j in trace
        ]

    def test_is_lazy(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"job_id": 1, "arrival_time": 0.0, "task_durations": [1.0]}\nnot json\n')
        iterator = iter_trace(path)
        assert next(iterator).job_id == 1  # first line parses before line 2 explodes
        with pytest.raises(TraceFormatError, match="bad.jsonl:2"):
            next(iterator)

    def test_duplicate_ids_rejected_mid_stream(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = '{"job_id": 5, "arrival_time": 0.0, "task_durations": [1.0]}\n'
        path.write_text(line + line)
        with pytest.raises(TraceFormatError, match="duplicate job_id 5"):
            list(iter_trace(path))


class TestScanTrace:
    def test_scan_matches_batch_statistics(self, trace_file):
        path, trace = trace_file
        scan = scan_trace(path)
        assert scan.num_jobs == len(trace)
        from repro.utils.stats import mean

        assert scan.mean_slowest_to_median == mean(
            [job.slowest_to_median_ratio for job in trace]
        )
        assert scan.arrival_sorted

    def test_scan_detects_unsorted(self, tmp_path):
        path = tmp_path / "unsorted.jsonl"
        path.write_text(
            '{"job_id": 1, "arrival_time": 5.0, "task_durations": [1.0]}\n'
            '{"job_id": 2, "arrival_time": 1.0, "task_durations": [1.0]}\n'
        )
        assert not scan_trace(path).arrival_sorted

    def test_scan_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            scan_trace(path)


class TestLazyShards:
    def test_boundaries_match_slice_trace(self, tmp_path):
        """File windows and in-memory windows cut exactly slice_trace's shards."""
        trace = small_trace(num_jobs=11)
        path = tmp_path / "trace.jsonl"
        save_trace(sorted(trace, key=lambda j: (j.arrival_time, j.job_id)), path)
        config = TraceReplayConfig()
        for num_shards in (1, 2, 3, 5, 11):
            eager = [[j.job_id for j in s] for s in slice_trace(trace, num_shards)]
            lazy = _shard_sources(str(path), scan_trace(path), config, num_shards)
            assert all(isinstance(source, TraceSpecSource) for source in lazy)
            assert [[s.job_id for s in source.iter_specs()] for source in lazy] == eager
            memory = _shard_sources(trace, _scan_source(trace), config, num_shards)
            assert all(isinstance(source, InMemorySpecSource) for source in memory)
            assert [[j.job_id for j in source.jobs] for source in memory] == eager

    def test_shard_sizes_never_empty(self):
        for total in (1, 2, 7, 100):
            for shards in (1, 3, total, total + 5):
                sizes = shard_sizes(total, shards)
                assert sum(sizes) == total
                assert all(size >= 1 for size in sizes)


class TestStreamedReplayDeterminism:
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_digest_matches_batch_at_same_split(self, trace_file, shards, workers):
        """A lazily windowed file == the same jobs replayed from a list."""
        path, trace = trace_file
        config = TraceReplayConfig(seed=0)
        in_memory = replay_source(
            ["late", "grass"], trace, TINY, shards=shards, config=config
        )
        streamed = replay_source(
            ["late", "grass"], str(path), replace(TINY, workers=workers),
            shards=shards, config=config,
        )
        assert metrics_digest(streamed) == metrics_digest(in_memory)
        for name in in_memory.runs:
            for ms, mb in zip(
                streamed.runs[name].metrics, in_memory.runs[name].metrics
            ):
                assert pickle.dumps(ms) == pickle.dumps(mb)

    def test_peak_residency_respects_limit(self, trace_file):
        """The engine never holds more jobs than one lazy shard window."""
        path, trace = trace_file
        for shards in (1, 3, 6):
            executed = execute(
                ReplayPlan(
                    trace=str(path), policies=("late",), scale="quick",
                    shards=shards, workers=4,
                )
            )
            assert executed.num_shards == shards
            assert 1 <= executed.peak_resident_jobs <= max(shard_sizes(len(trace), shards))

    def test_metadata_survives_streaming(self, trace_file):
        path, trace = trace_file
        comparison = replay_source(["late"], str(path), TINY, shards=3)
        workload = comparison.workload
        assert sorted(workload.metadata) == sorted(j.job_id for j in trace)
        # The merged spec list is never materialised — that is the point.
        assert workload.job_specs == []

    def test_unsorted_trace_rejected(self, tmp_path):
        """A lazy file window needs arrival order; unsorted files go to memory."""
        from repro.experiments.executor import RunRequest
        from repro.experiments.runner import _replay_simulation_config

        path = tmp_path / "unsorted.jsonl"
        path.write_text(
            '{"job_id": 1, "arrival_time": 5.0, "task_durations": [1.0]}\n'
            '{"job_id": 2, "arrival_time": 1.0, "task_durations": [1.0]}\n'
        )
        scan = scan_trace(path)
        assert not scan.arrival_sorted
        config = TraceReplayConfig()
        lazy = TraceSpecSource(str(path), config, 0, 1, scan.num_jobs)
        request = RunRequest(
            spec_source=lazy,
            config=_replay_simulation_config(config, scan, 4, 1, "late"),
            policy_name="late",
        )
        with pytest.raises(ValueError):  # job 2 would arrive before time zero
            request.execute()
        # The runner never builds that window: it sorts the trace in memory.
        (source,) = _shard_sources(str(path), scan, config, 1)
        assert [job.job_id for job in source.jobs] == [2, 1]
        comparison = replay_source(["late"], str(path), TINY)
        assert comparison.runs["late"].aggregates.num_results == 2

    def test_bad_arguments_rejected(self, trace_file):
        path, _ = trace_file
        with pytest.raises(PlanError, match="--shards must be >= 1"):
            execute(ReplayPlan(trace=str(path), shards=0))
        with pytest.raises(PlanError, match="max_resident_shards"):
            ReplayPlan.from_wire({"trace": str(path), "max_resident_shards": 2})


class TestStreamCli:
    def test_stream_digest_matches_batch_digest(self, trace_file, capsys):
        """``--stream`` is accepted and changes nothing."""
        from repro.experiments.cli import main

        path, _ = trace_file
        base = ["replay", "--trace", str(path), "--policy", "late", "--scale", "quick",
                "--shards", "2", "--seed", "3"]
        assert main(base) == 0
        plain_out = capsys.readouterr().out
        assert main(base + ["--stream", "--workers", "4"]) == 0
        stream_out = capsys.readouterr().out

        def line(text, prefix):
            for candidate in text.splitlines():
                if candidate.startswith(prefix):
                    return candidate
            raise AssertionError(f"no {prefix!r} line in {text!r}")

        assert line(plain_out, "metrics digest:") == line(stream_out, "metrics digest:")
        assert line(plain_out, "peak resident jobs:") == line(
            stream_out, "peak resident jobs:"
        )

    def test_bad_max_resident_shards_rejected(self, trace_file, capsys):
        from repro.experiments.cli import main

        path, _ = trace_file
        with pytest.raises(SystemExit) as exit_info:
            main(["replay", "--trace", str(path), "--max-resident-shards", "2"])
        assert exit_info.value.code == 2
        assert "--max-resident-shards" in capsys.readouterr().err

    def test_stream_missing_file(self, tmp_path):
        from repro.experiments.cli import main

        assert (
            main(["replay", "--trace", str(tmp_path / "nope.jsonl"), "--stream"]) == 2
        )

    def test_stream_unsorted_trace_exits_cleanly(self, tmp_path, capsys):
        from repro.experiments.cli import main

        path = tmp_path / "unsorted.jsonl"
        path.write_text(
            '{"job_id": 1, "arrival_time": 5.0, "task_durations": [1.0]}\n'
            '{"job_id": 2, "arrival_time": 1.0, "task_durations": [1.0]}\n'
        )
        assert main(["replay", "--trace", str(path), "--stream"]) == 0
        captured = capsys.readouterr()
        assert "metrics digest: sha256=" in captured.out
        assert captured.err == ""


#: Hypothesis strategy for a tiny arrival-sorted trace: a few jobs with a
#: handful of positive task durations each.
_jobs_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),  # inter-arrival gap
        st.lists(
            st.floats(min_value=0.5, max_value=30.0), min_size=1, max_size=6
        ),
    ),
    min_size=2,
    max_size=8,
)


class TestStreamingReplayProperty:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(jobs=_jobs_strategy, num_shards=st.integers(min_value=1, max_value=5))
    def test_any_shard_split_streams_to_the_batch_digest(
        self, tmp_path_factory, jobs, num_shards
    ):
        """A lazily windowed file == its in-memory job list, for any split.

        For every generated trace and shard count the file replay's digest
        equals the job-list replay's at that split — the lazy parse and
        windowing never change the numbers; only the shard count itself (a
        simulation-decomposition knob) does.
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
        path = tmp_path_factory.mktemp("prop") / "trace.jsonl"
        save_trace(trace, path)
        config = TraceReplayConfig(seed=3)
        scale = ExperimentScale(
            num_jobs=len(trace), size_scale=1.0, max_tasks_per_job=None,
            num_machines=20, seeds=(1,), warmup_jobs=0,
        )
        for shards in {1, num_shards}:
            streamed = replay_source(
                ["late"], str(path), scale, shards=shards, config=config
            )
            in_memory = replay_source(
                ["late"], trace, scale, shards=shards, config=config
            )
            assert metrics_digest(streamed) == metrics_digest(in_memory)
