"""Tests for the trace-driven replay pipeline (adapter, runner, CLI).

The load-bearing properties are (a) round-tripping: a synthesized trace
survives save/load exactly and replays identically to its in-memory twin,
(b) determinism: per-policy replay metrics are byte-identical across worker
counts, and (c) malformed JSONL traces fail loudly with the file and line.
"""

import pickle
from dataclasses import replace

import pytest

from repro.experiments import runner
from repro.experiments.cli import _os_error_message, main, metrics_digest
from repro.experiments.figures import FIGURES
from repro.experiments.plan import PlanError
from repro.experiments.runner import (
    ExperimentScale,
    _replay_simulation_config,
    _scan_source,
    _shard_sources,
)
from repro.simulator.engine import Simulation
from repro.workload.bins import ERROR_BINS
from repro.workload.trace_replay import (
    TraceReplayConfig,
    export_trace,
    iter_job_specs,
    slice_trace,
    straggler_cap_from_ratio,
    synthesize_trace,
)
from repro.workload.traces import (
    TraceFormatError,
    TraceJob,
    iter_trace,
    save_trace,
    scan_jobs,
)

from tests.conftest import replay_source

#: Small cluster scale so replay tests stay fast; the trace supplies the jobs.
TINY = ExperimentScale(
    num_jobs=8, size_scale=0.1, max_tasks_per_job=60, num_machines=40,
    seeds=(1,), warmup_jobs=0,
)


def tiny_trace(num_jobs: int = 10, seed: int = 7):
    return synthesize_trace(
        num_jobs=num_jobs, size_scale=0.1, max_tasks_per_job=60, seed=seed
    )


# ---------------------------------------------------------------- iter_trace


class TestLoadTraceErrors:
    def write(self, tmp_path, text: str):
        path = tmp_path / "trace.jsonl"
        path.write_text(text)
        return path

    def test_blank_lines_are_skipped(self, tmp_path):
        path = self.write(
            tmp_path,
            '\n{"job_id": 1, "arrival_time": 0.0, "task_durations": [1.0]}\n\n',
        )
        trace = list(iter_trace(path))
        assert [job.job_id for job in trace] == [1]

    def test_invalid_json_names_file_and_line(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"job_id": 1, "arrival_time": 0.0, "task_durations": [1.0]}\n{broken\n',
        )
        with pytest.raises(TraceFormatError, match=r"trace\.jsonl:2.*invalid JSON"):
            list(iter_trace(path))

    def test_non_object_line_rejected(self, tmp_path):
        path = self.write(tmp_path, "[1, 2, 3]\n")
        with pytest.raises(TraceFormatError, match="expected a JSON object"):
            list(iter_trace(path))

    def test_missing_field_rejected(self, tmp_path):
        path = self.write(tmp_path, '{"job_id": 1, "arrival_time": 0.0}\n')
        with pytest.raises(TraceFormatError, match="missing field 'task_durations'"):
            list(iter_trace(path))

    def test_non_numeric_durations_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"job_id": 1, "arrival_time": 0.0, "task_durations": ["x"]}\n',
        )
        with pytest.raises(TraceFormatError, match=r"trace\.jsonl:1"):
            list(iter_trace(path))

    def test_negative_duration_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"job_id": 1, "arrival_time": 0.0, "task_durations": [-1.0]}\n',
        )
        with pytest.raises(TraceFormatError, match="positive"):
            list(iter_trace(path))

    def test_non_finite_values_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"job_id": 1, "arrival_time": 0.0, "task_durations": [Infinity, NaN]}\n',
        )
        with pytest.raises(TraceFormatError, match="finite"):
            list(iter_trace(path))
        path = self.write(
            tmp_path,
            '{"job_id": 1, "arrival_time": NaN, "task_durations": [1.0]}\n',
        )
        with pytest.raises(TraceFormatError, match="finite"):
            list(iter_trace(path))

    def test_duplicate_job_id_rejected(self, tmp_path):
        record = '{"job_id": 1, "arrival_time": 0.0, "task_durations": [1.0]}\n'
        path = self.write(tmp_path, record + record)
        with pytest.raises(TraceFormatError, match="duplicate job_id 1"):
            list(iter_trace(path))


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        trace = tiny_trace()
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        loaded = list(iter_trace(path))
        assert [job.job_id for job in loaded] == [job.job_id for job in trace]
        assert [job.arrival_time for job in loaded] == [
            job.arrival_time for job in trace
        ]
        assert [job.task_durations for job in loaded] == [
            job.task_durations for job in trace
        ]

    def test_export_trace_writes_loadable_fixture(self, tmp_path):
        path = tmp_path / "fb.jsonl"
        summary = export_trace(path, num_jobs=6, size_scale=0.1, seed=3)
        assert summary.num_jobs == 6
        assert len(list(iter_trace(path))) == 6


# ------------------------------------------------------------------- adapter


class TestTraceAdapter:
    def test_empty_job_list_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            replay_source(["late"], [], TINY)

    def test_duplicate_job_ids_rejected(self):
        jobs = [
            TraceJob(job_id=1, arrival_time=0.0, task_durations=[1.0]),
            TraceJob(job_id=1, arrival_time=1.0, task_durations=[1.0]),
        ]
        with pytest.raises(ValueError, match="unique"):
            replay_source(["late"], jobs, TINY)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_duplicate_ids_across_shards_rejected_before_simulating(
        self, workers, monkeypatch
    ):
        # Job 0 opens the first shard and closes the second, so each shard's
        # engine sees it once: only the calibration scan can reject it.
        jobs = [
            TraceJob(job_id=job_id, arrival_time=float(index), task_durations=[1.0])
            for index, job_id in enumerate([0, 1, 2, 3, 4, 5, 6, 0])
        ]
        calls = []
        run = Simulation.run
        simulate = runner._simulate

        def counted_run(simulation):
            calls.append("run")
            return run(simulation)

        def counted_simulate(*args, **kwargs):
            calls.append("simulate")
            return simulate(*args, **kwargs)

        monkeypatch.setattr(Simulation, "run", counted_run)
        monkeypatch.setattr(runner, "_simulate", counted_simulate)
        with pytest.raises(PlanError, match="unique.*job 0 "):
            replay_source(["late"], jobs, replace(TINY, workers=workers), shards=2)
        assert calls == []

    def test_arrivals_rebased_and_ordered(self):
        jobs = [
            TraceJob(job_id=0, arrival_time=50.0, task_durations=[1.0]),
            TraceJob(job_id=1, arrival_time=10.0, task_durations=[1.0]),
        ]
        (source,) = _shard_sources(jobs, _scan_source(jobs), TraceReplayConfig(), 1)
        specs = list(source.iter_specs())
        assert [spec.job_id for spec in specs] == [1, 0]
        assert specs[0].arrival_time == 0.0
        assert specs[1].arrival_time == 40.0

    def test_bounds_independent_of_sharding(self):
        trace = tiny_trace()
        config = TraceReplayConfig(seed=5)
        ordered = sorted(trace, key=lambda job: (job.arrival_time, job.job_id))
        full = {spec.job_id: spec for spec in iter_job_specs(ordered, config)}
        shard = _shard_sources(trace, _scan_source(trace), config, 3)[1]
        for spec in shard.iter_specs():
            full_spec = full[spec.job_id]
            assert spec.bound == full_spec.bound
            assert spec.max_slots == full_spec.max_slots
            assert spec.phases == full_spec.phases

    def test_straggler_cap_tracks_observed_ratio(self):
        flat = [TraceJob(job_id=0, arrival_time=0.0, task_durations=[1.0, 1.0])]
        skewed = [
            TraceJob(job_id=0, arrival_time=0.0, task_durations=[1.0, 1.0, 9.0])
        ]

        def cap(jobs):
            return straggler_cap_from_ratio(scan_jobs(jobs).mean_slowest_to_median)

        assert cap(flat) == pytest.approx(1.05)
        assert cap(skewed) == pytest.approx(9.0)
        config = _replay_simulation_config(
            TraceReplayConfig(), scan_jobs(skewed), num_machines=4, seed=1
        )
        assert config.stragglers.cap == pytest.approx(9.0)


class TestSliceTrace:
    def test_partition_preserves_jobs(self):
        trace = tiny_trace()
        shards = slice_trace(trace, 4)
        assert sum(len(shard) for shard in shards) == len(trace)
        all_ids = sorted(job.job_id for shard in shards for job in shard)
        assert all_ids == sorted(job.job_id for job in trace)

    def test_shards_are_arrival_contiguous(self):
        trace = tiny_trace()
        shards = slice_trace(trace, 3)
        previous_max = float("-inf")
        for shard in shards:
            arrivals = [job.arrival_time for job in shard]
            assert arrivals == sorted(arrivals)
            assert arrivals[0] >= previous_max
            previous_max = arrivals[-1]

    def test_more_shards_than_jobs(self):
        trace = tiny_trace(num_jobs=3)
        shards = slice_trace(trace, 10)
        assert len(shards) == 3
        assert all(len(shard) == 1 for shard in shards)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            slice_trace(tiny_trace(num_jobs=2), 0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            slice_trace([], 4)


# -------------------------------------------------------------------- replay


class TestReplayDeterminism:
    def test_workers_1_and_4_byte_identical(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(tiny_trace(), path)
        trace = list(iter_trace(path))
        serial = replay_source(["late", "gs"], trace, TINY)
        fanned = replay_source(["late", "gs"], trace, replace(TINY, workers=4))
        for name in ("late", "gs"):
            serial_metrics = serial.runs[name].metrics
            fanned_metrics = fanned.runs[name].metrics
            assert len(serial_metrics) == len(fanned_metrics)
            for left, right in zip(serial_metrics, fanned_metrics, strict=True):
                assert pickle.dumps(left) == pickle.dumps(right)
        assert metrics_digest(serial) == metrics_digest(fanned)

    def test_sharded_replay_covers_every_job(self):
        trace = tiny_trace()
        sharded = replay_source(["late"], trace, replace(TINY, workers=2), shards=3)
        assert sorted(r.job_id for r in sharded.runs["late"].results) == sorted(
            job.job_id for job in trace
        )

    def test_sharded_replay_deterministic_across_workers(self):
        trace = tiny_trace()
        serial = replay_source(["late"], trace, TINY, shards=3)
        fanned = replay_source(["late"], trace, replace(TINY, workers=4), shards=3)
        assert metrics_digest(serial) == metrics_digest(fanned)

    def test_replay_rejects_bad_shards(self):
        with pytest.raises(ValueError):
            replay_source(["late"], tiny_trace(num_jobs=2), TINY, shards=0)

    def test_comparison_supports_bin_breakdowns(self):
        trace = tiny_trace()
        comparison = replay_source(["late", "gs"], trace, TINY)
        # Job-size and error-bound bins come from the results themselves.
        assert set(comparison.accuracy_improvement_by_bin("gs", "late")) <= {
            "small", "medium", "large"
        }
        by_error = comparison.duration_improvement_by_error_bin("gs", "late")
        assert by_error
        assert set(by_error) <= {label for label, _high in ERROR_BINS}


# ----------------------------------------------------------------------- CLI


class TestReplayCli:
    def fixture_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(tiny_trace(), path)
        return path

    def run_cli(self, capsys, *argv):
        exit_code = main(list(argv))
        return exit_code, capsys.readouterr()

    def test_replay_verb_runs_and_prints_digest(self, tmp_path, capsys):
        path = self.fixture_path(tmp_path)
        exit_code, captured = self.run_cli(
            capsys, "replay", "--trace", str(path), "--policy", "late",
            "--scale", "quick",
        )
        assert exit_code == 0
        assert "metrics digest: sha256=" in captured.out

    def test_digest_identical_across_worker_counts(self, tmp_path, capsys):
        path = self.fixture_path(tmp_path)
        digests = []
        for workers in ("1", "2"):
            exit_code, captured = self.run_cli(
                capsys, "replay", "--trace", str(path), "--policy", "late",
                "--scale", "quick", "--workers", workers,
            )
            assert exit_code == 0
            digests.append(
                next(
                    line for line in captured.out.splitlines()
                    if line.startswith("metrics digest:")
                )
            )
        assert digests[0] == digests[1]

    def test_header_reports_the_executed_shard_count(self, tmp_path, capsys):
        path = self.fixture_path(tmp_path)
        num_jobs = len(list(iter_trace(path)))
        exit_code, captured = self.run_cli(
            capsys, "replay", "--trace", str(path), "--policy", "late",
            "--scale", "quick", "--shards", str(num_jobs + 24),
        )
        assert exit_code == 0
        # More shards than jobs collapse to one job per shard; the header
        # reports what ran, not what was asked for.
        assert f": {num_jobs} jobs, {num_jobs} shard(s)," in captured.out
        peak = next(
            line for line in captured.out.splitlines()
            if line.startswith("peak resident jobs: ")
        )
        assert peak == f"peak resident jobs: 1 (of {num_jobs} in the trace)"

    def test_missing_trace_file_is_a_usage_error(self, capsys):
        exit_code, captured = self.run_cli(
            capsys, "replay", "--trace", "/nonexistent/trace.jsonl"
        )
        assert exit_code == 2
        assert "not found" in captured.err

    def test_trace_directory_is_a_usage_error(self, tmp_path, capsys):
        exit_code, captured = self.run_cli(
            capsys, "replay", "--trace", str(tmp_path), "--policy", "late",
            "--scale", "quick",
        )
        assert exit_code == 2
        assert captured.err == (
            f"trace path is a directory, not a JSONL file: {tmp_path}\n"
        )

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("source", ["trace", "tier"])
    def test_unwritable_spill_path_is_named_instead_of_the_trace(
        self, tmp_path, capsys, source, workers
    ):
        # A regular file where the jsonl sink wants its directory: the
        # error is about that path, whatever the source.
        spill = tmp_path / "spill"
        spill.write_text("not a directory\n")
        if source == "trace":
            source_args = ["--trace", str(self.fixture_path(tmp_path))]
        else:
            source_args = ["--cluster-jobs", "50"]
        exit_code, captured = self.run_cli(
            capsys, "replay", *source_args, "--policy", "late", "--scale", "quick",
            "--workers", workers, "--sink", f"jsonl:{spill}",
        )
        assert exit_code == 2
        assert str(spill) in captured.err
        assert "trace" not in captured.err.replace(str(spill), "<spill>")
        assert len(captured.err.splitlines()) == 1

    def test_malformed_trace_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{nope\n")
        exit_code, captured = self.run_cli(capsys, "replay", "--trace", str(path))
        assert exit_code == 2
        assert "malformed trace" in captured.err

    def test_bad_worker_and_shard_counts_rejected(self, tmp_path, capsys):
        path = self.fixture_path(tmp_path)
        assert main(["replay", "--trace", str(path), "--workers", "-1"]) == 2
        assert main(["replay", "--trace", str(path), "--shards", "0"]) == 2

    def test_unknown_policy_and_framework_are_usage_errors(self, tmp_path, capsys):
        path = self.fixture_path(tmp_path)
        exit_code, captured = self.run_cli(
            capsys, "replay", "--trace", str(path), "--policy", "nope"
        )
        assert exit_code == 2
        assert "unknown policy nope" in captured.err
        exit_code, captured = self.run_cli(
            capsys, "replay", "--trace", str(path), "--framework", "dryad"
        )
        assert exit_code == 2
        assert "unknown framework" in captured.err

    def test_repeated_policy_is_a_usage_error(self, tmp_path, capsys):
        path = self.fixture_path(tmp_path)
        exit_code, captured = self.run_cli(
            capsys, "replay", "--trace", str(path), "--policy", "late", "--policy", "late"
        )
        assert exit_code == 2
        assert "--policy names late more than once" in captured.err

    def test_metric_columns_blank_out_absent_bound_classes(self, tmp_path, capsys):
        path = self.fixture_path(tmp_path)
        exit_code, captured = self.run_cli(
            capsys, "replay", "--trace", str(path), "--policy", "late",
            "--scale", "quick", "--bound-kind", "deadline",
        )
        assert exit_code == 0
        row = next(
            line for line in captured.out.splitlines() if line.startswith("late")
        )
        # No error-bound jobs were replayed, so the duration column must show
        # "-" instead of a misleading 0.00.
        assert "| 0.00 |" not in row
        assert "-" in row.split("|")[3]


def test_trace_replay_figure_registered():
    assert "trace-replay" in FIGURES


class TestOsErrorMessage:
    """``replay`` names the path an ``OSError`` is about, in one line."""

    TRACE = "traces/bing_like.jsonl"

    @pytest.mark.parametrize(
        "error, trace, expected",
        [
            (
                FileNotFoundError(2, "No such file or directory", TRACE),
                TRACE,
                f"trace file not found: {TRACE}",
            ),
            (
                IsADirectoryError(21, "Is a directory", TRACE),
                TRACE,
                f"trace path is a directory, not a JSONL file: {TRACE}",
            ),
            (
                PermissionError(13, "Permission denied", TRACE),
                TRACE,
                f"cannot read trace {TRACE}: Permission denied",
            ),
            (
                FileExistsError(17, "File exists", "/spill/results"),
                TRACE,
                "cannot access /spill/results: File exists",
            ),
            (
                FileExistsError(17, "File exists", "/spill/results"),
                None,
                "cannot access /spill/results: File exists",
            ),
            (OSError("pipe closed"), TRACE, "replay failed: pipe closed"),
        ],
        ids=[
            "trace-missing",
            "trace-is-a-directory",
            "trace-unreadable",
            "other-path-with-trace",
            "other-path-without-trace",
            "no-path",
        ],
    )
    def test_names_the_path_the_error_is_about(self, error, trace, expected):
        assert _os_error_message(error, trace) == expected

    def test_relative_and_absolute_trace_paths_match(self, tmp_path, monkeypatch):
        # The pool may report the trace under its absolute path while the
        # plan holds the path as typed.
        monkeypatch.chdir(tmp_path)
        error = PermissionError(13, "Permission denied", str(tmp_path / "t.jsonl"))
        assert _os_error_message(error, "t.jsonl") == (
            "cannot read trace t.jsonl: Permission denied"
        )
