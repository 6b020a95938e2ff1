"""Tests for the streaming cluster-trace converter and the cluster tier.

Covers the ``grass-experiments ingest`` pipeline end to end: golden
conversions of the bundled 20-row Google and Alibaba samples, malformed-row
errors that name file and line, ``--limit-jobs``/``--window`` slicing,
round-trip replay digest stability of converted traces across worker counts,
and byte-stability of the generated ``cluster`` tier.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cli import main, metrics_digest
from repro.experiments.runner import ExperimentScale
from repro.simulator.sinks import parse_sink_spec
from repro.workload import (
    ClusterTierConfig,
    IngestStats,
    TraceFormatError,
    TraceJob,
    TraceReplayConfig,
    cluster_trace_job,
    ingest_trace,
    iter_cluster_trace,
    iter_ingested_trace,
    scan_trace,
)
from repro.workload.traces import iter_trace

from tests.conftest import replay_source

SAMPLES = Path(__file__).parents[1] / "traces" / "samples"
GOOGLE_SAMPLE = SAMPLES / "google_task_events.sample.csv"
ALIBABA_SAMPLE = SAMPLES / "alibaba_batch_task.sample.csv"

TINY = ExperimentScale.quick()


# ------------------------------------------------------------ golden outputs


class TestGoldenConversions:
    def test_google_sample_converts_exactly(self):
        stats = IngestStats()
        jobs = list(iter_ingested_trace("google", GOOGLE_SAMPLE, stats=stats))
        assert jobs == [
            TraceJob(job_id=0, arrival_time=0.0,
                     task_durations=[3.5, 6.0, 7.5]),
            TraceJob(job_id=1, arrival_time=1.0, task_durations=[7.0, 8.0]),
            TraceJob(job_id=2, arrival_time=3.0, task_durations=[7.0, 5.5]),
            TraceJob(job_id=3, arrival_time=14.0, task_durations=[1.0]),
        ]
        assert stats.rows_read == 20
        assert stats.rows_skipped == 2       # SUBMIT + UPDATE_RUNNING rows
        assert stats.tasks_unfinished == 1   # one EVICT before the re-run
        assert stats.jobs_emitted == 4
        assert stats.tasks_emitted == 8

    def test_alibaba_sample_converts_exactly(self):
        stats = IngestStats()
        jobs = list(iter_ingested_trace("alibaba", ALIBABA_SAMPLE, stats=stats))
        assert [job.job_id for job in jobs] == [0, 1, 2, 3, 4, 5]
        assert [job.arrival_time for job in jobs] == [
            0.0, 10.0, 25.0, 100.0, 200.0, 300.0,
        ]
        # instance_num multiplies the duration rows: j_4011's 3-instance M1
        # becomes three 50 s tasks.
        assert jobs[1].task_durations == [50.0, 50.0, 50.0, 45.0, 45.0]
        assert stats.rows_read == 20
        # Failed, Waiting, zero-duration and zero-instance rows all skip.
        assert stats.rows_skipped == 4
        assert stats.jobs_emitted == 6
        assert stats.tasks_emitted == 28

    def test_ingest_trace_writes_replayable_jsonl(self, tmp_path):
        out = tmp_path / "google.jsonl"
        stats = ingest_trace("google", GOOGLE_SAMPLE, out)
        assert stats.jobs_emitted == 4
        trace = list(iter_trace(out))
        assert [job.job_id for job in trace] == [0, 1, 2, 3]

    def test_empty_conversion_fails_and_removes_output(self, tmp_path):
        source = tmp_path / "empty.csv"
        source.write_text("")
        out = tmp_path / "empty.jsonl"
        with pytest.raises(ValueError, match="no replayable jobs"):
            ingest_trace("google", source, out)
        assert not out.exists()


# --------------------------------------------------------- malformed sources


class TestMalformedSources:
    def test_google_unsorted_rows_name_file_and_line(self, tmp_path):
        source = tmp_path / "unsorted.csv"
        source.write_text(
            "2000000,0,1,0,m,1,u,0,0,0,0,0,0\n"
            "1000000,0,1,0,m,4,u,0,0,0,0,0,0\n"
        )
        with pytest.raises(TraceFormatError, match=r"unsorted\.csv:2: "):
            list(iter_ingested_trace("google", source))

    def test_google_bad_number_names_file_and_line(self, tmp_path):
        source = tmp_path / "bad.csv"
        source.write_text("xyz,0,1,0,m,1,u,0,0,0,0,0,0\n")
        with pytest.raises(TraceFormatError, match=r"bad\.csv:1: "):
            list(iter_ingested_trace("google", source))

    def test_google_short_row_names_file_and_line(self, tmp_path):
        source = tmp_path / "short.csv"
        source.write_text("1000000,0,1\n")
        with pytest.raises(TraceFormatError, match=r"short\.csv:1: "):
            list(iter_ingested_trace("google", source))

    def test_alibaba_unsorted_rows_name_file_and_line(self, tmp_path):
        source = tmp_path / "unsorted.csv"
        source.write_text(
            "t1,1,j_1,m,Terminated,200,230,0,0\n"
            "t2,1,j_2,m,Terminated,100,130,0,0\n"
        )
        with pytest.raises(TraceFormatError, match=r"unsorted\.csv:2: "):
            list(iter_ingested_trace("alibaba", source))

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown ingest format"):
            list(iter_ingested_trace("borg", GOOGLE_SAMPLE))


# ------------------------------------------------------------------- slicing


class TestSlicing:
    def test_limit_jobs_truncates_in_arrival_order(self):
        jobs = list(iter_ingested_trace("google", GOOGLE_SAMPLE, limit_jobs=2))
        assert [job.job_id for job in jobs] == [0, 1]
        assert jobs[0].arrival_time == 0.0

    def test_window_selects_rebased_arrival_range(self):
        # Rebased google arrivals are 0.0, 1.0, 3.0, 14.0.
        jobs = list(
            iter_ingested_trace("google", GOOGLE_SAMPLE, window=(1.0, 14.0))
        )
        assert [job.arrival_time for job in jobs] == [1.0, 3.0]
        # Renumbering happens after the window filter: ids stay dense.
        assert [job.job_id for job in jobs] == [0, 1]

    def test_window_and_limit_compose(self):
        jobs = list(
            iter_ingested_trace(
                "google", GOOGLE_SAMPLE, window=(0.0, 100.0), limit_jobs=3
            )
        )
        assert [job.job_id for job in jobs] == [0, 1, 2]


# ---------------------------------------------------------------- round trip


class TestRoundTripReplay:
    @pytest.mark.parametrize(
        "source_format, sample",
        [("google", GOOGLE_SAMPLE), ("alibaba", ALIBABA_SAMPLE)],
    )
    def test_converted_sample_digest_stable_across_workers(
        self, source_format, sample, tmp_path
    ):
        out = tmp_path / "converted.jsonl"
        ingest_trace(source_format, sample, out)
        replay_config = TraceReplayConfig(seed=0)
        in_memory = replay_source(
            ["late"], list(iter_trace(out)), TINY, config=replay_config
        )
        streamed = replay_source(
            ["late"], str(out), replace(TINY, workers=4), config=replay_config,
            sink=parse_sink_spec("aggregate"),
        )
        assert metrics_digest(in_memory) == metrics_digest(streamed)


# ------------------------------------------------------------- cluster tier


class TestClusterTier:
    def test_tier_validation(self):
        with pytest.raises(ValueError):
            ClusterTierConfig(num_jobs=0)

    def test_arrivals_strictly_increase(self):
        tier = ClusterTierConfig(num_jobs=200, seed=3)
        arrivals = [job.arrival_time for job in iter_cluster_trace(tier)]
        assert all(a < b for a, b in zip(arrivals, arrivals[1:], strict=False))

    def test_random_access_matches_iteration(self):
        tier = ClusterTierConfig(num_jobs=50, seed=7)
        streamed = list(iter_cluster_trace(tier))
        assert streamed == [cluster_trace_job(tier, i) for i in range(50)]
        window = list(iter_cluster_trace(tier, start=10, stop=20))
        assert window == streamed[10:20]

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        num_jobs=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=25, deadline=None)
    def test_generator_is_byte_stable_across_iterations(self, seed, num_jobs):
        tier = ClusterTierConfig(num_jobs=num_jobs, seed=seed)
        first = list(iter_cluster_trace(tier))
        second = list(iter_cluster_trace(tier))
        assert first == second
        # Byte-for-byte, not merely equal: the digest hashes the encoding.
        encode = lambda job: (
            job.job_id, job.arrival_time.hex(),
            [d.hex() for d in job.task_durations],
        )
        assert [encode(j) for j in first] == [encode(j) for j in second]

    def test_batch_and_stream_specs_digests_match(self):
        """The regenerated tier == the same jobs materialised into a list."""
        tier = ClusterTierConfig(num_jobs=120, seed=0)
        replay_config = TraceReplayConfig(seed=0)
        in_memory = replay_source(
            ["late"], list(iter_cluster_trace(tier)), TINY, shards=3,
            config=replay_config,
        )
        streamed = replay_source(
            ["late"], tier, replace(TINY, workers=2), shards=3,
            config=replay_config, sink=parse_sink_spec("aggregate"),
        )
        assert metrics_digest(in_memory) == metrics_digest(streamed)
        assert streamed.workload.config.num_jobs == 120
        peak = max(m.peak_resident_jobs for m in streamed.runs["late"].metrics)
        assert 1 <= peak < 120


# ----------------------------------------------------- duplicate-id guarding


class TestDuplicateIdGuard:
    def duplicate_trace(self, tmp_path):
        path = tmp_path / "dupes.jsonl"
        trace = [
            TraceJob(job_id=1, arrival_time=0.0, task_durations=[1.0]),
            TraceJob(job_id=1, arrival_time=2.0, task_durations=[2.0]),
        ]
        # save_trace validates too, so write the rows directly.
        path.write_text(
            "\n".join(
                '{"job_id": 1, "arrival_time": %.1f, "task_durations": [1.0]}'
                % job.arrival_time
                for job in trace
            )
            + "\n"
        )
        return path

    def test_scan_trace_rejects_duplicate_ids(self, tmp_path):
        path = self.duplicate_trace(tmp_path)
        with pytest.raises(TraceFormatError, match="duplicate job_id 1"):
            scan_trace(path)

    @pytest.mark.parametrize("flag", ["--stream", "--stream-specs"])
    def test_streaming_cli_rejects_duplicate_ids(self, tmp_path, capsys, flag):
        path = self.duplicate_trace(tmp_path)
        exit_code = main([
            "replay", "--trace", str(path), "--policy", "late",
            "--scale", "quick", flag,
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "duplicate job_id 1" in captured.err


# ----------------------------------------------------------------------- CLI


class TestIngestCli:
    def run_cli(self, capsys, *argv):
        exit_code = main(list(argv))
        return exit_code, capsys.readouterr()

    def test_ingest_verb_converts_and_reports(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        exit_code, captured = self.run_cli(
            capsys, "ingest", "--format", "google",
            "--input", str(GOOGLE_SAMPLE), "--output", str(out),
        )
        assert exit_code == 0
        assert "jobs emitted" in captured.out
        assert out.exists()

    def test_missing_input_is_a_usage_error(self, tmp_path, capsys):
        exit_code, captured = self.run_cli(
            capsys, "ingest", "--format", "google",
            "--input", str(tmp_path / "missing.csv"),
            "--output", str(tmp_path / "out.jsonl"),
        )
        assert exit_code == 2
        assert "not found" in captured.err

    def test_malformed_input_reports_file_and_line(self, tmp_path, capsys):
        source = tmp_path / "bad.csv"
        source.write_text("not,a,google,row\n")
        exit_code, captured = self.run_cli(
            capsys, "ingest", "--format", "google",
            "--input", str(source), "--output", str(tmp_path / "out.jsonl"),
        )
        assert exit_code == 2
        assert "bad.csv:1" in captured.err

    def test_bad_window_is_a_usage_error(self, tmp_path, capsys):
        exit_code, captured = self.run_cli(
            capsys, "ingest", "--format", "google",
            "--input", str(GOOGLE_SAMPLE),
            "--output", str(tmp_path / "out.jsonl"),
            "--window", "5", "5",
        )
        assert exit_code == 2

    def test_cluster_jobs_and_trace_are_exclusive(self, capsys):
        exit_code, captured = self.run_cli(
            capsys, "replay", "--trace", "x.jsonl", "--cluster-jobs", "10",
        )
        assert exit_code == 2
        assert "exactly one" in captured.err
