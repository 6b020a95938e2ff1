"""Wrong outputs fail the run; a checkout without the program is refused."""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import procs, replay_cold, run  # noqa: E402
from perfbench.settings import ReplaySettings  # noqa: E402


def test_corrupted_reference_digest_fails_every_replay(tmp_path):
    settings = ReplaySettings(jobs=40, setup_probes=1, min_processes=1)
    good = replay_cold.measure(2, 0.0, tmp_path, settings)
    assert good.failures == []
    bad = replay_cold.measure(2, 0.0, tmp_path, settings, reference="0" * 64)
    assert len(bad.failures) == bad.attempted >= 1
    assert "reference" in bad.failures[0]


def test_a_failed_operation_makes_the_command_exit_nonzero(monkeypatch, capsys):
    failing = procs.WorkloadResult(
        metrics={"setup_s": 0.1, "jobs_per_s": 1.0, "peak_rss_mb": 1.0, "done_p50_ms": 1.0,
                 "done_p90_ms": 1.0, "first_delta_p90_ms": 1.0},
        attempted=3,
        failures=["digest mismatch"],
    )
    monkeypatch.setattr(run, "run_workload", lambda *args: failing)
    args = argparse.Namespace(workload="figures", seed=1, seconds=1.0, trace=0)
    assert run.single(args, run.load_contract()) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1 and last["attempted"] == 3


def test_steadiness_finds_the_bound_of_a_prefixed_metric():
    # ``--workload all`` prefixes every metric with its workload.
    assert run.bare_name("replay-cold.jobs_per_s") == "jobs_per_s"
    assert run.bare_name("service-mixed.engine.events") == "engine.events"
    assert run.bare_name("engine.events") == "engine.events"


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert "{" not in completed.stdout
    assert not (tmp_path / ".perfbench").exists()
