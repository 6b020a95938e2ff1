"""Tests for the parallel experiment executor.

The load-bearing property is *determinism*: fanning (policy, seed) runs out
over worker processes must produce byte-identical per-run metrics to the
serial path, so ``--workers`` is purely a wall-clock knob and never a
correctness knob.
"""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro.baselines import NoSpeculationPolicy
from repro.experiments import runner
from repro.experiments.executor import (
    ParallelExecutor,
    RequestExecutionError,
    RunRequest,
    default_worker_count,
)
from repro.experiments.runner import (
    ExperimentScale,
    build_simulation_config,
    compare_policies,
)
from repro.experiments.warmup import WarmupCache, forget_memos
from repro.workload import synthetic
from repro.workload.synthetic import WorkloadConfig, generate_workload
from repro.workload.traces import TraceFormatError

TINY = ExperimentScale(
    num_jobs=8, size_scale=0.1, max_tasks_per_job=60, num_machines=40,
    seeds=(1, 2), warmup_jobs=4,
)


def _tiny_config(seed: int = 42) -> WorkloadConfig:
    return WorkloadConfig(
        num_jobs=TINY.num_jobs,
        size_scale=TINY.size_scale,
        max_tasks_per_job=TINY.max_tasks_per_job,
        seed=seed,
    )


def _tiny_workload(seed: int = 42):
    return generate_workload(_tiny_config(seed))


def _sim_config(seed: int):
    return build_simulation_config(_tiny_workload(), TINY, seed)


def _request(name: str, seed: int = 1, **fields) -> RunRequest:
    """A request over ``_tiny_config()``, the tests' measured workload."""
    return RunRequest(
        spec_source=_tiny_config(), config=_sim_config(seed), policy_name=name, **fields
    )


class _Stop(Exception):
    """Ends a comparison once its requests are built."""


class TestRunRequest:
    def test_requires_exactly_one_policy_source(self):
        # The registry name is the only policy source: required, and a
        # ready policy instance is not accepted.
        with pytest.raises(TypeError, match="policy_name"):
            RunRequest(spec_source=_tiny_config(), config=_sim_config(1))
        with pytest.raises(TypeError):
            RunRequest(
                spec_source=_tiny_config(),
                config=_sim_config(1),
                policy_name="late",
                policy=NoSpeculationPolicy(),
            )

    def test_execute_returns_metrics(self):
        metrics = _request("late").execute()
        assert len(metrics.results) == TINY.num_jobs

    def test_default_scale_figure_request_is_a_small_recipe(self, monkeypatch):
        """A figure cell's requests carry configs, never the workload's specs."""
        built = []

        class Capture:
            def __init__(self, workers):
                pass

            def run(self, requests):
                built.extend(requests)
                raise _Stop

        monkeypatch.setattr(runner, "ParallelExecutor", Capture)
        with pytest.raises(_Stop):
            compare_policies(
                ["late", "mantri", "grass"],
                WorkloadConfig(bound_kind="deadline", seed=5),
                scale=ExperimentScale(),
            )
        assert [request.policy_name for request in built] == ["grass", "late", "mantri"]
        assert isinstance(built[0].warm_state, WarmupCache)
        for request in built:
            assert len(pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)) < 2048


class TestParallelExecutor:
    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=-1)

    def test_zero_workers_auto_sizes(self):
        assert ParallelExecutor(workers=0).workers == default_worker_count()
        assert default_worker_count() >= 1

    def test_auto_size_follows_cpu_affinity(self, monkeypatch):
        """The CPUs this process may run on, not the host's, less one."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert default_worker_count() == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert default_worker_count() == 1
        # Platforms without an affinity mask count the host's CPUs.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert default_worker_count() == 63
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_worker_count() == 1

    def test_empty_batch(self):
        assert ParallelExecutor(workers=4).run([]) == []

    def test_single_request_batch_runs_in_process(self, monkeypatch):
        """A pool for one simulation costs more than the simulation."""
        request = _request("late")

        def refuse(*args, **kwargs):
            raise AssertionError("a one-request batch started a pool")

        expected = pickle.dumps(request.execute())
        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        [metrics] = ParallelExecutor(workers=4).run([request])
        assert pickle.dumps(metrics) == expected

    def test_results_come_back_in_request_order(self):
        requests = [_request(name, seed) for name in ("late", "no-spec") for seed in (1, 2)]
        serial = ParallelExecutor(workers=1).run(requests)
        parallel = ParallelExecutor(workers=4).run(requests)
        assert len(serial) == len(parallel) == 4
        for serial_metrics, parallel_metrics in zip(serial, parallel, strict=True):
            assert pickle.dumps(serial_metrics) == pickle.dumps(parallel_metrics)


class NoSpecs:
    """A spec source without jobs: the simulation's constructor raises."""

    def iter_specs(self):
        return iter(())

    def __str__(self):
        return "no-specs"


class TestWorkerErrorSurfacing:
    def _failing_request(self):
        # No jobs make Simulation's constructor raise inside the worker —
        # the cheapest deterministic failure available.
        return RunRequest(spec_source=NoSpecs(), config=_sim_config(1), policy_name="late")

    def test_worker_failure_names_the_request(self):
        with pytest.raises(RequestExecutionError) as excinfo:
            ParallelExecutor(workers=2).run([_request("late"), self._failing_request()])
        message = str(excinfo.value)
        assert "RunRequest(policy=late" in message
        assert "specs=no-specs" in message  # the failing request, not the good one
        assert "worker traceback" in message

    def test_run_stream_surfaces_worker_failures_too(self):
        with pytest.raises(RequestExecutionError, match="specs=no-specs"):
            list(
                ParallelExecutor(workers=2).run_stream(
                    iter([self._failing_request(), self._failing_request()])
                )
            )

    def test_request_repr_is_concise(self):
        request = _request("late", seed=3)
        assert repr(request) == f"RunRequest(policy=late, specs={_tiny_config()}, seed=3, warm=none)"
        warmed = _request("grass", warm_state=_warmup_cache())
        assert repr(warmed).endswith("seed=1, warm=cache)")


def _named_requests(count: int = 6):
    return [
        _request(name, seed)
        for name in ("late", "no-spec", "gs")
        for seed in range(1, 1 + count // 3)
    ]


class TestRunStream:
    def test_stream_matches_batch_bytes_for_any_workers(self):
        requests = _named_requests()
        batch = ParallelExecutor(workers=1).run(requests)
        for workers in (1, 4):
            streamed = list(
                ParallelExecutor(workers=workers).run_stream(iter(requests))
            )
            assert len(streamed) == len(batch)
            for stream_metrics, batch_metrics in zip(streamed, batch, strict=True):
                assert pickle.dumps(stream_metrics) == pickle.dumps(batch_metrics)

    def test_stream_bounds_materialised_requests(self):
        """The request generator is never pulled past the in-flight window."""
        requests = _named_requests()
        pulled = []

        def generator():
            for index, request in enumerate(requests):
                pulled.append(index)
                yield request

        executor = ParallelExecutor(workers=2)
        merged = 0
        for _ in executor.run_stream(generator(), max_in_flight=2):
            # At most window requests may be ahead of the merge point.
            assert len(pulled) <= merged + 2 + 1
            merged += 1
        assert merged == len(requests)

    def test_stream_empty_iterator(self):
        assert list(ParallelExecutor(workers=4).run_stream(iter([]))) == []

    def test_stream_rejects_bad_window(self):
        # Checked before a path is chosen: the serial path rejects it too.
        for workers in (1, 2):
            with pytest.raises(ValueError):
                list(
                    ParallelExecutor(workers=workers).run_stream(
                        iter(_named_requests()), max_in_flight=0
                    )
                )


class TestEntryPointsAreIndependent:
    @pytest.mark.parametrize("entry, other", [("run", "run_stream"), ("run_stream", "run")])
    def test_entry_point_never_calls_the_other(self, entry, other, monkeypatch):
        """Both share a private loop, so a wrapper on either counts each request once."""
        expected = [r.execute() for r in _warmed_batch(("grass",), (1, 2))]

        def refuse(*args, **kwargs):
            raise AssertionError(f"{entry} called {other}")

        monkeypatch.setattr(ParallelExecutor, other, refuse)
        batch = _warmed_batch(("grass",), (1, 2))
        call = getattr(ParallelExecutor(workers=2), entry)
        got = _within(120, lambda: list(call(iter(batch))))
        assert [pickle.dumps(m) for m in got] == [pickle.dumps(m) for m in expected]


class KillOwnWorker:
    """A spec source whose first read SIGKILLs the process reading it."""

    def iter_specs(self):
        os.kill(os.getpid(), signal.SIGKILL)
        return iter(())

    def __str__(self):
        return "kill-own-worker"


class RecordsPid:
    """A spec source that logs the pid of each process reading it."""

    def __init__(self, log, specs):
        self.log = log
        self.specs = specs

    def iter_specs(self):
        with open(self.log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return iter(self.specs)

    def __str__(self):
        return "records-pid"


class MalformedRows:
    """A spec source that fails the way a trace edited after its scan does."""

    def iter_specs(self):
        raise TraceFormatError("trace.jsonl:3: invalid JSON")


def _within(seconds, func):
    """``func()`` run on a daemon thread: its result, or a failed test."""
    outcome = {}

    def run():
        try:
            outcome["value"] = func()
        except BaseException as exc:  # handed back to the test thread
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        pytest.fail(f"no result within {seconds}s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def spawn_pool(workers):
    """The replay service's kind of pool: persistent, spawn-context."""
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn")
    )


@pytest.fixture(scope="class")
def pool():
    pool = spawn_pool(2)
    yield pool
    pool.shutdown(wait=True, cancel_futures=True)


class TestPersistentPool:
    def _request(self, spec_source):
        return RunRequest(spec_source=spec_source, config=_sim_config(1), policy_name="late")

    def test_pool_stream_matches_serial_bytes(self, pool):
        requests = _named_requests()
        serial = ParallelExecutor(workers=1).run(requests)
        streamed = _within(
            60, lambda: list(ParallelExecutor(workers=1, pool=pool).run_stream(requests))
        )
        for serial_metrics, stream_metrics in zip(serial, streamed, strict=True):
            assert pickle.dumps(serial_metrics) == pickle.dumps(stream_metrics)

    def test_run_submits_to_the_pool(self, pool, tmp_path):
        log = tmp_path / "pids.log"
        request = self._request(RecordsPid(str(log), _tiny_workload().job_specs))
        [pooled] = _within(60, lambda: ParallelExecutor(workers=1, pool=pool).run([request]))
        readers = log.read_text(encoding="utf-8").split()
        assert len(readers) == 1 and readers[0] != str(os.getpid())
        assert pickle.dumps(pooled) == pickle.dumps(request.execute())

    @pytest.mark.parametrize("persistent", [True, False], ids=["pool", "per-call"])
    def test_worker_input_errors_keep_their_type(self, pool, persistent):
        executor = (
            ParallelExecutor(workers=1, pool=pool)
            if persistent
            else ParallelExecutor(workers=2)
        )
        stream = executor.run_stream([self._request(MalformedRows())] * 2)
        with pytest.raises(TraceFormatError, match="trace.jsonl:3"):
            _within(60, lambda: list(stream))

    def test_dead_worker_raises_naming_the_request(self):
        pool = spawn_pool(1)
        try:
            stream = ParallelExecutor(workers=1, pool=pool).run_stream(
                [self._request(KillOwnWorker())]
            )
            with pytest.raises(RequestExecutionError) as excinfo:
                _within(60, lambda: list(stream))
            assert "worker process died" in str(excinfo.value)
            assert "RunRequest(policy=late, specs=kill-own-worker, seed=1" in str(
                excinfo.value
            )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


def _warmup_cache(seed: int = 5) -> WarmupCache:
    """A warm-up recipe on a tiny workload distinct from ``_tiny_config()``."""
    return WarmupCache(_tiny_config(seed), _sim_config(9))


def _warmed_batch(learners, seeds):
    """Learning requests warmed from one recipe among the other request kinds.

    A stateless request leads, so the learning requests are not first in
    request order; a second stateless request and a GRASS request under run
    seed 1 with an equal recipe built on its own follow them.
    """
    recipe = _warmup_cache()
    return (
        [_request("late")]
        + [_request(name, seed, warm_state=recipe) for name in learners for seed in seeds]
        + [_request("no-spec"), _request("grass", warm_state=_warmup_cache())]
    )


CHAIN_CASES = pytest.mark.parametrize(
    "learners, seeds",
    [
        (("grass",), (1,)),
        (("grass",), (1, 2, 3)),
        (("grass", "grass-strawman"), (1, 2)),
    ],
    ids=["one-learner-1-seed", "one-learner-3-seeds", "two-learners-2-seeds"],
)


class TestWarmupsWhereRequestsRun:
    def test_serial_comparison_warms_each_learner_once(self, warmup_log):
        scale = replace(TINY, seeds=(1, 2, 3))
        compare_policies(
            ["late", "grass", "grass-strawman"], _tiny_config(), scale=scale, workers=1
        )
        warmups = warmup_log()
        assert Counter(name for name, _pid in warmups) == {"grass": 1, "grass-strawman": 1}
        assert {pid for _name, pid in warmups} == {str(os.getpid())}

    @CHAIN_CASES
    @pytest.mark.parametrize("workers", [2, 4])
    def test_pool_warms_once_per_worker(self, learners, seeds, workers, warmup_log):
        serial = ParallelExecutor(workers=1).run(_warmed_batch(learners, seeds))
        warmed_serially = len(warmup_log())
        # A comparison empties the memos before its pool forks; do the same,
        # so the workers inherit none of the serial run's snapshots.
        forget_memos()
        pooled = _within(
            120,
            lambda: ParallelExecutor(workers=workers).run(_warmed_batch(learners, seeds)),
        )
        assert [pickle.dumps(m) for m in pooled] == [pickle.dumps(m) for m in serial]
        # The GRASS run at seed 1 equals the one from an equal recipe built
        # on its own (the batch's last request).
        assert pickle.dumps(pooled[1]) == pickle.dumps(pooled[-1])
        warmups = [tuple(entry) for entry in warmup_log()[warmed_serially:]]
        # Every learner warms where its requests run: in a worker, and at
        # most once per worker.
        assert {name for name, _pid in warmups} == set(learners)
        assert max(Counter(warmups).values()) == 1
        assert str(os.getpid()) not in {pid for _name, pid in warmups}

    def test_measured_workload_is_generated_once_per_process(self, tmp_path, monkeypatch):
        """A pool forked after the parent generated a workload starts with it."""
        log = tmp_path / "generations.log"
        original = synthetic.generate_workload

        def logged(config):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{config.seed} {os.getpid()}\n")
            return original(config)

        monkeypatch.setattr(synthetic, "generate_workload", logged)
        scale = replace(TINY, seeds=(1, 2, 3))
        forget_memos()
        _within(
            120,
            lambda: compare_policies(["grass", "late"], _tiny_config(), scale=scale, workers=2),
        )
        generations = [tuple(line.split()) for line in log.read_text(encoding="utf-8").splitlines()]
        assert max(Counter(generations).values()) == 1
        measured = [pid for seed, pid in generations if int(seed) == _tiny_config().seed]
        assert measured[0] == str(os.getpid())
        if multiprocessing.get_start_method() == "fork":
            # The workers inherit the memo: only the parent generates it.
            assert measured == [str(os.getpid())]
        forget_memos()

    def test_warmup_failure_names_the_request(self, monkeypatch):
        def broken(policy_name, workload, config):
            raise ValueError("a broken warm-up")

        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr("repro.experiments.warmup.warm_policy_snapshot", broken)
        forget_memos()
        requests = [_request("late"), _request("grass", warm_state=_warmup_cache())]
        with pytest.raises(RequestExecutionError) as excinfo:
            _within(60, lambda: ParallelExecutor(workers=2).run(requests))
        message = str(excinfo.value)
        assert "RunRequest(policy=grass" in message
        assert "warm=cache" in message
        assert "a broken warm-up" in message


class TestCompareDeterminism:
    def test_workers_produce_byte_identical_runs(self):
        """compare_policies(workers=4) == compare_policies(workers=1), byte for byte.

        Each (policy, seed) run's MetricsCollector — per-job results included
        — must pickle to the same bytes whether it executed serially or in a
        worker process.
        """
        config = WorkloadConfig(bound_kind="mixed", seed=42)
        serial = compare_policies(["late", "gs"], config, scale=TINY, workers=1)
        parallel = compare_policies(["late", "gs"], config, scale=TINY, workers=4)
        assert set(serial.runs) == set(parallel.runs)
        for name in serial.runs:
            serial_run = serial.runs[name]
            parallel_run = parallel.runs[name]
            assert len(serial_run.metrics) == len(TINY.seeds)
            for ms, mp in zip(serial_run.metrics, parallel_run.metrics, strict=True):
                assert pickle.dumps(ms) == pickle.dumps(mp)
            assert serial_run.results == parallel_run.results

    def test_scale_workers_is_the_default(self):
        config = WorkloadConfig(bound_kind="error", seed=9)
        scaled = replace(TINY, workers=4)
        via_scale = compare_policies(["late"], config, scale=scaled)
        via_arg = compare_policies(["late"], config, scale=TINY, workers=4)
        serial = compare_policies(["late"], config, scale=TINY)
        assert via_scale.runs["late"].results == serial.runs["late"].results
        assert via_arg.runs["late"].results == serial.runs["late"].results


def test_cli_import_does_not_load_asyncio():
    """Only the service's ``AsyncBridge`` needs asyncio; it imports it lazily,
    so CLI processes and pool workers never pay for the import."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.experiments.cli; print('asyncio' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
