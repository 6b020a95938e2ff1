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
from pathlib import Path

import pytest

from repro.baselines import NoSpeculationPolicy
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
from repro.experiments.warmup import WarmupCache, warm_policy_snapshot
from repro.workload.synthetic import GeneratedWorkload, WorkloadConfig, generate_workload
from repro.workload.traces import TraceFormatError

TINY = ExperimentScale(
    num_jobs=8, size_scale=0.1, max_tasks_per_job=60, num_machines=40,
    seeds=(1, 2), warmup_jobs=4,
)


def _tiny_workload(seed: int = 42):
    return generate_workload(
        WorkloadConfig(
            num_jobs=TINY.num_jobs,
            size_scale=TINY.size_scale,
            max_tasks_per_job=TINY.max_tasks_per_job,
            seed=seed,
        )
    )


class TestRunRequest:
    def test_requires_exactly_one_policy_source(self):
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1)
        with pytest.raises(ValueError):
            RunRequest(workload=workload, config=config)
        with pytest.raises(ValueError):
            RunRequest(
                workload=workload,
                config=config,
                policy_name="late",
                policy=NoSpeculationPolicy(),
            )

    def test_instance_requests_are_not_parallel_safe(self):
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1)
        named = RunRequest(workload=workload, config=config, policy_name="late")
        pinned = RunRequest(workload=workload, config=config, policy=NoSpeculationPolicy())
        assert named.parallel_safe
        assert not pinned.parallel_safe

    def test_execute_returns_metrics(self):
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1)
        metrics = RunRequest(workload=workload, config=config, policy_name="late").execute()
        assert len(metrics.results) == TINY.num_jobs


class TestParallelExecutor:
    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=-1)

    def test_zero_workers_auto_sizes(self):
        assert ParallelExecutor(workers=0).workers == default_worker_count()
        assert default_worker_count() >= 1

    def test_empty_batch(self):
        assert ParallelExecutor(workers=4).run([]) == []

    def test_mixed_batch_runs_pinned_requests_in_process(self):
        # A batch mixing named (parallel-safe) and instance (pinned)
        # requests must still return everything, in order, with the same
        # bytes as the fully serial path.
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1)
        requests = [
            RunRequest(workload=workload, config=config, policy_name="late"),
            RunRequest(workload=workload, config=config, policy=NoSpeculationPolicy()),
            RunRequest(workload=workload, config=config, policy_name="no-spec"),
        ]
        serial = ParallelExecutor(workers=1).run(requests)
        mixed = ParallelExecutor(workers=4).run(requests)
        assert len(mixed) == 3
        for serial_metrics, mixed_metrics in zip(serial, mixed, strict=True):
            assert pickle.dumps(serial_metrics) == pickle.dumps(mixed_metrics)

    def test_results_come_back_in_request_order(self):
        workload = _tiny_workload()
        requests = [
            RunRequest(
                workload=workload,
                config=build_simulation_config(workload, TINY, seed),
                policy_name=name,
            )
            for name in ("late", "no-spec")
            for seed in (1, 2)
        ]
        serial = ParallelExecutor(workers=1).run(requests)
        parallel = ParallelExecutor(workers=4).run(requests)
        assert len(serial) == len(parallel) == 4
        for serial_metrics, parallel_metrics in zip(serial, parallel, strict=True):
            assert pickle.dumps(serial_metrics) == pickle.dumps(parallel_metrics)


class TestSingleSafeRequestFallback:
    def test_single_safe_request_in_mixed_batch_runs_in_process(self):
        """One parallel-safe request among pinned ones stays in-process.

        Deliberate: forking a pool for a single simulation costs more than
        the simulation.  The batch must still return correct, ordered
        results identical to the serial path.
        """
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1)
        requests = [
            RunRequest(workload=workload, config=config, policy=NoSpeculationPolicy()),
            RunRequest(workload=workload, config=config, policy_name="late"),
        ]
        serial = ParallelExecutor(workers=1).run(requests)
        mixed = ParallelExecutor(workers=4).run(requests)
        assert len(mixed) == 2
        for serial_metrics, mixed_metrics in zip(serial, mixed, strict=True):
            assert pickle.dumps(serial_metrics) == pickle.dumps(mixed_metrics)


class TestWorkerErrorSurfacing:
    def _failing_request(self):
        # An empty workload makes Simulation's constructor raise inside the
        # worker — the cheapest deterministic failure available.
        from repro.workload.synthetic import GeneratedWorkload, WorkloadConfig

        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1)
        empty = GeneratedWorkload(config=WorkloadConfig())
        return RunRequest(workload=empty, config=config, policy_name="late")

    def test_worker_failure_names_the_request(self):
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1)
        good = RunRequest(workload=workload, config=config, policy_name="late")
        with pytest.raises(RequestExecutionError) as excinfo:
            ParallelExecutor(workers=2).run([good, self._failing_request()])
        message = str(excinfo.value)
        assert "RunRequest(policy=late" in message
        assert "jobs=0" in message  # the failing request, not the good one
        assert "worker traceback" in message

    def test_run_stream_surfaces_worker_failures_too(self):
        with pytest.raises(RequestExecutionError, match="jobs=0"):
            list(
                ParallelExecutor(workers=2).run_stream(
                    iter([self._failing_request(), self._failing_request()])
                )
            )

    def test_request_repr_is_concise(self):
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=3)
        request = RunRequest(workload=workload, config=config, policy_name="late")
        text = repr(request)
        assert text == f"RunRequest(policy=late, jobs={len(workload.job_specs)}, seed=3, warm=none)"


def _named_requests(count: int = 6):
    workload = _tiny_workload()
    return [
        RunRequest(
            workload=workload,
            config=build_simulation_config(workload, TINY, seed),
            policy_name=name,
        )
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

    def test_stream_handles_pinned_requests_in_order(self):
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1)
        requests = [
            RunRequest(workload=workload, config=config, policy_name="late"),
            RunRequest(workload=workload, config=config, policy=NoSpeculationPolicy()),
            RunRequest(workload=workload, config=config, policy_name="no-spec"),
        ]
        serial = ParallelExecutor(workers=1).run(requests)
        streamed = list(ParallelExecutor(workers=4).run_stream(iter(requests)))
        for serial_metrics, stream_metrics in zip(serial, streamed, strict=True):
            assert pickle.dumps(serial_metrics) == pickle.dumps(stream_metrics)

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
        expected = [r.execute() for r in _chained_batch(_warmup_cache(), ("grass",), (1, 2))]

        def refuse(*args, **kwargs):
            raise AssertionError(f"{entry} called {other}")

        monkeypatch.setattr(ParallelExecutor, other, refuse)
        batch = _chained_batch(_warmup_cache(), ("grass",), (1, 2))
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
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1)
        return RunRequest(spec_source=spec_source, config=config, policy_name="late")

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


def _warmup_cache(warmup=None):
    """A cache warming on a tiny workload distinct from ``_tiny_workload()``."""
    warmup = warmup if warmup is not None else _tiny_workload(seed=5)
    config = build_simulation_config(warmup, TINY, seed=9)
    return WarmupCache(warmup, config)


def _chained_batch(cache, learners, seeds):
    """Learning requests warmed from ``cache`` among the other request kinds.

    A stateless named request leads, so the chain heads are not first in
    request order; a pinned instance request and a GRASS request under run
    seed 1 with its own cache of the same warm-up follow the learning
    requests.
    """
    workload = _tiny_workload()
    config = build_simulation_config(workload, TINY, seed=1)
    return (
        [RunRequest(workload=workload, config=config, policy_name="late")]
        + [
            RunRequest(
                workload=workload,
                config=build_simulation_config(workload, TINY, seed),
                policy_name=name,
                warm_state=cache,
            )
            for name in learners
            for seed in seeds
        ]
        + [
            RunRequest(workload=workload, config=config, policy=NoSpeculationPolicy()),
            RunRequest(
                workload=workload,
                config=config,
                policy_name="grass",
                warm_state=WarmupCache(cache.warmup, cache.warmup_config),
            ),
        ]
    )


@pytest.fixture
def warmup_log(tmp_path, monkeypatch):
    """Logs every warm-up as ``(policy, pid)``; returns the log's reader.

    Patched before any pool forks, so the workers inherit the wrapper.
    """
    log = tmp_path / "warmups.log"

    def logged(policy_name, warmup, warmup_config):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{policy_name} {os.getpid()}\n")
        return warm_policy_snapshot(policy_name, warmup, warmup_config)

    monkeypatch.setattr("repro.experiments.warmup.warm_policy_snapshot", logged)
    log.touch()
    return lambda: [line.split() for line in log.read_text(encoding="utf-8").splitlines()]


CHAIN_CASES = pytest.mark.parametrize(
    "learners, seeds",
    [
        (("grass",), (1,)),
        (("grass",), (1, 2, 3)),
        (("grass", "grass-strawman"), (1, 2)),
    ],
    ids=["one-learner-1-seed", "one-learner-3-seeds", "two-learners-2-seeds"],
)


class TestChainedWarmups:
    @CHAIN_CASES
    def test_pool_matches_serial_bytes(self, learners, seeds):
        serial = ParallelExecutor(workers=1).run(
            _chained_batch(_warmup_cache(), learners, seeds)
        )
        pooled = _within(
            120,
            lambda: ParallelExecutor(workers=4).run(
                _chained_batch(_warmup_cache(), learners, seeds)
            ),
        )
        assert [pickle.dumps(m) for m in pooled] == [pickle.dumps(m) for m in serial]
        # The shared cache's GRASS run at seed 1 equals the one restored
        # from its own cache (the batch's last request).
        assert pickle.dumps(pooled[1]) == pickle.dumps(pooled[-1])

    @CHAIN_CASES
    @pytest.mark.parametrize("workers", [2, 4])
    def test_stream_holds_chains(self, learners, seeds, workers, warmup_log):
        serial = ParallelExecutor(workers=1).run(
            _chained_batch(_warmup_cache(), learners, seeds)
        )
        warmed_serially = len(warmup_log())
        cache = _warmup_cache()
        requests = _chained_batch(cache, learners, seeds)
        streamed = _within(
            120,
            lambda: list(
                ParallelExecutor(workers=workers).run_stream(iter(requests), max_in_flight=2)
            ),
        )
        assert [pickle.dumps(m) for m in streamed] == [pickle.dumps(m) for m in serial]
        warmups = warmup_log()[warmed_serially:]
        # One warm-up per (cache, policy) pair: each learner on the shared
        # cache, and GRASS on the last request's own cache.
        assert Counter(name for name, _pid in warmups) == Counter(learners + ("grass",))
        assert str(os.getpid()) not in {pid for _name, pid in warmups}
        # The batch path's counts: a miss per learner, a hit per later seed.
        assert (cache.misses, cache.hits) == (len(learners), len(learners) * (len(seeds) - 1))

    def test_each_pair_warms_once_per_batch(self, warmup_log):
        shared, other = _warmup_cache(), _warmup_cache(_tiny_workload(seed=7))
        requests = _chained_batch(shared, ("grass", "grass-strawman"), (1, 2, 3))[:-1]
        requests += _chained_batch(other, ("grass",), (1, 2))[:-1]
        _within(120, lambda: ParallelExecutor(workers=4).run(requests))
        warmups = warmup_log()
        assert Counter(name for name, _pid in warmups) == {"grass": 2, "grass-strawman": 1}
        # Every warm-up ran in a pool worker, chained with its first run.
        assert str(os.getpid()) not in {pid for _name, pid in warmups}
        assert (shared.misses, shared.hits) == (2, 4)
        assert (other.misses, other.hits) == (1, 1)

    def test_warmup_failure_names_the_request(self):
        broken = _warmup_cache(GeneratedWorkload(config=WorkloadConfig()))
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1)
        requests = [
            RunRequest(workload=workload, config=config, policy_name="late"),
            RunRequest(
                workload=workload, config=config, policy_name="grass", warm_state=broken
            ),
        ]
        with pytest.raises(RequestExecutionError) as excinfo:
            _within(60, lambda: ParallelExecutor(workers=2).run(requests))
        message = str(excinfo.value)
        assert "RunRequest(policy=grass" in message
        assert "warm=cache" in message
        assert "at least one job" in message


class TestWarmFieldValidation:
    def test_cache_needs_a_named_policy(self):
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1)
        with pytest.raises(ValueError, match="policy_name"):
            RunRequest(
                workload=workload,
                config=config,
                policy=NoSpeculationPolicy(),
                warm_state=_warmup_cache(),
            )

    def test_repr_names_a_cache(self):
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1)
        request = RunRequest(
            workload=workload, config=config, policy_name="grass", warm_state=_warmup_cache()
        )
        assert repr(request).endswith("seed=1, warm=cache)")


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
        from dataclasses import replace

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
