"""Tests for streaming job-spec ingestion and finished-job eviction.

The load-bearing properties:

* **Lazy == materialised** — feeding the engine an arrival-ordered spec
  *iterator* produces byte-identical metrics to handing it the full list,
  for arbitrary arrival orders; a lazily windowed trace replayed into an
  aggregate sink prints the digest of the same jobs replayed from memory
  into a retaining sink, for any shard split and worker count.
* **Eviction** — ``_finish_job`` drops the job's ``Job``, estimator and
  spec the moment its result is recorded, so resident state tracks
  *concurrency*, never trace length; the per-job object graph is acyclic,
  so that drop frees the job by reference counting, without the cyclic
  collector.
* **Small requests** — a shard's spec source carries its window, not the
  source's jobs: a file or tier shard pickles to the same size whatever
  the source's job count, and an in-memory shard holds only its own jobs.
* **Error paths** — warm-up seed collisions fail loudly with actionable
  messages instead of biased results.
"""

import gc
import pickle
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import NoSpeculationPolicy
from repro.core import job as job_module
from repro.core.bounds import ApproximationBound
from repro.core.task import Task
from repro.experiments.cli import metrics_digest
from repro.experiments.executor import RunRequest
from repro.experiments.plan import ReplayPlan
from repro.experiments.policies import available_policies, make_policy
from repro.experiments.runner import (
    WARMUP_SEED_OFFSET,
    ExperimentScale,
    _scan_source,
    _shard_sources,
    compare_policies,
    execute,
)
from repro.experiments.warmup import WarmupCache, check_warmup_seed_collision
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.stragglers import StragglerConfig
from repro.workload.synthetic import WorkloadConfig, generate_workload
from repro.simulator.sinks import SinkFactory
from repro.workload.trace_replay import (
    ClusterTierConfig,
    ShardSpecSource,
    TraceReplayConfig,
    iter_cluster_trace,
    iter_job_specs,
    slice_trace,
    synthesize_trace,
)
from repro.workload.traces import TraceScan, save_trace, scan_trace

from tests.conftest import make_job_spec, make_simulation_config, replay_source

TINY = ExperimentScale(
    num_jobs=8, size_scale=0.1, max_tasks_per_job=60, num_machines=40,
    seeds=(1,), warmup_jobs=0,
)


def small_trace(num_jobs: int = 15, seed: int = 9):
    return synthesize_trace(
        num_jobs=num_jobs, size_scale=0.1, max_tasks_per_job=60, seed=seed
    )


def sorted_specs(specs):
    return sorted(specs, key=lambda spec: (spec.arrival_time, spec.job_id))


ROOT = Path(__file__).resolve().parents[1]


def unreachable_repro_objects(run) -> Counter:
    """Run ``run()`` with the cyclic collector off; count, by type, the
    ``repro`` objects it left that only the collector could free."""
    enabled = gc.isenabled()
    debug = gc.get_debug()
    gc.collect()
    start = len(gc.garbage)
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return Counter(
            type(obj).__qualname__
            for obj in gc.garbage[start:]
            if type(obj).__module__.startswith("repro.")
        )
    finally:
        gc.set_debug(debug)
        del gc.garbage[start:]
        if enabled:
            gc.enable()


class TestLazyIngestion:
    def test_generator_matches_list_byte_for_byte(self):
        workload = generate_workload(
            WorkloadConfig(num_jobs=25, seed=4, size_scale=0.15, max_tasks_per_job=80)
        )
        config = make_simulation_config(machines=30, stragglers=StragglerConfig(), seed=2)
        eager = Simulation(config, NoSpeculationPolicy(), workload.specs()).run()
        lazy = Simulation(
            config, NoSpeculationPolicy(), iter(sorted_specs(workload.specs()))
        ).run()
        assert pickle.dumps(eager) == pickle.dumps(lazy)

    def test_empty_iterator_rejected(self):
        with pytest.raises(ValueError, match="at least one job"):
            Simulation(make_simulation_config(), NoSpeculationPolicy(), iter([]))

    def test_unsorted_iterator_rejected(self):
        specs = [
            make_job_spec([1.0], ApproximationBound.exact(), job_id=0, arrival=5.0),
            make_job_spec([1.0], ApproximationBound.exact(), job_id=1, arrival=1.0),
        ]
        simulation = Simulation(make_simulation_config(), NoSpeculationPolicy(), iter(specs))
        with pytest.raises(ValueError, match="sorted by"):
            simulation.run()

    def test_duplicate_id_at_same_arrival_rejected(self):
        specs = [
            make_job_spec([1.0], ApproximationBound.exact(), job_id=0, arrival=0.0),
            make_job_spec([1.0], ApproximationBound.exact(), job_id=0, arrival=0.0),
        ]
        simulation = Simulation(make_simulation_config(), NoSpeculationPolicy(), iter(specs))
        with pytest.raises(ValueError):
            simulation.run()

    def test_duplicate_id_after_first_finished_rejected(self):
        # The first id-0 job finishes (and is evicted) long before the
        # duplicate arrives; the lazy path must still reject it, exactly as
        # the materialised path's up-front validation would.
        specs = [
            make_job_spec([1.0], ApproximationBound.exact(), job_id=0, arrival=0.0),
            make_job_spec([1.0], ApproximationBound.exact(), job_id=1, arrival=50.0),
            make_job_spec([1.0], ApproximationBound.exact(), job_id=0, arrival=100.0),
        ]
        simulation = Simulation(make_simulation_config(), NoSpeculationPolicy(), iter(specs))
        with pytest.raises(ValueError, match="unique"):
            simulation.run()


    def test_duplicate_ids_in_a_list_rejected_as_consumed(self):
        # A list takes the iterator's ingestion path: sorted, then checked
        # spec by spec as the run consumes it.
        specs = [
            make_job_spec([1.0], ApproximationBound.exact(), job_id=0, arrival=100.0),
            make_job_spec([1.0], ApproximationBound.exact(), job_id=1, arrival=50.0),
            make_job_spec([1.0], ApproximationBound.exact(), job_id=0, arrival=0.0),
        ]
        simulation = Simulation(make_simulation_config(), NoSpeculationPolicy(), specs)
        with pytest.raises(ValueError, match="unique"):
            simulation.run()


class TestFinishedJobEviction:
    def test_500_jobs_leave_no_resident_state(self):
        # 500 sequential one-task jobs: the leak this guards against held all
        # 500 Job/TaskEstimator/JobSpec triples until the end of the run.
        specs = [
            make_job_spec(
                [1.0], ApproximationBound.exact(), job_id=index, arrival=2.0 * index,
                max_slots=1,
            )
            for index in range(500)
        ]
        simulation = Simulation(
            make_simulation_config(machines=4), NoSpeculationPolicy(), specs
        )
        metrics = simulation.run()
        assert len(metrics.results) == 500
        assert simulation._jobs == {}
        assert simulation._estimators == {}
        assert simulation._spec_by_id == {}
        assert simulation._running_job_ids == {}
        # Arrivals are spaced past each job's runtime, so residency is O(1).
        assert simulation.peak_resident_jobs <= 3
        assert metrics.peak_resident_jobs == simulation.peak_resident_jobs

    def test_peak_resident_tracks_concurrency(self):
        # All jobs arrive at once: every one of them must be resident.
        specs = [
            make_job_spec([5.0], ApproximationBound.exact(), job_id=index)
            for index in range(7)
        ]
        simulation = Simulation(
            make_simulation_config(machines=8), NoSpeculationPolicy(), specs
        )
        simulation.run()
        assert simulation.peak_resident_jobs == 7

    def test_every_policy_leaves_no_cyclic_garbage(self):
        # Eviction frees a job only if nothing in its object graph points
        # back into it; a cycle leaves every finished job to the collector.
        def run():
            for bound_kind, framework in (("deadline", "hadoop"), ("error", "spark")):
                compare_policies(
                    available_policies(),
                    WorkloadConfig(bound_kind=bound_kind, framework=framework, seed=42),
                    scale=ExperimentScale.quick(),
                    workers=1,
                )
            execute(
                ReplayPlan(
                    trace=str(ROOT / "traces" / "facebook_like.jsonl"),
                    policies=("grass", "late"),
                    scale="quick",
                    sink="aggregate",
                ).validate()
            )

        assert unreachable_repro_objects(run) == Counter()

    def test_a_finished_job_is_freed_before_the_run_ends(self, monkeypatch):
        # Task's dataclass slots leave no ``__weakref__``; jobs build this
        # subclass instead, which only adds one.
        class WeakTask(Task):
            __slots__ = ("__weakref__",)

        monkeypatch.setattr(job_module, "Task", WeakTask)
        specs = [
            make_job_spec([1.0, 2.0, 3.0], ApproximationBound.exact(), job_id=index,
                          arrival=20.0 * index)
            for index in range(6)
        ]
        policy = make_policy("grass")
        simulation = Simulation(make_simulation_config(machines=4), policy, specs)
        refs = {}
        finished = []
        # Per arrival: (jobs finished so far, how many of them are alive).
        seen_at_arrival = []
        on_job_start, on_job_finish = policy.on_job_start, policy.on_job_finish

        def watch_start(job, now):
            alive = [
                job_id for job_id in finished
                if any(ref() is not None for ref in refs[job_id])
            ]
            seen_at_arrival.append((len(finished), len(alive)))
            estimator = simulation._estimators[job.job_id]
            refs[job.job_id] = [weakref.ref(job), weakref.ref(job.tasks[0]),
                                weakref.ref(estimator)]
            on_job_start(job, now)

        def watch_finish(job, result, now):
            finished.append(job.job_id)
            on_job_finish(job, result, now)

        policy.on_job_start = watch_start
        policy.on_job_finish = watch_finish
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            simulation.run()
        finally:
            if enabled:
                gc.enable()
        # Each job finished before the next arrived, and was gone by then.
        assert finished == list(range(6))
        assert seen_at_arrival == [(count, 0) for count in range(6)]


class TestTruncation:
    def _specs(self):
        return [
            make_job_spec([5.0] * 4, ApproximationBound.exact(), job_id=0, max_slots=2),
            make_job_spec([5.0] * 4, ApproximationBound.exact(), job_id=1, arrival=2.0,
                          max_slots=2),
            make_job_spec([5.0], ApproximationBound.exact(), job_id=2, arrival=500.0),
        ]

    def test_truncated_jobs_counted(self):
        config = SimulationConfig(
            cluster=make_simulation_config(machines=4).cluster,
            stragglers=StragglerConfig.none(),
            seed=0,
            max_simulated_time=6.0,
        )
        metrics = Simulation(config, NoSpeculationPolicy(), self._specs()).run()
        # Jobs 0 and 1 are in flight at t=6 (force-finished, partial
        # results); job 2 arrives at t=500 and never runs at all.
        assert metrics.truncated_jobs == 3
        assert len(metrics.results) == 2
        assert metrics.summary()["truncated_jobs"] == 3.0

    def test_truncated_count_identical_for_lazy_path(self):
        config = SimulationConfig(
            cluster=make_simulation_config(machines=4).cluster,
            stragglers=StragglerConfig.none(),
            seed=0,
            max_simulated_time=6.0,
        )
        eager = Simulation(config, NoSpeculationPolicy(), self._specs()).run()
        lazy = Simulation(
            config, NoSpeculationPolicy(), iter(sorted_specs(self._specs()))
        ).run()
        assert pickle.dumps(eager) == pickle.dumps(lazy)

    def test_untruncated_run_counts_zero(self):
        metrics = Simulation(
            make_simulation_config(machines=4), NoSpeculationPolicy(), self._specs()
        ).run()
        assert metrics.truncated_jobs == 0


class TestSpecSource:
    def test_windows_match_sliced_in_memory_shards(self, tmp_path):
        """A file window, a memory shard and the sliced jobs give the same specs."""
        trace = small_trace()
        path = tmp_path / "trace.jsonl"
        save_trace(sorted(trace, key=lambda j: (j.arrival_time, j.job_id)), path)
        config = TraceReplayConfig(seed=1)
        for num_shards in (1, 2, 4):
            windows = _shard_sources(str(path), scan_trace(path), config, num_shards)
            memory = _shard_sources(trace, _scan_source(trace), config, num_shards)
            shards = slice_trace(trace, num_shards)
            for window, held, shard in zip(windows, memory, shards, strict=True):
                expected = pickle.dumps(list(iter_job_specs(shard, config)))
                assert pickle.dumps(list(window.iter_specs())) == expected
                assert pickle.dumps(list(held.iter_specs())) == expected
                assert window.stop - window.start == held.stop - held.start == len(shard)

    def test_tier_windows_regenerate_their_slice(self):
        tier = ClusterTierConfig(num_jobs=9, seed=4)
        config = TraceReplayConfig(seed=2)
        jobs = list(iter_cluster_trace(tier))
        sources = _shard_sources(tier, _scan_source(tier), config, 3)
        assert [(s.start, s.stop) for s in sources] == [(0, 3), (3, 6), (6, 9)]
        for source in sources:
            expected = list(iter_job_specs(jobs[source.start : source.stop], config))
            assert pickle.dumps(list(source.iter_specs())) == pickle.dumps(expected)

    def test_source_is_picklable_and_lazy(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        source = ShardSpecSource(str(path), TraceReplayConfig(), 0, 3)
        restored = pickle.loads(pickle.dumps(source))
        # Construction never touches the file; only iteration does.
        with pytest.raises(FileNotFoundError):
            list(restored.iter_specs())

    def test_bad_coordinates_rejected(self):
        with pytest.raises(ValueError, match="shard_index"):
            ShardSpecSource("t.jsonl", TraceReplayConfig(), 0, 5, 2, 2)
        with pytest.raises(ValueError, match="start < stop"):
            ShardSpecSource("t.jsonl", TraceReplayConfig(), 3, 3)

    def test_run_request_accepts_exactly_one_job_source(self, tmp_path):
        workload = generate_workload(WorkloadConfig(num_jobs=2, seed=0, size_scale=0.1))
        config = make_simulation_config()
        source = ShardSpecSource("t.jsonl", TraceReplayConfig(), 0, 2)
        with pytest.raises(ValueError, match="exactly one of workload or spec_source"):
            RunRequest(workload=workload, spec_source=source, config=config,
                       policy_name="late")
        with pytest.raises(ValueError, match="exactly one of workload or spec_source"):
            RunRequest(config=config, policy_name="late")
        request = RunRequest(spec_source=source, config=config, policy_name="late")
        assert request.parallel_safe
        assert "shard[1/1] of t.jsonl (2 jobs)" in repr(request)


class TestShardRequestSize:
    """A request carries its shard's coordinates, never the source's jobs."""

    @staticmethod
    def _scan(num_jobs):
        return TraceScan(num_jobs=num_jobs, mean_slowest_to_median=2.0, arrival_sorted=True)

    def _pickled_sizes(self, source, num_jobs):
        sources = _shard_sources(source, self._scan(num_jobs), TraceReplayConfig(), 4)
        return [len(pickle.dumps(shard)) for shard in sources]

    def test_file_and_tier_shards_do_not_grow_with_the_source(self):
        # A 1,000,000-job source pickles like a 40-job one: only integer
        # fields get wider, by at most 4 bytes each (the window's start and
        # stop, and the tier's num_jobs).  Neither the file nor the tier is
        # read to build the shards.
        for small, large in (
            (self._pickled_sizes("t.jsonl", 40), self._pickled_sizes("t.jsonl", 10**6)),
            (
                self._pickled_sizes(ClusterTierConfig(num_jobs=40), 40),
                self._pickled_sizes(ClusterTierConfig(num_jobs=10**6), 10**6),
            ),
        ):
            for small_bytes, large_bytes in zip(small, large, strict=True):
                assert 0 <= large_bytes - small_bytes <= 12

    def test_memory_shard_holds_only_its_jobs(self):
        trace = small_trace(num_jobs=12)
        ordered = sorted(trace, key=lambda j: (j.arrival_time, j.job_id))
        sources = _shard_sources(trace, _scan_source(trace), TraceReplayConfig(), 3)
        assert [list(source.jobs) for source in sources] == [
            ordered[0:4], ordered[4:8], ordered[8:12]
        ]
        assert all((source.start, source.stop) == (0, 4) for source in sources)
        assert str(sources[1]) == "shard[2/3] of memory (4 jobs)"


class TestStreamSpecsReplay:
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_digest_matches_batch(self, tmp_path, shards, workers):
        """Lazy file windows + aggregate sink == in-memory list + retain sink."""
        trace = small_trace()
        path = tmp_path / "trace.jsonl"
        save_trace(sorted(trace, key=lambda j: (j.arrival_time, j.job_id)), path)
        config = TraceReplayConfig(seed=0)
        in_memory = replay_source(
            ["late", "grass"], trace, TINY, shards=shards, config=config
        )
        streamed = replay_source(
            ["late", "grass"], str(path), replace(TINY, workers=workers),
            shards=shards, config=config, sink=SinkFactory(kind="aggregate"),
        )
        assert metrics_digest(streamed) == metrics_digest(in_memory)
        for name in in_memory.runs:
            assert streamed.runs[name].results == []
            lazy, eager = streamed.runs[name].aggregates, in_memory.runs[name].aggregates
            for stat in ("num_results", "average_accuracy", "average_duration",
                         "bound_met_jobs", "speculative_copies"):
                assert getattr(lazy, stat) == getattr(eager, stat)
        # The engine gauge is bounded by the window, not the trace.
        peak = max(m.peak_resident_jobs for m in streamed.runs["late"].metrics)
        assert 1 <= peak <= len(trace)

    def test_retaining_replay_reads_the_trace_for_its_scan_and_shard_only(
        self, monkeypatch
    ):
        """A retaining sink costs no extra pass: 40 jobs, two reads of each."""
        from repro.workload import trace_replay, traces

        parsed = Counter()
        original = traces.iter_trace

        def counting(path):
            for job in original(path):
                parsed["jobs"] += 1
                yield job

        monkeypatch.setattr(traces, "iter_trace", counting)
        monkeypatch.setattr(trace_replay, "iter_trace", counting)
        trace = Path(__file__).resolve().parents[1] / "traces" / "facebook_like.jsonl"
        executed = execute(
            ReplayPlan(
                trace=str(trace), policies=("late",), scale="quick", shards=1,
                workers=1, sink="retain",
            )
        )
        assert executed.num_jobs == 40
        assert len(executed.comparison.runs["late"].results) == 40
        # The calibration scan, then the one shard's window (read in this
        # process: the plan runs at one worker).
        assert parsed["jobs"] == 80
        assert executed.comparison.workload.job_specs == []


class TestStreamSpecsCli:
    def test_cli_digest_matches_batch(self, tmp_path, capsys):
        """``--stream-specs`` is accepted and changes nothing."""
        from repro.experiments.cli import main

        trace = small_trace()
        path = tmp_path / "trace.jsonl"
        save_trace(sorted(trace, key=lambda j: (j.arrival_time, j.job_id)), path)
        base = ["replay", "--trace", str(path), "--policy", "late",
                "--scale", "quick", "--seed", "3"]
        assert main(base) == 0
        plain_out = capsys.readouterr().out
        assert main(base + ["--stream-specs", "--workers", "4"]) == 0
        stream_out = capsys.readouterr().out

        def digest(text):
            for line in text.splitlines():
                if line.startswith("metrics digest:"):
                    return line
            raise AssertionError(f"no digest in {text!r}")

        assert digest(plain_out) == digest(stream_out)
        assert "peak resident jobs:" in stream_out

    def test_cli_unsorted_trace_exits_cleanly(self, tmp_path, capsys):
        from repro.experiments.cli import main

        path = tmp_path / "unsorted.jsonl"
        path.write_text(
            '{"job_id": 1, "arrival_time": 5.0, "task_durations": [1.0]}\n'
            '{"job_id": 2, "arrival_time": 1.0, "task_durations": [1.0]}\n'
        )
        assert main(["replay", "--trace", str(path), "--stream-specs"]) == 0
        captured = capsys.readouterr()
        assert "Replayed" in captured.out
        assert captured.err == ""


class TestWarmupSeedCollision:
    def test_helper_raises_on_collision(self):
        with pytest.raises(ValueError, match="warm-up seed collision"):
            check_warmup_seed_collision(7919, (1, 7919, 3))
        check_warmup_seed_collision(7919, (1, 2, 3))  # no collision: fine

    def test_compare_policies_refuses_colliding_seed(self):
        scale = ExperimentScale(
            num_jobs=4, size_scale=0.1, max_tasks_per_job=40, num_machines=20,
            seeds=(WARMUP_SEED_OFFSET,), warmup_jobs=2,
        )
        with pytest.raises(ValueError, match="warm-up seed collision"):
            compare_policies(["grass"], WorkloadConfig(seed=0), scale=scale)
        # Same seeds without warm-up are unambiguous and must keep working.
        compare_policies(["grass"], WorkloadConfig(seed=0), scale=replace(scale, warmup_jobs=0))

    def test_comparison_without_learning_policy_ignores_warmup_seed(self):
        """Nothing warms up, so a run seed equal to the warm-up seed is fine."""
        scale = replace(ExperimentScale.quick(), seeds=(WARMUP_SEED_OFFSET,))
        comparison = compare_policies(
            ["late", "mantri"], WorkloadConfig(seed=0), scale=scale
        )
        assert sorted(comparison.runs) == ["late", "mantri"]
        with pytest.raises(ValueError, match="warm-up seed collision"):
            compare_policies(["grass"], WorkloadConfig(seed=0), scale=scale)

    def test_warmup_cache_refuses_colliding_seed(self):
        workload = generate_workload(
            WorkloadConfig(num_jobs=2, seed=0, size_scale=0.1)
        )
        config = make_simulation_config(seed=7919)
        with pytest.raises(ValueError, match="warm-up seed collision"):
            WarmupCache(workload, config, measured_seeds=(7919,))
        WarmupCache(workload, config, measured_seeds=(1, 2))  # fine


#: Strategy for a list of job "shapes": (arrival time, task works, bound pick).
_spec_shapes = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=40.0),
        st.lists(st.floats(min_value=0.5, max_value=12.0), min_size=1, max_size=5),
        st.sampled_from(["exact", "error", "deadline"]),
    ),
    min_size=1,
    max_size=8,
)


class TestLazyIngestionProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(shapes=_spec_shapes, seed=st.integers(min_value=0, max_value=5))
    def test_lazy_equals_materialised_for_any_arrival_order(self, shapes, seed):
        """Engine property: iterator ingestion == list ingestion.

        Arrival times are drawn unordered on purpose: the materialised path
        sorts internally, the lazy path is fed the same specs pre-sorted by
        ``(arrival_time, job_id)``, and the two runs must be byte-identical
        — results, counters, truncation and residency gauges alike.
        """
        specs = []
        for index, (arrival, works, kind) in enumerate(shapes):
            if kind == "error":
                bound = ApproximationBound.with_error(0.25)
            elif kind == "deadline":
                bound = ApproximationBound.with_deadline(sum(works) + 1.0)
            else:
                bound = ApproximationBound.exact()
            specs.append(
                make_job_spec(works, bound, job_id=index, arrival=arrival)
            )
        config = make_simulation_config(
            machines=10, stragglers=StragglerConfig(), seed=seed
        )
        eager = Simulation(config, NoSpeculationPolicy(), specs).run()
        lazy = Simulation(
            config, NoSpeculationPolicy(), iter(sorted_specs(specs))
        ).run()
        assert pickle.dumps(eager) == pickle.dumps(lazy)


class TestStreamSpecsProperty:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        jobs=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),
                st.lists(
                    st.floats(min_value=0.5, max_value=30.0), min_size=1, max_size=6
                ),
            ),
            min_size=2,
            max_size=8,
        ),
        num_shards=st.integers(min_value=1, max_value=5),
    )
    def test_any_shard_split_streams_to_the_batch_digest(
        self, tmp_path_factory, jobs, num_shards
    ):
        """Replay property: lazy windows + aggregate sink == in-memory + retain."""
        from repro.workload.traces import TraceJob

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
        path = tmp_path_factory.mktemp("specs") / "trace.jsonl"
        save_trace(trace, path)
        config = TraceReplayConfig(seed=3)
        scale = ExperimentScale(
            num_jobs=len(trace), size_scale=1.0, max_tasks_per_job=None,
            num_machines=20, seeds=(1,), warmup_jobs=0,
        )
        in_memory = replay_source(
            ["late"], trace, scale, shards=num_shards, config=config
        )
        streamed = replay_source(
            ["late"], str(path), scale, shards=num_shards, config=config,
            sink=SinkFactory(kind="aggregate"),
        )
        assert metrics_digest(streamed) == metrics_digest(in_memory)
