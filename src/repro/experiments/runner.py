"""Runs workloads under speculation policies and computes the paper's metrics.

The central object is :class:`ComparisonResult`: per-policy job results over
the *same* workload (same jobs, same straggler draws), from which the paper's
improvement percentages — accuracy gains for deadline-bound jobs, speedups
for error-bound jobs — are derived overall, per job bin, per deadline bin and
per error bin.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.bounds import BoundType
from repro.core.job import JobResult
from repro.core.policies.base import SpeculationPolicy
from repro.experiments.cache import (
    CacheCounters,
    CachedSlice,
    ReplayCache,
    StaleEntryError,
    source_descriptor,
    source_fingerprint,
)
from repro.experiments.executor import ParallelExecutor, RunRequest
from repro.experiments.plan import ReplayPlan, PlanError
from repro.experiments.policies import needs_oracle_estimates
from repro.experiments.warmup import (
    WarmupCache,
    check_warmup_seed_collision,
    policy_learns,
)
from repro.simulator.cluster import ClusterConfig
from repro.simulator.engine import SimulationConfig
from repro.workload.bins import deadline_bin_label, error_bin_label
from repro.workload.profiles import framework_profile
from repro.simulator.metrics import MetricsCollector
from repro.simulator.sinks import (
    SinkFactory,
    StreamingAggregates,
    fold_run_digests,
    parse_sink_spec,
    results_with_bound,
)
from repro.workload.synthetic import (
    GeneratedWorkload,
    JobMetadata,
    WorkloadConfig,
    generate_workload,
)
from repro.workload.trace_replay import (
    ClusterSpecSource,
    ClusterTierConfig,
    InMemorySpecSource,
    TraceReplayConfig,
    TraceSpecSource,
    iter_cluster_trace,
    job_metadata,
    slice_trace,
    straggler_cap_from_ratio,
)
from repro.workload.traces import (
    TraceFormatError,
    TraceJob,
    TraceScan,
    iter_trace,
    load_trace,
    scan_jobs,
    scan_trace,
)
from repro.utils.stats import mean

#: One simulation of a replay: ``(policy_name, seed, shard_index)``.
Coordinate = Tuple[str, int, int]

#: Hook invoked as each (policy, seed, shard) simulation's metrics land:
#: ``(policy_name, seed, shard_index, metrics)``, shard-major (cache hits
#: first, then fresh slices as they complete).  The replay service uses it
#: to stream per-tenant aggregate deltas while the plan is still executing.
MetricsHook = Callable[[str, int, int, MetricsCollector], None]

#: Offset added to a workload's seed to derive its warm-up seed.  The
#: warm-up workload *and* the warm-up simulation share this seed, so warmed
#: policy state depends only on (policy, warm-up seed) — never on the
#: measured run's seed — which is what lets one warm-up serve every seed of
#: a multi-seed comparison (see ``repro.experiments.warmup``).
WARMUP_SEED_OFFSET = 7919


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade experiment fidelity for runtime.

    The defaults match the benchmark harness (laptop-scale, a couple of
    minutes per figure); ``paper()`` gives a larger setting for overnight
    runs closer to the trace-driven simulations of §6.
    """

    num_jobs: int = 60
    size_scale: float = 0.25
    max_tasks_per_job: int = 400
    num_machines: int = 150
    seeds: Sequence[int] = (1,)
    warmup_jobs: int = 40
    #: Worker processes used to fan (policy, seed) runs out; 1 = serial,
    #: 0 = auto-size to the machine.  Results are merged deterministically,
    #: so this knob never changes the numbers — only the wall-clock time.
    workers: int = 1

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """A very small scale for unit tests and smoke benchmarks."""
        return cls(
            num_jobs=16,
            size_scale=0.12,
            max_tasks_per_job=120,
            num_machines=80,
            seeds=(1,),
            warmup_jobs=10,
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """A heavier scale approximating the paper's trace-driven simulator."""
        return cls(
            num_jobs=300,
            size_scale=1.0,
            max_tasks_per_job=2000,
            num_machines=200,
            seeds=(1, 2, 3),
            warmup_jobs=150,
        )


#: Experiment-scale factories keyed by the names a :class:`ReplayPlan` (and
#: the CLI's ``--scale`` flag) may reference.
SCALE_FACTORIES = {
    "quick": ExperimentScale.quick,
    "default": ExperimentScale,
    "paper": ExperimentScale.paper,
}


@dataclass
class PolicyRun:
    """One policy's results over one workload (possibly several seeds).

    ``results`` holds the merged raw records when the runs recorded into a
    retaining sink and stays empty under ``--sink aggregate``;
    :attr:`aggregates` is populated either way (both paths fold the same
    per-simulation chunks in the same merge order), so aggregate consumers
    — the CLI table, the digest, the overall/per-bin improvements — never
    need the raw list.
    """

    policy_name: str
    results: List[JobResult] = field(default_factory=list)
    metrics: List[MetricsCollector] = field(default_factory=list)

    @property
    def aggregates(self) -> StreamingAggregates:
        """Mergeable aggregate view over this run's per-simulation metrics."""
        if self.metrics:
            return StreamingAggregates.merged(m.aggregates for m in self.metrics)
        return StreamingAggregates.from_results(self.results)

    def deadline_results(self) -> List[JobResult]:
        return results_with_bound(self.results, BoundType.DEADLINE)

    def error_results(self) -> List[JobResult]:
        return results_with_bound(self.results, BoundType.ERROR)

    def average_accuracy(self, results: Optional[Iterable[JobResult]] = None) -> float:
        if results is None and not self.results:
            return self.aggregates.average_accuracy
        pool = list(results) if results is not None else self.deadline_results()
        if not pool:
            return 0.0
        return mean([r.accuracy for r in pool])

    def average_duration(self, results: Optional[Iterable[JobResult]] = None) -> float:
        if results is None and not self.results:
            return self.aggregates.average_duration
        pool = list(results) if results is not None else self.error_results()
        if not pool:
            return 0.0
        return mean([r.duration for r in pool])


def improvement_in_accuracy(baseline: float, improved: float) -> float:
    """Percentage improvement in average accuracy (larger accuracy is better)."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (improved - baseline) / baseline


def improvement_in_duration(baseline: float, improved: float) -> float:
    """Percentage reduction in average duration (smaller duration is better)."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline


def build_simulation_config(
    workload: GeneratedWorkload,
    scale: ExperimentScale,
    seed: int,
    oracle_estimates: bool,
) -> SimulationConfig:
    """Simulation config matching a generated workload's framework profile."""
    framework = workload.config.framework_profile
    return SimulationConfig(
        cluster=ClusterConfig(num_machines=scale.num_machines, seed=seed),
        stragglers=framework.stragglers,
        estimator=framework.estimator,
        seed=seed,
        oracle_estimates=oracle_estimates,
    )


def run_policy(
    workload: GeneratedWorkload,
    policy: SpeculationPolicy,
    scale: ExperimentScale,
    seed: int,
    oracle_estimates: bool = False,
    warmup: Optional[GeneratedWorkload] = None,
) -> MetricsCollector:
    """Run one policy instance over one workload (optionally warmed up first).

    The instance may carry state (a warm-started GRASS learner), so the run
    executes in-process; use :func:`compare_policies` with ``workers`` to fan
    registry-named policies out over processes.
    """
    request = RunRequest(
        workload=workload,
        config=build_simulation_config(workload, scale, seed, oracle_estimates),
        policy=policy,
        warmup=warmup,
    )
    return ParallelExecutor(workers=1).run([request])[0]


@dataclass
class ComparisonResult:
    """Per-policy results over the same workload, plus the workload metadata."""

    workload: GeneratedWorkload
    runs: Dict[str, PolicyRun] = field(default_factory=dict)

    def run(self, policy_name: str) -> PolicyRun:
        return self.runs[policy_name]

    # -- overall improvements --------------------------------------------------------

    def accuracy_improvement(self, policy: str, baseline: str) -> float:
        """Figure 5 style: % improvement in average accuracy of deadline jobs.

        Answered from the runs' aggregates (as is every aggregate-only
        query on this class), so the comparison works — and reports the
        same numbers — under any result sink.
        """
        return improvement_in_accuracy(
            self.runs[baseline].aggregates.average_accuracy,
            self.runs[policy].aggregates.average_accuracy,
        )

    def duration_improvement(self, policy: str, baseline: str) -> float:
        """Figure 7 style: % reduction in average duration of error jobs."""
        return improvement_in_duration(
            self.runs[baseline].aggregates.average_duration,
            self.runs[policy].aggregates.average_duration,
        )

    # -- grouped improvements ----------------------------------------------------------

    def _grouped(self, results: Iterable[JobResult], group_fn) -> Dict[str, List[JobResult]]:
        grouped: Dict[str, List[JobResult]] = {}
        for result in results:
            grouped.setdefault(group_fn(result), []).append(result)
        return grouped

    def accuracy_improvement_by_bin(self, policy: str, baseline: str) -> Dict[str, float]:
        """Improvement per job-size bin (small / medium / large).

        Answered from the runs' :class:`StreamingAggregates` (per-bin
        accuracy stats of deadline-bound jobs), so the breakdown works under
        any result sink — raw results are never touched.
        """
        improvements: Dict[str, float] = {}
        base_bins = self.runs[baseline].aggregates.accuracy_by_bin()
        pol_bins = self.runs[policy].aggregates.accuracy_by_bin()
        for bin_name in ("small", "medium", "large"):
            base = base_bins.get(bin_name)
            pol = pol_bins.get(bin_name)
            if base is None or pol is None or not base.count or not pol.count:
                continue
            improvements[bin_name] = improvement_in_accuracy(base.mean, pol.mean)
        return improvements

    def duration_improvement_by_bin(self, policy: str, baseline: str) -> Dict[str, float]:
        improvements: Dict[str, float] = {}
        base_bins = self.runs[baseline].aggregates.duration_by_bin()
        pol_bins = self.runs[policy].aggregates.duration_by_bin()
        for bin_name in ("small", "medium", "large"):
            base = base_bins.get(bin_name)
            pol = pol_bins.get(bin_name)
            if base is None or pol is None or not base.count or not pol.count:
                continue
            improvements[bin_name] = improvement_in_duration(base.mean, pol.mean)
        return improvements

    def accuracy_improvement_by_deadline_bin(
        self, policy: str, baseline: str
    ) -> Dict[str, float]:
        """Figure 6a: improvement grouped by the deadline slack-factor bin."""

        def group(result: JobResult) -> str:
            metadata = self.workload.metadata_for(result.job_id)
            slack = metadata.deadline_slack_percent or 0.0
            return deadline_bin_label(slack)

        improvements: Dict[str, float] = {}
        base_groups = self._grouped(self.runs[baseline].deadline_results(), group)
        pol_groups = self._grouped(self.runs[policy].deadline_results(), group)
        for bin_name in base_groups:
            base = base_groups.get(bin_name, [])
            pol = pol_groups.get(bin_name, [])
            if not base or not pol:
                continue
            improvements[bin_name] = improvement_in_accuracy(
                self.runs[baseline].average_accuracy(base),
                self.runs[policy].average_accuracy(pol),
            )
        return improvements

    def duration_improvement_by_error_bin(
        self, policy: str, baseline: str
    ) -> Dict[str, float]:
        """Figure 6b: improvement grouped by the error-bound bin."""

        def group(result: JobResult) -> str:
            error = (result.bound.error or 0.0) * 100.0
            return error_bin_label(error)

        improvements: Dict[str, float] = {}
        base_groups = self._grouped(self.runs[baseline].error_results(), group)
        pol_groups = self._grouped(self.runs[policy].error_results(), group)
        for bin_name in base_groups:
            base = base_groups.get(bin_name, [])
            pol = pol_groups.get(bin_name, [])
            if not base or not pol:
                continue
            improvements[bin_name] = improvement_in_duration(
                self.runs[baseline].average_duration(base),
                self.runs[policy].average_duration(pol),
            )
        return improvements


#: A replay source: a JSONL trace path, a generated trace tier, or trace jobs
#: already in memory (the ``trace-replay`` figure's synthesized trace).
TraceSource = Union[str, Path, ClusterTierConfig, Sequence[TraceJob]]


def _source_jobs(source: TraceSource) -> Iterable[TraceJob]:
    """The job stream of a replay source, in its input order."""
    if isinstance(source, ClusterTierConfig):
        return iter_cluster_trace(source)
    if isinstance(source, (str, Path)):
        return iter_trace(source)
    return source


def _scan_source(source: TraceSource) -> TraceScan:
    """The calibration scan of a replay source, folded in input order.

    Files go through :func:`scan_trace` (which also enforces the parse's
    format and duplicate-id guards) and an empty one is a
    :class:`~repro.experiments.plan.PlanError`; generated tiers and job lists
    fold the same statistics directly.  The straggler cap is the mean
    slowest/median ratio in *input* order — for a trace whose lines are not
    arrival-sorted that differs in the last bit from the sorted-order mean,
    and the digest follows the input-order value.
    """
    if not isinstance(source, (str, Path)):
        label = str(source) if isinstance(source, ClusterTierConfig) else "job list"
        return scan_jobs(_source_jobs(source), source=label)
    try:
        return scan_trace(source)
    except TraceFormatError:
        raise
    except ValueError:  # the scan's only other failure: no jobs at all
        raise PlanError(f"trace is empty: {source}") from None


#: Calibration scans memoized by source content fingerprint.  The replay
#: service probes the same source for every repeated tenant plan; after the
#: first sight, the scan is O(1) and the cache fast path answers in
#: milliseconds.  Bounded: a process sees a handful of sources, not many.
_SCAN_MEMO: Dict[str, TraceScan] = {}


def _scan_source_fingerprinted(source: TraceSource, fingerprint: str) -> TraceScan:
    scan = _SCAN_MEMO.get(fingerprint)
    if scan is None:
        scan = _scan_source(source)
        if len(_SCAN_MEMO) >= 16:
            _SCAN_MEMO.clear()
        _SCAN_MEMO[fingerprint] = scan
    return scan


def _shard_sources(
    source: TraceSource,
    scan: TraceScan,
    replay_config: TraceReplayConfig,
    num_shards: int,
) -> List[object]:
    """One lazy spec source per arrival-window shard of ``source``.

    An arrival-sorted file is windowed lazily (:class:`TraceSpecSource`) and
    the cluster tier regenerates each window (:class:`ClusterSpecSource`), so
    no process holds more than O(concurrent jobs).  A file whose lines are
    not in arrival order, and a job list, are sorted once in memory and cut
    into :class:`InMemorySpecSource` windows — O(trace) resident, with the
    same shard boundaries and byte-identical specs.
    """
    if isinstance(source, ClusterTierConfig):
        return [
            ClusterSpecSource(
                tier=source,
                replay_config=replay_config,
                shard_index=index,
                num_shards=num_shards,
            )
            for index in range(num_shards)
        ]
    if isinstance(source, (str, Path)) and scan.arrival_sorted:
        return [
            TraceSpecSource(
                trace_path=str(source),
                replay_config=replay_config,
                shard_index=index,
                num_shards=num_shards,
                total_jobs=scan.num_jobs,
            )
            for index in range(num_shards)
        ]
    jobs = load_trace(source) if isinstance(source, (str, Path)) else source
    return [
        InMemorySpecSource(
            jobs=tuple(shard),
            replay_config=replay_config,
            shard_index=index,
            num_shards=num_shards,
        )
        for index, shard in enumerate(slice_trace(jobs, num_shards))
    ]


def _replay_simulation_config(
    replay_config: TraceReplayConfig,
    scan: TraceScan,
    num_machines: int,
    seed: int,
    policy_name: str,
) -> SimulationConfig:
    """The engine config of one replayed (policy, seed) simulation.

    Every shard replays under the *full* source's observed straggler
    severity (the scan's mean slowest/median ratio), never its own slice's.
    """
    framework = framework_profile(replay_config.framework)
    return SimulationConfig(
        cluster=ClusterConfig(num_machines=num_machines, seed=seed),
        stragglers=replace(
            framework.stragglers,
            cap=straggler_cap_from_ratio(scan.mean_slowest_to_median),
        ),
        estimator=framework.estimator,
        seed=seed,
        oracle_estimates=needs_oracle_estimates(policy_name),
    )


def _simulate(
    coords: Sequence[Coordinate],
    sources: Sequence[object],
    replay_config: TraceReplayConfig,
    scan: TraceScan,
    num_machines: int,
    sink: SinkFactory,
    workers: int,
) -> Iterator[MetricsCollector]:
    """Simulate each (policy, seed, shard) coordinate; metrics in order.

    Requests carry the shard's spec source — a picklable description, not a
    spec list — and stream through :meth:`ParallelExecutor.run_stream`, so
    completions arrive in ``coords`` order for any ``workers``.
    """
    requests = (
        RunRequest(
            spec_source=sources[shard_index],
            config=_replay_simulation_config(
                replay_config, scan, num_machines, seed, name
            ),
            policy_name=name,
            sink_factory=sink.with_tag(f"{name}-seed{seed}-shard{shard_index}"),
        )
        for name, seed, shard_index in coords
    )
    return ParallelExecutor(workers=workers).run_stream(requests)


def _replay(
    policy_names: Sequence[str],
    source: TraceSource,
    replay_config: TraceReplayConfig,
    scale: ExperimentScale,
    shards: int = 1,
    *,
    scan: Optional[TraceScan] = None,
    sink: Optional[SinkFactory] = None,
    on_metrics: Optional[MetricsHook] = None,
    session: Optional["_CacheSession"] = None,
) -> ComparisonResult:
    """Replay ``source`` under the named policies: the one replay path.

    The (policy, seed, shard) grid is partitioned into slices the cache
    ``session`` already restored and slices to simulate.  Restored slices
    are reported to ``on_metrics`` first; the rest run shard-major through
    :func:`_simulate` (shard ``k``'s requests before shard ``k+1``'s) and
    are reported and stored as they complete.  Both fold into the
    comparison in (policy, seed, shard) order, so the digest is the same
    for any ``workers``, any sink and any mix of cached and fresh slices.

    ``scale`` contributes the cluster size, seeds and worker count; its
    workload-synthesis knobs are ignored because the source decides the
    workload.  The comparison's workload is a stand-in carrying per-job
    metadata but no specs.  The metadata — which only consumers slicing raw
    results by job need — is collected with one extra pass over the source,
    and only when the sink retains results and at least one slice is
    simulated: an all-hits replay never reads the trace body.  ``scan`` is
    the source's calibration scan when the caller already holds it.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    scan = scan or _scan_source(source)
    sink = sink or SinkFactory()
    num_shards = min(shards, scan.num_jobs)
    coords = [
        (name, seed, shard_index)
        for shard_index in range(num_shards)
        for name in policy_names
        for seed in scale.seeds
    ]
    collected: Dict[Coordinate, MetricsCollector] = (
        dict(session.restored) if session is not None else {}
    )
    misses = [coord for coord in coords if coord not in collected]
    if on_metrics is not None:
        for coord in coords:
            if coord in collected:
                on_metrics(*coord, collected[coord])
    metadata: Dict[int, JobMetadata] = {}
    if misses:
        sources = _shard_sources(source, scan, replay_config, num_shards)
        completed = _simulate(
            misses, sources, replay_config, scan, scale.num_machines, sink,
            scale.workers,
        )
        for coord, metrics in zip(misses, completed):
            collected[coord] = metrics
            if session is not None:
                session.store(coord, metrics)
            if on_metrics is not None:
                on_metrics(*coord, metrics)
        if sink.retains_results:
            metadata = {
                job.job_id: job_metadata(job, replay_config)
                for job in _source_jobs(source)
            }

    workload = GeneratedWorkload(config=replay_config.workload_config(scan.num_jobs))
    workload.metadata.update(metadata)
    comparison = ComparisonResult(workload=workload)
    for name in policy_names:
        run = PolicyRun(policy_name=name)
        for seed in scale.seeds:
            for shard_index in range(num_shards):
                metrics = collected[(name, seed, shard_index)]
                if metrics.retains_results:
                    run.results.extend(metrics.results)
                run.metrics.append(metrics)
        comparison.runs[name] = run
    return comparison


@dataclass
class _CacheSession:
    """One plan execution's view of the replay cache.

    Carries the slice-key fields shared by every (policy, seed, shard)
    coordinate of the plan plus the coordinates already restored from the
    cache.  The restored collectors are sealed around their cached chunks —
    byte-identical digest parts, no raw per-job results (aggregate
    consumers only).
    """

    cache: ReplayCache
    base: Dict[str, object]
    descriptor: Dict[str, object]
    restored: Dict[Coordinate, MetricsCollector] = field(default_factory=dict)

    def slice_wire(self, coord: Coordinate) -> Dict[str, object]:
        name, seed, shard_index = coord
        wire = dict(self.base)
        wire.update({"policy": name, "sim_seed": seed, "shard": shard_index})
        return wire

    def probe(self, policy_names: Sequence[str], seeds: Sequence[int]) -> bool:
        """Restore every cached coordinate; True when the whole grid hit."""
        for name in policy_names:
            for seed in seeds:
                for shard_index in range(self.base["num_shards"]):
                    coord = (name, seed, shard_index)
                    cached = self.cache.lookup(self.slice_wire(coord))
                    if cached is not None:
                        self.restored[coord] = cached.restore()
        return len(self.restored) == (
            len(policy_names) * len(seeds) * self.base["num_shards"]
        )

    def store(self, coord: Coordinate, metrics: MetricsCollector) -> None:
        self.cache.store(
            self.slice_wire(coord),
            CachedSlice.from_metrics(metrics),
            self.descriptor,
        )


def _open_cache_session(
    plan: ReplayPlan,
    scale: ExperimentScale,
    source: TraceSource,
    cache: Optional[ReplayCache] = None,
) -> Tuple[_CacheSession, TraceScan]:
    """Build a plan's cache session: ``(session, calibration scan)``.

    The slice key holds exactly the plan fields that can change a slice's
    digest — and none that cannot (``workers`` and the sink are
    wall-clock/memory knobs whose digest-invariance the determinism tests
    lock), so one cached execution serves every worker/sink combination of
    the same experiment.
    """
    if cache is None:
        try:
            cache = ReplayCache(plan.cache)
        except OSError as exc:
            raise PlanError(
                f"cannot open replay cache at {plan.cache}: {exc}"
            ) from None
    fingerprint = source_fingerprint(source)
    scan = _scan_source_fingerprinted(source, fingerprint)
    base = {
        "source": fingerprint,
        "num_shards": min(plan.shards, scan.num_jobs),
        "scale": plan.scale,
        "num_machines": scale.num_machines,
        "framework": plan.framework,
        "bound_kind": plan.bound_kind,
        "assignment_seed": plan.seed,
    }
    session = _CacheSession(
        cache=cache, base=base, descriptor=source_descriptor(source)
    )
    return session, scan


def metrics_digest(comparison: ComparisonResult) -> str:
    """SHA-256 over the merged per-job results, canonically serialised.

    Two replays that produce byte-identical metrics — the determinism
    contract of ``workers`` — share the same digest, so scripts (and the
    replay service's clients) can compare runs without parsing tables.  The
    digest is the policy-tagged fold of each run's per-simulation chunk
    digests in the deterministic (policy, seed, shard) merge order
    (:func:`repro.simulator.sinks.fold_run_digests`); every sink maintains
    those chunk digests identically, so the value is byte-identical across
    ``--sink`` and ``--workers`` at the same shard count.
    """
    return fold_run_digests(
        (name, run.aggregates.digest_parts()) for name, run in comparison.runs.items()
    )


@dataclass
class ExecutedPlan:
    """Result of :func:`execute`: the comparison plus the plan's provenance."""

    plan: ReplayPlan
    comparison: ComparisonResult
    #: Jobs in the replayed source (the trace's job count, not results rows).
    num_jobs: int
    #: Arrival-window shards the source was actually split into.
    num_shards: int
    #: Replay-cache session counters (hits/misses/stores/bytes/evictions);
    #: ``None`` when the plan executed without a cache.
    cache_stats: Optional[CacheCounters] = None

    @property
    def digest(self) -> str:
        """The policy-tagged metrics digest (see :func:`metrics_digest`)."""
        return metrics_digest(self.comparison)

    def _all_metrics(self) -> Iterator[MetricsCollector]:
        for run in self.comparison.runs.values():
            yield from run.metrics

    @property
    def truncated_jobs(self) -> int:
        """Job runs cut off by ``max_simulated_time``, summed over all runs."""
        return sum(metrics.truncated_jobs for metrics in self._all_metrics())

    @property
    def peak_resident_jobs(self) -> int:
        """Engine high-water mark of concurrently resident jobs.

        Maximised over every (policy, seed, shard) simulation, cached ones
        included: O(max concurrent jobs) for a lazily windowed source, not
        O(trace).
        """
        return max(metrics.peak_resident_jobs for metrics in self._all_metrics())


def plan_scale(plan: ReplayPlan) -> ExperimentScale:
    """The :class:`ExperimentScale` a plan executes under.

    The named scale contributes cluster size and default seeds; the plan's
    ``workers`` (and explicit ``seeds``, when given) override it.
    """
    scale = SCALE_FACTORIES[plan.scale]()
    overrides = {"workers": plan.workers}
    if plan.seeds is not None:
        overrides["seeds"] = tuple(plan.seeds)
    return replace(scale, **overrides)


def plan_source(plan: ReplayPlan) -> TraceSource:
    """The replay source a plan names: a trace path or a generated tier."""
    if plan.cluster_jobs is not None:
        return ClusterTierConfig(num_jobs=plan.cluster_jobs, seed=plan.seed)
    return plan.trace


def _execute_plan(
    plan: ReplayPlan,
    scale: ExperimentScale,
    source: TraceSource,
    scan: TraceScan,
    session: Optional[_CacheSession],
    on_metrics: Optional[MetricsHook],
) -> ExecutedPlan:
    """Replay a validated plan through :func:`_replay`, with its provenance."""
    comparison = _replay(
        plan.policies,
        source,
        TraceReplayConfig(
            framework=plan.framework, bound_kind=plan.bound_kind, seed=plan.seed
        ),
        scale,
        plan.shards,
        scan=scan,
        sink=parse_sink_spec(plan.sink),
        on_metrics=on_metrics,
        session=session,
    )
    return ExecutedPlan(
        plan=plan,
        comparison=comparison,
        num_jobs=scan.num_jobs,
        num_shards=min(plan.shards, scan.num_jobs),
        cache_stats=session.cache.counters if session is not None else None,
    )


def probe_plan_cache(
    plan: ReplayPlan,
    cache: Optional[ReplayCache] = None,
    on_metrics: Optional[MetricsHook] = None,
) -> Optional[ExecutedPlan]:
    """Serve a plan entirely from its replay cache, or return ``None``.

    Never simulates and never loads the trace body: the only O(trace) work
    is the first-sight source fingerprint and calibration scan, both
    memoized per content fingerprint — which is what lets the replay
    service answer a repeated tenant plan before any admission debit.
    ``None`` means at least one (policy, seed, shard) coordinate is
    uncached and the plan needs a real execution.
    """
    plan.validate()
    if plan.cache is None and cache is None:
        return None
    scale = plan_scale(plan)
    source = plan_source(plan)
    session, scan = _open_cache_session(plan, scale, source, cache)
    if not session.probe(plan.policies, scale.seeds):
        return None
    return _execute_plan(plan, scale, source, scan, session, on_metrics)


def resimulate_cached_entry(payload: Dict[str, object]) -> str:
    """Re-run the simulation a cache entry memoizes; fresh chunk digest (hex).

    The ``cache verify`` backend: an entry's slice fields plus its source
    descriptor fully determine one (policy, seed, shard) simulation, so a
    digest mismatch against the stored chunk means the cache lied.  The
    re-run builds the same spec source and engine config every replay
    builds for that slice.

    Raises :class:`~repro.experiments.cache.StaleEntryError` when the
    recorded source has moved or its content changed since the entry was
    written — there is nothing honest to compare against.
    """
    from repro.experiments.cache import source_from_descriptor

    slice_wire = payload.get("slice")
    descriptor = payload.get("source")
    if not isinstance(slice_wire, dict) or not isinstance(descriptor, dict):
        raise StaleEntryError("entry has no slice/source fields")
    source = source_from_descriptor(descriptor)
    try:
        fingerprint = source_fingerprint(source)
    except OSError as exc:
        raise StaleEntryError(f"source unavailable: {exc}") from None
    if fingerprint != slice_wire.get("source"):
        raise StaleEntryError("source content changed since the entry was written")
    scan = _scan_source_fingerprinted(source, fingerprint)
    try:
        coord = (
            str(slice_wire["policy"]),
            int(slice_wire["sim_seed"]),
            int(slice_wire["shard"]),
        )
        num_shards = int(slice_wire["num_shards"])
        num_machines = int(slice_wire["num_machines"])
        replay_config = TraceReplayConfig(
            framework=str(slice_wire["framework"]),
            bound_kind=str(slice_wire["bound_kind"]),
            seed=int(slice_wire["assignment_seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StaleEntryError(f"unreadable slice fields: {exc}") from None
    sources = _shard_sources(source, scan, replay_config, num_shards)
    (metrics,) = _simulate(
        [coord], sources, replay_config, scan, num_machines,
        SinkFactory(kind="aggregate"), workers=1,
    )
    return metrics.aggregates.chunks[0].digest.hex()


def execute(
    plan: ReplayPlan,
    on_metrics: Optional[MetricsHook] = None,
    cache: Optional[ReplayCache] = None,
) -> ExecutedPlan:
    """Execute a :class:`ReplayPlan` — the single entry point for replay.

    The plan round-trips through JSON, so the offline CLI, the test matrix
    and the always-on replay service all execute the *same* object.  For a
    given plan the metrics digest is byte-identical across ``workers`` and
    sinks at the same shard count.  Every plan runs one path: each shard is
    a lazy spec source — a window of an arrival-sorted trace file, a
    regenerated cluster-tier window, or a slice of a trace sorted in memory
    when its lines are not in arrival order — simulated once per (policy,
    seed).  ``stream`` / ``stream_specs`` are accepted and change nothing.

    With ``plan.cache`` set (or an explicit ``cache`` instance), every
    (policy, seed, shard) coordinate is looked up before simulating: hits
    restore their chunks from disk and fold into the same deterministic
    merge order, misses are simulated and stored on completion.  An
    all-hits plan skips simulation *and* the trace body entirely.  The
    digest is byte-identical with and without the cache; ``cache_stats`` on
    the result reports the session's counters.  (With a retaining sink, raw
    per-job results are only present for recomputed slices — cached entries
    carry aggregates only; every aggregate/digest surface is complete and
    exact either way.)

    ``on_metrics`` is invoked once per (policy, seed, shard) simulation:
    cache hits first, then fresh slices as they complete, both shard-major.
    That is the hook the service's per-tenant delta streaming builds on;
    its clients refold deltas by coordinate, so the order never reaches a
    digest.

    Raises :class:`~repro.experiments.plan.PlanError` on an invalid plan,
    ``FileNotFoundError`` / ``OSError`` when a trace path cannot be read and
    ``TraceFormatError`` on malformed traces.
    """
    plan.validate()
    scale = plan_scale(plan)
    source = plan_source(plan)
    session: Optional[_CacheSession] = None
    if cache is not None or plan.cache is not None:
        session, scan = _open_cache_session(plan, scale, source, cache)
        session.probe(plan.policies, scale.seeds)
    else:
        scan = _scan_source(source)
    return _execute_plan(plan, scale, source, scan, session, on_metrics)


def compare_policies(
    policy_names: Sequence[str],
    workload_config: WorkloadConfig,
    scale: Optional[ExperimentScale] = None,
    warmup: bool = True,
    workers: Optional[int] = None,
    warm_cache: bool = True,
    sink: Optional[SinkFactory] = None,
) -> ComparisonResult:
    """Run the named policies over one workload and collect their results.

    Every policy sees exactly the same jobs, the same cluster and the same
    straggler draws (the straggler model keys durations on the job, task and
    copy index, not on the policy's decisions), so differences are entirely
    due to scheduling.

    ``workers`` fans the independent (policy, seed) simulations out over
    that many processes (0 = auto, default = ``scale.workers``).  Each run is
    explicitly seeded and the merge happens in a fixed (policy, seed) order,
    so the result is byte-identical to the serial path.

    Warm-up semantics: learning policies (GRASS) first process a separate
    warm-up workload whose generation *and* simulation are seeded by
    ``workload seed + WARMUP_SEED_OFFSET`` — independent of the run seed, so
    one warmed state serves every seed.  With ``warm_cache`` (the default)
    each learning policy is warmed exactly once and its state snapshot is
    shipped to the workers; with ``warm_cache=False`` every request
    re-simulates the warm-up.  Both paths produce byte-identical metrics —
    the cache is purely a wall-clock optimisation.  Stateless policies are
    never warmed: warm-up cannot affect a policy without cross-job state.

    ``sink`` picks the per-simulation result sink (the ``sink`` field of
    :class:`~repro.experiments.plan.ReplayPlan` describes the kinds); figure
    producers that slice raw results by workload metadata need the
    retaining default.
    """
    scale = scale or ExperimentScale()
    if workers is None:
        workers = scale.workers
    sink = sink or SinkFactory()
    generator_config = replace(
        workload_config,
        num_jobs=scale.num_jobs,
        size_scale=scale.size_scale,
        max_tasks_per_job=scale.max_tasks_per_job,
    )
    workload = generate_workload(generator_config)
    warmup_workload: Optional[GeneratedWorkload] = None
    warmup_sim_config: Optional[SimulationConfig] = None
    cache: Optional[WarmupCache] = None
    if warmup and scale.warmup_jobs > 0:
        warm_seed = generator_config.seed + WARMUP_SEED_OFFSET
        # A measured seed equal to the warm-up seed would silently measure
        # the very simulation the policy warmed up on; refuse it whether or
        # not the cache path is taken (the cache re-checks defensively).
        check_warmup_seed_collision(warm_seed, scale.seeds)
        warmup_generator_config = replace(
            generator_config,
            num_jobs=scale.warmup_jobs,
            seed=warm_seed,
        )
        warmup_workload = generate_workload(warmup_generator_config)
        warmup_sim_config = build_simulation_config(
            workload, scale, warm_seed, oracle_estimates=False
        )
        if warm_cache:
            cache = WarmupCache(
                warmup_workload, warmup_sim_config, measured_seeds=scale.seeds
            )
            cache.prewarm(
                policy_names, workers=ParallelExecutor(workers=workers).workers
            )

    def warm_fields(name: str) -> dict:
        if warmup_workload is None or not policy_learns(name):
            return {}
        if cache is not None:
            return {"warm_state": cache.snapshot_for(name)}
        return {"warmup": warmup_workload, "warmup_config": warmup_sim_config}

    requests = [
        RunRequest(
            workload=workload,
            config=build_simulation_config(
                workload, scale, seed, needs_oracle_estimates(name)
            ),
            policy_name=name,
            sink_factory=sink.with_tag(f"{name}-seed{seed}"),
            **warm_fields(name),
        )
        for name in policy_names
        for seed in scale.seeds
    ]
    all_metrics = ParallelExecutor(workers=workers).run(requests)

    comparison = ComparisonResult(workload=workload)
    index = 0
    for name in policy_names:
        run = PolicyRun(policy_name=name)
        for _seed in scale.seeds:
            metrics = all_metrics[index]
            index += 1
            if metrics.retains_results:
                run.results.extend(metrics.results)
            run.metrics.append(metrics)
        comparison.runs[name] = run
    return comparison
