"""Runs workloads under speculation policies and computes the paper's metrics.

The central object is :class:`ComparisonResult`: per-policy job results over
the *same* workload (same jobs, same straggler draws), from which the paper's
improvement percentages — accuracy gains for deadline-bound jobs, speedups
for error-bound jobs — are derived overall, per job bin, per deadline bin and
per error bin.

Every simulation this module starts is a
:class:`~repro.experiments.executor.RunRequest` naming a registry policy,
built by one of two functions: :func:`compare_policies` for a synthetic
figure cell, which warms its learning policies first, and :func:`execute`
for a :class:`~repro.experiments.plan.ReplayPlan`.  A policy variant a
figure sweeps (a factor subset, a perturbation probability ξ) is a registry
name too.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass, field, replace
from itertools import accumulate
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.bounds import BoundType
from repro.core.job import JobResult
from repro.experiments.cache import (
    CacheCounters,
    CachedSlice,
    ReplayCache,
    StaleEntryError,
    source_descriptor,
    source_fingerprint,
)
from repro.experiments.executor import ParallelExecutor, RunRequest
from repro.experiments.plan import (
    SCALE_FACTORIES,
    ExperimentScale,
    PlanError,
    ReplayPlan,
    repeated,
)
from repro.experiments.warmup import (
    WarmupCache,
    check_warmup_seed_collision,
    forget_memos,
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
    WorkloadConfig,
    generated,
)
from repro.workload.trace_replay import (
    ClusterTierConfig,
    ShardSpecSource,
    TraceReplayConfig,
    TraceSource,
    shard_sizes,
    slice_trace,
    source_jobs,
    straggler_cap_from_ratio,
)
from repro.workload.traces import (
    TraceFormatError,
    TraceScan,
    scan_jobs,
    scan_trace,
)
from repro.utils.stats import left_sum, mean

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


@dataclass
class PolicyRun:
    """One policy's results over one workload (possibly several seeds).

    ``results`` holds the merged raw records when the runs recorded into a
    retaining sink and stays empty under ``--sink aggregate``;
    :attr:`aggregates` merges ``metrics``, one collector per simulation,
    either way (both paths fold the same per-simulation chunks in the same
    merge order), so aggregate consumers — the CLI table, the digest, the
    overall/per-bin improvements — never need the raw list.
    """

    policy_name: str
    results: List[JobResult] = field(default_factory=list)
    metrics: List[MetricsCollector] = field(default_factory=list)

    @property
    def aggregates(self) -> StreamingAggregates:
        """Mergeable aggregate view over this run's per-simulation metrics."""
        return StreamingAggregates.merged(m.aggregates for m in self.metrics)

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
) -> SimulationConfig:
    """Simulation config matching a generated workload's framework profile."""
    framework = workload.config.framework_profile
    return SimulationConfig(
        cluster=ClusterConfig(num_machines=scale.num_machines, seed=seed),
        stragglers=framework.stragglers,
        estimator=framework.estimator,
        seed=seed,
    )


@dataclass
class ComparisonResult:
    """Per-policy results over the same workload, plus the workload."""

    workload: GeneratedWorkload
    runs: Dict[str, PolicyRun] = field(default_factory=dict)

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
        """Figure 6a: improvement grouped by the deadline slack-factor bin.

        A job's slack is its deadline over its ideal duration at its slot
        cap (the §6.1 recipe's calibration), read from the workload's specs;
        a replayed comparison carries no specs, so it has no such breakdown.
        """
        specs = {spec.job_id: spec for spec in self.workload.job_specs}

        def group(result: JobResult) -> str:
            spec = specs[result.job_id]
            ideal = spec.ideal_duration(spec.max_slots)
            return deadline_bin_label(100.0 * (spec.bound.deadline / ideal - 1.0))

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


def _scan_source(source: TraceSource) -> TraceScan:
    """The calibration scan of a replay source, folded in input order.

    Files go through :func:`scan_trace` (which also enforces the parse's
    format and duplicate-id guards) and an empty one is a
    :class:`~repro.experiments.plan.PlanError`; generated tiers and job lists
    fold the same statistics directly.  A job list that repeats a job id is
    a :class:`~repro.experiments.plan.PlanError` here, before any shard is
    cut: the engine's own check sees one shard only, so a repeat split
    across shards would otherwise replay (a tier's ids are sequential).  The
    straggler cap is the mean slowest/median ratio in *input* order — for a
    trace whose lines are not arrival-sorted that differs in the last bit
    from the sorted-order mean, and the digest follows the input-order value.
    """
    if isinstance(source, ClusterTierConfig):
        return scan_jobs(source_jobs(source), source=str(source))
    if not isinstance(source, (str, Path)):
        seen: set = set()
        for job in source:
            if job.job_id in seen:
                raise PlanError(
                    f"job ids must be unique within a job list: job {job.job_id} "
                    "appears more than once"
                )
            seen.add(job.job_id)
        return scan_jobs(source_jobs(source), source="job list")
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


def _job_count(source: TraceSource, scan: Optional[TraceScan]) -> int:
    """Jobs in ``source``: a generated tier's config field, else its scan's count."""
    if isinstance(source, ClusterTierConfig):
        return source.num_jobs
    return scan.num_jobs


def _shard_sources(
    source: TraceSource,
    scan: TraceScan,
    replay_config: TraceReplayConfig,
    num_shards: int,
) -> List[ShardSpecSource]:
    """One lazy spec source per arrival-window shard of ``source``.

    An arrival-sorted file and the cluster tier (sorted by construction) are
    windowed where each request runs, so no process holds more than
    O(concurrent jobs).  A file
    whose lines are not in arrival order, and a job list, are sorted once in
    memory and sliced, each shard carrying only its own jobs — O(trace)
    resident, with the same shard boundaries and byte-identical specs.
    """
    if scan.arrival_sorted and isinstance(source, (str, Path, ClusterTierConfig)):
        edges = list(accumulate(shard_sizes(scan.num_jobs, num_shards), initial=0))
        return [
            ShardSpecSource(source, replay_config, start, stop, index, len(edges) - 1)
            for index, (start, stop) in enumerate(zip(edges, edges[1:]))
        ]
    shards = slice_trace(list(source_jobs(source)), num_shards)
    return [
        ShardSpecSource(tuple(shard), replay_config, 0, len(shard), index, len(shards))
        for index, shard in enumerate(shards)
    ]


def _replay_simulation_config(
    replay_config: TraceReplayConfig,
    scan: TraceScan,
    num_machines: int,
    seed: int,
) -> SimulationConfig:
    """The engine config of one replayed simulation at ``seed``.

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
    )


def _simulate(
    coords: Sequence[Coordinate],
    sources: Sequence[ShardSpecSource],
    replay_config: TraceReplayConfig,
    scan: TraceScan,
    num_machines: int,
    sink: SinkFactory,
    workers: int,
    pool: Optional[Executor] = None,
) -> Iterator[MetricsCollector]:
    """Simulate each (policy, seed, shard) coordinate; metrics in order.

    Requests carry the shard's spec source — a picklable description, not a
    spec list — and stream through :meth:`ParallelExecutor.run_stream`, so
    completions arrive in ``coords`` order for any ``workers``.  With a
    persistent process ``pool`` every request runs there.
    """
    requests = (
        RunRequest(
            spec_source=sources[shard_index],
            config=_replay_simulation_config(replay_config, scan, num_machines, seed),
            policy_name=name,
            sink_factory=sink.with_tag(f"{name}-seed{seed}-shard{shard_index}"),
        )
        for name, seed, shard_index in coords
    )
    return ParallelExecutor(workers=workers, pool=pool).run_stream(requests)


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
    pool: Optional[Executor] = None,
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
    workload.  The comparison's workload is a stand-in with the replay's
    provenance config and no specs.  The source is read only by its
    calibration scan and by each simulated shard, so an all-hits replay
    never reads the trace body.  ``scan`` is the source's calibration scan
    when the caller already holds it; a generated tier is scanned only when
    a slice is simulated.  A persistent process ``pool`` runs every
    simulation in place of a per-call pool (see :class:`ParallelExecutor`).
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if scan is None and not isinstance(source, ClusterTierConfig):
        scan = _scan_source(source)
    sink = sink or SinkFactory()
    num_jobs = _job_count(source, scan)
    num_shards = min(shards, num_jobs)
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
    if misses:
        scan = scan or _scan_source(source)
        sources = _shard_sources(source, scan, replay_config, num_shards)
        completed = _simulate(
            misses, sources, replay_config, scan, scale.num_machines, sink,
            scale.workers, pool,
        )
        for coord, metrics in zip(misses, completed, strict=True):
            collected[coord] = metrics
            if session is not None:
                session.store(coord, metrics)
            if on_metrics is not None:
                on_metrics(*coord, metrics)

    workload = GeneratedWorkload(config=replay_config.workload_config(num_jobs))
    return _comparison(workload, policy_names, scale.seeds, num_shards, collected)


def _comparison(
    workload: GeneratedWorkload,
    policy_names: Sequence[str],
    seeds: Sequence[int],
    num_shards: int,
    collected: Dict[Coordinate, MetricsCollector],
) -> ComparisonResult:
    """Fold each coordinate's metrics into a comparison over ``workload``.

    Runs are inserted in ``policy_names`` order, each from its (seed,
    shard) metrics in order, whatever order they were simulated in:
    :func:`metrics_digest` folds ``comparison.runs`` in insertion order.
    """
    comparison = ComparisonResult(workload=workload)
    for name in policy_names:
        run = PolicyRun(policy_name=name)
        for seed in seeds:
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
) -> Tuple[_CacheSession, Optional[TraceScan]]:
    """Build a plan's cache session: ``(session, calibration scan)``.

    The slice key holds exactly the plan fields that can change a slice's
    digest — and none that cannot (``workers`` and the sink are
    wall-clock/memory knobs whose digest-invariance the determinism tests
    lock), so one cached execution serves every worker/sink combination of
    the same experiment.  Of the scan, the key needs only the job count,
    which a generated tier's config holds: a tier's scan is ``None`` here,
    and runs only if a slice is simulated.
    """
    if cache is None:
        try:
            cache = ReplayCache(plan.cache)
        except OSError as exc:
            raise PlanError(
                f"cannot open replay cache at {plan.cache}: {exc}"
            ) from None
    fingerprint = source_fingerprint(source)
    scan = (
        None
        if isinstance(source, ClusterTierConfig)
        else _scan_source_fingerprinted(source, fingerprint)
    )
    base = {
        "source": fingerprint,
        "num_shards": min(plan.shards, _job_count(source, scan)),
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
        return left_sum(metrics.truncated_jobs for metrics in self._all_metrics())

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
    scan: Optional[TraceScan],
    session: Optional[_CacheSession],
    on_metrics: Optional[MetricsHook],
    pool: Optional[Executor] = None,
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
        pool=pool,
    )
    num_jobs = comparison.workload.config.num_jobs
    return ExecutedPlan(
        plan=plan,
        comparison=comparison,
        num_jobs=num_jobs,
        num_shards=min(plan.shards, num_jobs),
        cache_stats=session.cache.counters if session is not None else None,
    )


def probe_plan_cache(
    plan: ReplayPlan,
    cache: Optional[ReplayCache] = None,
    on_metrics: Optional[MetricsHook] = None,
) -> Optional[ExecutedPlan]:
    """Serve a plan entirely from its replay cache, or return ``None``.

    Never simulates and never loads the trace body: the only O(trace) work
    is a trace file's first-sight fingerprint and calibration scan, both
    memoized per content fingerprint — which is what lets the replay
    service answer a repeated tenant plan before any admission debit.  A
    generated tier costs neither: its fingerprint hashes its config, and its
    job count is a config field.
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
    pool: Optional[Executor] = None,
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

    ``pool`` is a persistent ``concurrent.futures`` process pool that runs
    every simulation in place of the per-call pool ``workers`` would start;
    the replay service passes its own.  The digest does not depend on it.

    Raises :class:`~repro.experiments.plan.PlanError` on an invalid plan,
    ``FileNotFoundError`` / ``OSError`` when a trace path cannot be read and
    ``TraceFormatError`` on malformed traces.
    """
    plan.validate()
    scale = plan_scale(plan)
    source = plan_source(plan)
    session: Optional[_CacheSession] = None
    scan: Optional[TraceScan] = None
    if cache is not None or plan.cache is not None:
        session, scan = _open_cache_session(plan, scale, source, cache)
        session.probe(plan.policies, scale.seeds)
    return _execute_plan(plan, scale, source, scan, session, on_metrics, pool)


def compare_policies(
    policy_names: Sequence[str],
    workload_config: WorkloadConfig,
    scale: Optional[ExperimentScale] = None,
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
    warm-up workload of ``scale.warmup_jobs`` jobs (0 turns warm-up off)
    whose generation *and* simulation are seeded by
    ``workload seed + WARMUP_SEED_OFFSET`` — independent of the run seed, so
    one warmed state serves every seed.  A request is a recipe: it carries
    the workload's config as its spec source and, for a learning policy,
    the warm-up's :class:`~repro.experiments.warmup.WarmupCache` recipe, and
    the process running it builds both.  Each process generates each
    workload once and warms each learning policy once, memoising both; a
    pool forked after this function generated the measured workload starts
    with it.  So a serial comparison warms each learning policy once, and a
    pool at most once per worker: a comparison over several seeds (every
    ``paper()`` cell) may warm a learning policy on every worker.  The memos
    are emptied when this function starts, so every call times its own
    generation and warm-ups.  The learning policies' requests are listed
    first, so their warm-ups reach the pool ahead of the stateless
    policies, which fill the other workers.  Restoring
    a snapshot is byte-equivalent to re-simulating the warm-up, so the
    metrics do not depend on the worker count.  ``warm_cache`` is accepted
    and ignored (the benchmark's figures workload passes it).  A measured
    seed equal to the warm-up seed is refused.  Stateless policies are never
    warmed: warm-up cannot affect a policy without cross-job state, so a
    comparison without a learning policy neither builds a warm-up nor
    checks its seed.

    ``sink`` picks the per-simulation result sink (the ``sink`` field of
    :class:`~repro.experiments.plan.ReplayPlan` describes the kinds); figure
    producers that slice raw results by their jobs' specs (Figure 6a's
    deadline bins) need the retaining default.

    Raises ``ValueError`` when a policy is named twice, since both runs
    would fold into one entry of the comparison, or when ``scale.seeds``
    is empty, names a seed twice, since that seed's results would count
    twice, or names a negative seed, which would replay the stream of its
    absolute value.
    """
    twice = repeated(policy_names)
    if twice:
        raise ValueError(f"policies named more than once: {', '.join(twice)}")
    scale = scale or ExperimentScale()
    if not scale.seeds:
        raise ValueError("a comparison needs at least one seed")
    twice = repeated(scale.seeds)
    if twice:
        raise ValueError(f"seeds named more than once: {', '.join(map(str, twice))}")
    negative = [seed for seed in scale.seeds if seed < 0]
    if negative:
        raise ValueError(f"seeds must be non-negative: {', '.join(map(str, negative))}")
    forget_memos()
    if workers is None:
        workers = scale.workers
    sink = sink or SinkFactory()
    generator_config = replace(
        workload_config,
        num_jobs=scale.num_jobs,
        size_scale=scale.size_scale,
        max_tasks_per_job=scale.max_tasks_per_job,
    )
    workload = generated(generator_config)
    learning = {name for name in policy_names if policy_learns(name)}
    warmup: Optional[WarmupCache] = None
    if scale.warmup_jobs > 0 and learning:
        warm_seed = generator_config.seed + WARMUP_SEED_OFFSET
        check_warmup_seed_collision(warm_seed, scale.seeds)
        warmup = WarmupCache(
            replace(generator_config, num_jobs=scale.warmup_jobs, seed=warm_seed),
            build_simulation_config(workload, scale, warm_seed),
        )

    # Learning policies first: their requests warm up, so they run longest.
    coords = sorted(
        ((name, seed, 0) for name in policy_names for seed in scale.seeds),
        key=lambda coord: coord[0] not in learning,
    )
    requests = [
        RunRequest(
            spec_source=generator_config,
            config=build_simulation_config(workload, scale, seed),
            policy_name=name,
            sink_factory=sink.with_tag(f"{name}-seed{seed}"),
            warm_state=warmup if name in learning else None,
        )
        for name, seed, _shard in coords
    ]
    collected = dict(zip(coords, ParallelExecutor(workers=workers).run(requests)))
    return _comparison(workload, policy_names, scale.seeds, 1, collected)
