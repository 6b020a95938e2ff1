"""Trace-driven replay: adapt JSONL traces into engine-ready workloads.

The paper's evaluation (§5, §6) replays Facebook and Bing production traces
through the prototype; this module is the reproduction's equivalent.  A
:class:`~repro.workload.traces.TraceJob` records *observed* per-task
durations, so replay has to answer three questions the synthetic generator
answers by construction:

* **Bounds** — traces do not record deadlines or error bounds.  Replay
  draws a job's wave count and hands the rest to the synthetic generator's
  §6.1 recipe (:func:`~repro.workload.synthetic.recipe_spec`), using a
  per-job RNG stream derived only from ``(seed, job_id)`` so the assignment
  is independent of how the trace is sharded or which policy replays it.
* **Stragglers** — observed durations already include straggling.  Replay
  treats them as task *works* and re-draws runtime multipliers from the
  framework's straggler model, with the Pareto truncation cap set to the
  trace's observed mean slowest-to-median ratio (the §2.2 statistic), so the
  replayed severity matches the trace rather than the profile's default.
* **Scale-out** — a full-length trace is split into arrival-window shards
  (:func:`shard_sizes`); each (policy, seed, shard) triple is an independent
  simulation that :func:`repro.experiments.runner.execute` feeds, as a lazy
  :class:`ShardSpecSource`, through the
  :class:`~repro.experiments.executor.ParallelExecutor`.

Because per-job seeding depends only on the job id, a job gets the same
bound, slot cap and intermediate phases whether it is replayed in the full
trace or inside any shard — which is what makes the sharded merge
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from repro.core.job import JobSpec
from repro.simulator.stragglers import StragglerModel
from repro.utils.rng import RngStream
from repro.workload.synthetic import (
    BOUND_KINDS,
    BOUND_MIXED,
    WorkloadConfig,
    generate_workload,
    recipe_spec,
    target_waves,
)
from repro.workload.traces import (
    TraceJob,
    TraceSummary,
    iter_trace,
    save_trace,
    summarize_trace,
    trace_from_specs,
)


@dataclass(frozen=True)
class TraceReplayConfig:
    """How a trace is turned into an engine workload.

    ``framework`` picks the execution profile (straggler shape, estimator
    noise, machine speeds); bounds of ``bound_kind`` are assigned per job by
    the synthetic generator's §6.1 recipe.  ``seed`` drives every stochastic
    choice through per-job streams, so two replays of the same trace with
    the same config are identical.
    """

    framework: str = "hadoop"
    bound_kind: str = BOUND_MIXED
    seed: int = 0

    def __post_init__(self) -> None:
        if self.bound_kind not in BOUND_KINDS:
            raise ValueError(f"unknown bound_kind {self.bound_kind!r}")

    def workload_config(self, num_jobs: int) -> WorkloadConfig:
        """Provenance stand-in for a replayed workload of ``num_jobs`` jobs.

        ``workload`` is ``"trace"``, which is not a profile name —
        ``framework_profile`` (the only profile downstream code reads for
        replay) stays valid, but ``workload_profile`` would not resolve,
        which is correct: a replayed trace has no synthetic profile.
        """
        return WorkloadConfig(
            workload="trace",
            framework=self.framework,
            num_jobs=num_jobs,
            bound_kind=self.bound_kind,
            seed=self.seed,
        )


def straggler_cap_from_ratio(mean_ratio: float) -> float:
    """Straggler truncation cap for an observed mean slowest/median ratio.

    The cap must exceed the multiplier's median (1.0), so traces with no
    observed straggling still yield a valid — nearly degenerate — model.
    The replay runner applies it to its calibration scan's
    ``TraceScan.mean_slowest_to_median``, so every shard replays under the
    full source's observed severity.
    """
    return max(1.05, mean_ratio)


def _job_spec_from_trace(
    job: TraceJob, config: TraceReplayConfig, arrival_time: float
) -> JobSpec:
    """Adapt one trace record into a two-phase JobSpec by the §6.1 recipe.

    The observed durations are the input tasks' works, and the intermediate
    tasks scale the job's median duration.  The RNG stream is derived from
    ``(config.seed, job.job_id)`` alone — not from the job's position in the
    trace — so sharding never changes a job's bound, slot cap or
    intermediate phases.
    """
    rng = RngStream(config.seed, "trace-replay").spawn(f"job/{job.job_id}")
    waves = target_waves(rng, job.size_bin)
    return recipe_spec(
        rng,
        job.job_id,
        arrival_time,
        job.task_durations,
        waves,
        intermediate_work=job.median_duration,
        bound_kind=config.bound_kind,
        dag_length=2,
        name=f"trace-{job.size_bin}-{job.job_id}",
    )


def iter_job_specs(
    jobs: Iterable[TraceJob], config: Optional[TraceReplayConfig] = None
) -> Iterator[JobSpec]:
    """Lazily adapt arrival-ordered trace records into engine ``JobSpec``\\ s.

    One ``TraceJob`` in, one ``JobSpec`` out, so a million-job trace never
    has to exist as a spec list.  The per-job RNG stream is derived from
    ``(config.seed, job_id)`` alone, and arrivals are rebased so the
    stream's first job arrives at time zero (shards replay concurrently,
    each as its own simulation).  Callers must feed jobs in
    ``(arrival_time, job_id)`` order; the engine validates the resulting
    spec order.
    """
    config = config or TraceReplayConfig()
    base_arrival: Optional[float] = None
    for job in jobs:
        if base_arrival is None:
            base_arrival = job.arrival_time
        yield _job_spec_from_trace(
            job, config, arrival_time=job.arrival_time - base_arrival
        )


def shard_sizes(total_jobs: int, num_shards: int) -> List[int]:
    """Job counts of each arrival-window shard for a trace of ``total_jobs``.

    The single definition of shard boundaries: :func:`slice_trace` and the
    replay runner's shard windows are cut to these sizes, so a shard holds
    the same jobs whether it is read lazily from a file, regenerated from
    the cluster tier or sliced from memory.  Shard counts larger than the trace collapse to
    one job per shard; no shard is ever empty.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if total_jobs < 1:
        raise ValueError("cannot shard an empty trace")
    num_shards = min(num_shards, total_jobs)
    base, extra = divmod(total_jobs, num_shards)
    return [base + (1 if index < extra else 0) for index in range(num_shards)]


def slice_trace(trace: Sequence[TraceJob], num_shards: int) -> List[List[TraceJob]]:
    """Split a trace into arrival-contiguous windows of near-equal job count.

    Jobs are ordered by arrival time and cut into ``num_shards`` contiguous
    windows, so each shard covers one span of the trace's arrival timeline.
    """
    if not trace:
        raise ValueError("cannot slice an empty trace")
    ordered = sorted(trace, key=lambda job: (job.arrival_time, job.job_id))
    shards: List[List[TraceJob]] = []
    start = 0
    for size in shard_sizes(len(ordered), num_shards):
        shards.append(ordered[start : start + size])
        start += size
    return shards


# ---------------------------------------------------------- cluster-scale tier


#: Mean seconds between consecutive tier arrivals.  Arrivals are strictly
#: increasing by construction: job ``i`` arrives at ``i * mean`` plus a
#: jitter drawn from ``[0, 0.9 * mean)``.
TIER_MEAN_INTERARRIVAL = 5.0
#: Median and sigma of the tier's log-normal task-count distribution, and
#: the cap on a job's task count.
TIER_MEDIAN_TASKS = 4.0
TIER_TASKS_SIGMA = 1.6
TIER_MAX_TASKS = 2000
#: Median observed task duration (seconds) before jitter/straggling, and the
#: sigma of its log-normal jitter.
TIER_MEDIAN_TASK_DURATION = 12.0
TIER_DURATION_SIGMA = 0.35
#: Fraction of tier tasks inflated by a straggler multiplier in [2, 8).
TIER_STRAGGLER_FRACTION = 0.05


@dataclass(frozen=True)
class ClusterTierConfig:
    """The ``scale=cluster`` synthetic tier: ~a million jobs, generated lazily.

    The fixture traces in ``traces/`` are 40 jobs; the paper's own traces are
    575K/500K (§Table 1).  This tier closes the *scale* gap: a seeded
    generator that yields :class:`~repro.workload.traces.TraceJob` records
    one at a time, byte-reproducible for a given config, so an
    ``iter_trace``-shaped source can feed a ``--sink aggregate`` replay at
    six orders of magnitude without any file or list ever holding the trace.

    Every job is generated **independently** from ``(seed, job index)``
    (:func:`cluster_trace_job` is random-access), which is what lets a shard
    regenerate exactly its own window without generating its predecessors —
    the same property the per-job bound RNG gives replay.

    The size model is a log-normal over task counts (the ``TIER_*``
    constants above), binned by the same small/medium/large thresholds as
    the Facebook/Bing fixtures: the mix is roughly 94% small, 6% medium and
    a 0.1% large tail (cluster traces are dominated by small jobs), keeping
    a million-job replay's event count tolerable.  Durations get log-normal
    jitter around :data:`TIER_MEDIAN_TASK_DURATION` plus an occasional
    straggler inflation so the calibration pre-pass derives a meaningful
    straggler cap, exactly as it would from a real trace.
    """

    num_jobs: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_jobs < 1:
            raise ValueError("num_jobs must be at least 1")

    def __str__(self) -> str:
        return f"cluster:{self.num_jobs} (seed {self.seed})"


def cluster_trace_job(config: ClusterTierConfig, index: int) -> TraceJob:
    """Generate job ``index`` of the cluster tier — random access, no state.

    The per-job RNG stream is derived from ``(config.seed, index)`` alone, so
    any slice of the tier regenerates byte-identically in any process.
    """
    if not 0 <= index < config.num_jobs:
        raise ValueError(f"job index {index} outside [0, {config.num_jobs})")
    rng = RngStream(config.seed, "cluster-tier").spawn(f"job/{index}")
    arrival = index * TIER_MEAN_INTERARRIVAL + rng.uniform(
        0.0, 0.9 * TIER_MEAN_INTERARRIVAL
    )
    num_tasks = min(
        TIER_MAX_TASKS,
        max(1, int(round(rng.lognormal(math.log(TIER_MEDIAN_TASKS), TIER_TASKS_SIGMA)))),
    )
    durations = []
    for _ in range(num_tasks):
        duration = TIER_MEDIAN_TASK_DURATION * rng.lognormal(0.0, TIER_DURATION_SIGMA)
        if rng.random() < TIER_STRAGGLER_FRACTION:
            duration *= rng.uniform(2.0, 8.0)
        durations.append(round(duration, 4))
    return TraceJob(job_id=index, arrival_time=arrival, task_durations=durations)


def iter_cluster_trace(
    config: ClusterTierConfig, start: int = 0, stop: Optional[int] = None
) -> Iterator[TraceJob]:
    """Lazily yield the cluster tier's jobs for ``[start, stop)``.

    O(1) memory: each job is generated, yielded, and dropped.  Arrivals are
    strictly increasing in the index (the jitter never spans an interarrival
    gap), so the stream satisfies the ``(arrival_time, job_id)`` sort every
    streaming consumer requires, and duplicate ids are impossible by
    construction — no seen-id set is needed, unlike :func:`iter_trace`.
    """
    stop = config.num_jobs if stop is None else min(stop, config.num_jobs)
    for index in range(start, stop):
        yield cluster_trace_job(config, index)


# --------------------------------------------------------------- shard sources


#: A replay source: a JSONL trace path, the generated cluster tier, or trace
#: jobs already in memory (the ``trace-replay`` figure's synthesized trace).
TraceSource = Union[str, Path, ClusterTierConfig, Sequence[TraceJob]]


def source_jobs(
    source: TraceSource, start: int = 0, stop: Optional[int] = None
) -> Iterator[TraceJob]:
    """Lazily yield the jobs of ``source`` at input positions ``[start, stop)``.

    The only code that knows how each kind of source yields its jobs: a
    file is parsed line by line (the jobs before ``start`` are parsed and
    skipped), the cluster tier regenerates exactly its own window, and a job
    sequence is read in place.
    """
    if isinstance(source, ClusterTierConfig):
        return iter_cluster_trace(source, start, stop)
    if isinstance(source, (str, Path)):
        return islice(iter_trace(source), start, stop)
    return islice(source, start, stop)


@dataclass(frozen=True)
class ShardSpecSource:
    """One arrival-window shard of a replay source: a lazy, picklable spec stream.

    Executor run requests carry this instead of a materialised spec list,
    and the *executing* process feeds :func:`iter_job_specs` over
    ``source_jobs(jobs, start, stop)`` straight into the engine's spec
    ingestion, so no process ever holds the shard's specs at once.  ``jobs``
    is one of:

    * a trace path, sorted by ``(arrival_time, job_id)``, or the cluster
      tier's config, windowed at ``[start, stop)`` where the request runs —
      the request's size does not grow with the source;
    * for a trace that had to be sorted in memory (a file whose lines are
      not in arrival order, or a job list), this shard's own jobs, with
      ``[start, stop)`` spanning all of them.

    Either way the shard holds the same jobs in the same order, so its
    specs are byte-identical.
    """

    jobs: TraceSource
    replay_config: TraceReplayConfig
    start: int
    stop: int
    shard_index: int = 0
    num_shards: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.shard_index < self.num_shards:
            raise ValueError("shard_index must lie in [0, num_shards)")
        if not 0 <= self.start < self.stop:
            raise ValueError("a shard window needs 0 <= start < stop")

    def iter_specs(self) -> Iterator[JobSpec]:
        """Read this shard's jobs and adapt them spec by spec."""
        return iter_job_specs(
            source_jobs(self.jobs, self.start, self.stop), self.replay_config
        )

    def __str__(self) -> str:
        if isinstance(self.jobs, ClusterTierConfig):
            origin = str(self.jobs)
        elif isinstance(self.jobs, (str, Path)):
            origin = Path(self.jobs).name
        else:
            origin = "memory"
        return (
            f"shard[{self.shard_index + 1}/{self.num_shards}] "
            f"of {origin} ({self.stop - self.start} jobs)"
        )


# --------------------------------------------------------------- synthesizer


def synthesize_trace(
    workload: str = "facebook",
    framework: str = "hadoop",
    num_jobs: int = 100,
    size_scale: float = 0.25,
    max_tasks_per_job: Optional[int] = 400,
    seed: int = 7,
) -> List[TraceJob]:
    """Synthesize a paper-shaped trace (observed durations, not raw works).

    The real Facebook/Bing traces are proprietary, so the repo ships
    synthetic look-alikes instead: a calibrated workload is generated and
    each task's duration is inflated by the framework's straggler multiplier
    for its first copy — the same "observed duration" construction Table 1
    uses.  Durations are rounded to 4 decimals to keep JSONL fixtures small;
    the precision is far below anything the simulator is sensitive to.
    """
    config = WorkloadConfig(
        workload=workload,
        framework=framework,
        num_jobs=num_jobs,
        size_scale=size_scale,
        max_tasks_per_job=max_tasks_per_job,
        seed=seed,
    )
    generated = generate_workload(config)
    straggler = StragglerModel(config.framework_profile.stragglers, seed=seed)
    trace = trace_from_specs(generated.specs())
    for job in trace:
        job.task_durations = [
            round(duration * straggler.multiplier(job.job_id, index, 0), 4)
            for index, duration in enumerate(job.task_durations)
        ]
    return trace


def export_trace(
    path: Union[str, Path],
    workload: str = "facebook",
    framework: str = "hadoop",
    num_jobs: int = 100,
    size_scale: float = 0.25,
    max_tasks_per_job: Optional[int] = 400,
    seed: int = 7,
) -> TraceSummary:
    """Synthesize a trace, write it as JSONL, and return its summary."""
    trace = synthesize_trace(
        workload=workload,
        framework=framework,
        num_jobs=num_jobs,
        size_scale=size_scale,
        max_tasks_per_job=max_tasks_per_job,
        seed=seed,
    )
    save_trace(trace, path)
    return summarize_trace(trace, name=f"{workload}-like")
