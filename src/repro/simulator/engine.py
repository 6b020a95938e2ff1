"""The discrete-event simulation engine.

The engine drives a set of jobs (from the workload generator) through a
cluster under one speculation policy.  It owns:

* the event loop (job arrivals, copy completions, deadlines),
* slot accounting and fair-share allocation across concurrent jobs,
* the per-job ``trem`` / ``tnew`` estimators and their accuracy tracking,
* one scheduling index per running job, which serves the policy-facing
  :class:`SchedulingView` — over the estimators, or over true durations
  (:class:`~repro.core.policies.base.ExactIndex`) for a policy that declares
  ``exact_estimates`` (the oracle),
* job termination semantics for deadline-bound, error-bound and exact jobs.

It deliberately knows nothing about *which* policy it is running; GS, RAS,
GRASS, LATE, Mantri and the oracle all plug into the same
:class:`~repro.core.policies.base.SpeculationPolicy` interface.

Performance
-----------

The event loop is engineered so that processing one event costs O(affected
state), never O(cluster) or O(workload):

* job specs, jobs and task copies are reached through ``dict`` indexes
  (``job_id -> JobSpec``, ``copy_id -> TaskCopy``) instead of linear scans;
* jobs maintain per-phase pending/completed counters and running-copy totals
  incrementally (see :class:`~repro.core.task.TaskObserver`), so scheduling
  queries never rescan every task;
* fair-share allocations are recomputed only when a *dirty flag* says the
  running-job set or some job's schedulable counts actually changed, and
  when the jobs' positive limits fit in the free capacity — the common,
  uncontended case — every job gets exactly its limit without running the
  max-min rounds;
* ``COPY_FINISH`` events of killed copies and ``JOB_DEADLINE`` events of
  early-finishing jobs are cancelled via :meth:`EventQueue.cancel` rather
  than popped and discarded, keeping the heap small and the simulated
  timeline free of dead wake-ups.

On top of the asymptotics, the hot path is flattened for single-core
constant factors — under the invariant that every optimisation leaves the
metrics digests *byte-identical* (same RNG draw order, same float operation
order; ``scripts/check.sh replay-determinism`` and the digest-pinned tests
enforce this):

* an event is one ``(time, kind, job_id, task_id, copy_id)`` tuple, its
  heap entry a ``(time, kind, sequence)`` tuple and its cancel handle the
  sequence number, and all events sharing a timestamp are drained as one
  cohort per loop iteration (:meth:`EventQueue.pop_at_or_before`);
* the cluster keeps flat columns over machines (a ``speed_column`` array, a
  cached ``median_speed``) and a sorted list of idle machine ids, so
  ``pick_machine`` draws from it instead of rescanning all machines per
  launch;
* each job carries an incremental :class:`SchedulingIndex` — task snapshots
  plus a ``(tnew, task_id)``-sorted pending list — that is *replayed*
  against estimator feedback instead of rebuilt per scheduling round;
  re-estimates refresh the sorted list lazily and defer snapshot writes
  until a policy actually materialises the view.  Every estimate of a
  running task comes from one walk,
  :meth:`~repro.core.estimators.TaskEstimator.update_running_snaps`, which
  inlines ``tnew``/``trem``/``record_trem_outcome`` with the per-walk
  constants hoisted: a rebuild, a re-estimate and a retime each make one
  walk, and a replayed round walks each task that launched a copy since
  the last walk on its own.  Every view is built this one way: oracle runs
  use an :class:`ExactIndex`, which walks the tasks only on a phase change
  and otherwise refreshes just the running ones;
* every policy, the oracle included, picks in O(running tasks) without
  materialising the snapshot list: GS/RAS/GRASS read the sorted
  structures, and the baselines (LATE, Mantri, no-spec) read
  ``SchedulingView.running()`` (the index's running ids) and
  ``first_pending()`` (a per-phase cursor to the lowest-id pending task);
* policies whose choice is a pure function of the index state declare
  ``stateless_choose`` (GS, RAS and the three baselines), letting the engine
  skip the re-ask after a ``None`` decision when nothing it reads has
  changed — a new allocation drops the cached answer too, since LATE reads
  the wave width — while the mandated estimator folds still run;
* the straggler model reseeds one scratch generator per copy through the
  C-level ``seed`` with a pre-encoded digest prefix, instead of spawning a
  fresh RNG stream per multiplier.

Measured by ``benchmarks/bench_engine_hotpath.py`` at ``default`` scale,
the flattening took the seed engine from 943 (gs) / 1,096 (grass)
events/second to 6,419 / 5,651 on the same box — roughly 6.8x and 5.2x
(about 5.3x / 4.0x after calibration-normalising for machine speed; the
original 10x target proved out of reach in pure CPython once every remaining
cost — Mersenne-Twister reseeds, estimator folds, per-epoch re-sorts — was
shown to be mandated by digest equivalence).  ``BENCH_engine.json`` tracks
the numbers and ``scripts/check.sh bench-gate`` holds both quick- and
default-scale throughput to a 30% regression budget; it records gs, grass,
late and mantri.

Serving the baselines from the index and skipping their repeat asks cut a
traced ``perfbench`` ``replay-cold`` run (grass + late over a 1,000-job
trace, 2-vCPU host) from 89,815 to 77,117 policy asks and from 1.51 s to
0.77 s of time inside ``choose_task``, with the simulated work unchanged
(25,264 events, 42,800 estimator walks and 34,519 straggler draws on both
sides).  Over twenty alternating parent/change pairs of the untraced run
the median ``jobs_per_s`` went from 503 to 570 (median per-pair ratio 1.15;
the change won 19, the twentieth was a 0.1% tie).  What remains is mostly
those walks and draws, which the digests require.  Since the rebuild and
the replay's one-task re-estimates became walks of their own, the same
traced run counts 61,721 walks (``estimators.update_calls``, 42,800
before) and a traced ``figures`` run 50,152 (29,306), with events, asks,
draws and digests unchanged.

Memory
------

Resident state is O(max *concurrent* jobs), never O(workload) — the only
per-job residues are plain ints (the duplicate-id check's id set) and the
metrics' per-job results, never specs, tasks or estimators:

* ``job_specs`` may be a lazy ``Iterable[JobSpec]`` (any non-``Sequence``
  iterable, e.g. a generator) sorted by ``(arrival_time, job_id)``.  The
  engine holds a one-spec lookahead and injects each ``JOB_ARRIVAL`` only
  when the previous arrival has been handled, so specs materialise one at a
  time, interleaved correctly with in-flight copy-finish/deadline events.
  A ``Sequence`` is sorted first and then consumed the same way, so there
  is one ingestion path; ``tests/test_stream_specs.py`` checks that a list
  and the same specs as a sorted iterator give byte-identical metrics.
* ``_finish_job`` evicts the job's ``Job``, ``TaskEstimator``, scheduling
  index and spec the moment its :class:`~repro.core.job.JobResult` is
  recorded (outstanding event handles were already cancelled), so finished
  jobs never accumulate.  ``peak_resident_jobs`` reports the high-water mark.
* Eviction frees the job at once, by reference counting: the per-job object
  graph has no cycle.  ``Job.finish`` drops its tasks' ``observer``
  back-references, and eviction clears the index's reused view, which
  points back at the index (``view.sched``).  With either loop in place,
  every finished job (its tasks, copies, snapshots, estimator, index and
  view: about 245 objects) waited for a full pass of the cyclic collector.
  One serial execute of perfbench's ``replay-cold`` plan (2,000 job runs)
  left 489,984 unreachable objects and spent 4.5-4.9% of its wall time in
  collections; it now leaves none and spends 0.8-0.9%.  A serial
  (``--workers 1``) cluster-tier replay of 2,000 / 8,000 jobs peaks at
  25.2 / 25.8 MiB RSS, against 31.1 / 32.2 MiB with the cycles (2-vCPU
  host, CPython 3.11).
  ``tests/test_stream_specs.py`` checks that every registry policy leaves
  no cyclic garbage and that a job is freed before the run ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.core.estimators import EstimatorConfig, TaskEstimator
from repro.core.job import Job, JobSpec, JobState
from repro.core.policies.base import (
    ExactIndex,
    SchedulingIndex,
    SchedulingView,
    SpeculationPolicy,
)
from repro.core.task import Task, TaskCopy
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.events import EventKind, EventQueue, EventTuple
from repro.simulator.metrics import MetricsCollector
from repro.simulator.sinks import ResultSink, RetainAllSink
from repro.simulator.stragglers import StragglerConfig, StragglerModel
from repro.utils.rng import RngStream
from repro.utils.stats import left_sum


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to run one simulation besides the jobs and the policy."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    stragglers: StragglerConfig = field(default_factory=StragglerConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    seed: int = 0
    max_simulated_time: float = 10_000_000.0

    def __post_init__(self) -> None:
        if self.max_simulated_time <= 0:
            raise ValueError("max_simulated_time must be positive")


class Simulation:
    """Runs a workload under one speculation policy and collects metrics."""

    def __init__(
        self,
        config: SimulationConfig,
        policy: SpeculationPolicy,
        job_specs: Union[Sequence[JobSpec], Iterable[JobSpec]],
        sink: Optional[ResultSink] = None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.cluster = Cluster(config.cluster)
        self.stragglers = StragglerModel(config.stragglers, seed=config.seed)
        # Where per-job results go: retained (default), folded into streaming
        # aggregates, or spilled to disk — see ``repro.simulator.sinks``.
        # With a non-retaining sink the collector holds zero JobResults, so
        # a streaming replay's memory is independent of trace length.
        self.metrics = MetricsCollector(sink=sink if sink is not None else RetainAllSink())
        self._events = EventQueue()
        self._now = 0.0
        self._rng = RngStream(config.seed, "engine")
        if isinstance(job_specs, Sequence):
            # A materialised workload is sorted, then consumed like a stream.
            job_specs = sorted(
                job_specs, key=lambda spec: (spec.arrival_time, spec.job_id)
            )
        # Specs materialise one at a time; ordering and id uniqueness are
        # enforced as they are consumed by ``_push_next_arrival``.  The dedup
        # set holds job *ids* only (ints, never specs) — the same bounded
        # bookkeeping ``traces.iter_trace`` keeps, and no more than the
        # results list already grows.
        self._spec_stream: Iterator[JobSpec] = iter(job_specs)
        self._seen_job_ids: set = set()
        self._next_spec: Optional[JobSpec] = next(self._spec_stream, None)
        if self._next_spec is None:
            raise ValueError("a simulation needs at least one job")
        self._last_arrival_key: Optional[Tuple[float, int]] = None
        # Specs whose arrival event is scheduled but has not fired yet (at
        # most one at a time); evicted again the moment the job finishes.
        self._spec_by_id: Dict[int, JobSpec] = {}
        self._jobs: Dict[int, Job] = {}
        self._estimators: Dict[int, TaskEstimator] = {}
        # Per-job incremental scheduling indexes: live snapshots plus sorted
        # selection structures, kept consistent with the estimators' noise
        # caches — see ``SchedulingIndex``.  A policy that sees true
        # durations gets an ``ExactIndex`` per job instead.
        self._sched_index: Dict[int, SchedulingIndex] = {}
        self._exact_estimates = bool(getattr(policy, "exact_estimates", False))
        # Insertion-ordered job-id set (dict keys): O(1) removal on job
        # finish with the same deterministic iteration order the old list
        # gave the fair-share and dispatch loops.
        self._running_job_ids: Dict[int, None] = {}
        self._copy_counter = 0
        self.peak_resident_jobs = 0
        self._total_slots = self.cluster.total_slots
        # Outstanding event handles (sequence numbers), used to cancel events
        # that can no longer matter (killed copies, jobs that finished before
        # their deadline).
        self._deadline_events: Dict[int, int] = {}
        self._copy_finish_events: Dict[int, int] = {}
        # Fair-share allocations are recomputed lazily: any mutation that can
        # change a job's demand (or the running-job set) raises this flag.
        self._alloc_dirty = True
        # Stateless-choice policies (GS, RAS and the baselines) let the
        # dispatch loop cache a None decision per index state instead of
        # re-asking; see ``SpeculationPolicy.stateless_choose``.
        self._stateless_choice = bool(getattr(policy, "stateless_choose", False))
        self.events_processed = 0

    # ------------------------------------------------------------------ lifecycle

    def run(self) -> MetricsCollector:
        """Execute the simulation to completion and return the metrics."""
        self._push_next_arrival()
        truncated = False
        while True:
            event = self._events.pop()
            if event is None:
                break
            if event[0] > self.config.max_simulated_time:
                truncated = True
                break
            self._now = max(self._now, event[0])
            self._process_event(event)
            # Apply every other event scheduled for the same instant before
            # making new scheduling decisions, so simultaneous completions
            # free their slots together (and deadlines see them as finished).
            # ``pop_at_or_before`` drains the cohort in one heap inspection
            # per event instead of a peek/pop pair.
            while True:
                cohort_event = self._events.pop_at_or_before(self._now)
                if cohort_event is None:
                    break
                self._process_event(cohort_event)
            self._recompute_allocations()
            self._dispatch()
        if truncated:
            self.metrics.truncated_jobs = self._count_truncated_jobs()
        # Force-finish anything still running (jobs in flight when the clock
        # ran out, or — the safety net — workloads a policy refused to
        # schedule); their partial results are still recorded.
        for job_id in list(self._running_job_ids):
            self._finish_job(self._jobs[job_id])
        self.metrics.simulated_time = self._now
        self.metrics.peak_resident_jobs = self.peak_resident_jobs
        self.metrics.events_processed = self.events_processed
        # Let the sink finalise (a spill sink flushes and closes its file);
        # results recorded after this point would be a bug, not a feature.
        self.metrics.sink.finish()
        return self.metrics

    def _count_truncated_jobs(self) -> int:
        """Jobs cut off by ``max_simulated_time``: in flight or never arrived.

        In-flight jobs are force-finished with partial results; jobs whose
        arrivals lie beyond the horizon produce no result at all.  Counting
        the latter drains the spec stream (O(trace) time, O(1) memory) —
        acceptable on the truncation path, which is the exceptional exit.
        """
        never_arrived = len(self._spec_by_id) - len(self._jobs)
        if self._next_spec is not None:
            never_arrived += 1
        never_arrived += left_sum(1 for _ in self._spec_stream)
        return len(self._running_job_ids) + never_arrived

    # ------------------------------------------------------------------ event handlers

    def _process_event(self, event: EventTuple) -> None:
        """Apply one event's state changes (no scheduling decisions here)."""
        self.events_processed += 1
        _, kind, job_id, task_id, copy_id = event
        if kind is EventKind.JOB_ARRIVAL:
            self._handle_arrival(job_id)
        elif kind is EventKind.COPY_FINISH:
            self._handle_copy_finish(job_id, task_id, copy_id)
        elif kind is EventKind.JOB_DEADLINE:
            self._handle_deadline(job_id)

    def _push_next_arrival(self) -> None:
        """Schedule the lookahead spec's arrival and advance the lookahead.

        Exactly one not-yet-arrived spec has an event in the queue at any
        time.  Because specs are consumed in ``(arrival_time, job_id)`` order
        (a sequence is sorted up front, and the order is enforced here), the
        pop order of the queue is byte-identical to the old
        push-everything-up-front scheme: arrival/arrival ties are injected in
        key order, and arrival ties against other kinds are resolved by the
        kind priority, never by push order.
        """
        spec = self._next_spec
        if spec is None:
            return
        key = (spec.arrival_time, spec.job_id)
        if self._last_arrival_key is not None and key <= self._last_arrival_key:
            raise ValueError(
                "job specs must be sorted by (arrival_time, job_id) with "
                f"unique ids (job {spec.job_id} at t={spec.arrival_time} after "
                f"key {self._last_arrival_key})"
            )
        if spec.job_id in self._seen_job_ids:
            raise ValueError("job ids must be unique within a workload")
        self._seen_job_ids.add(spec.job_id)
        self._last_arrival_key = key
        self._spec_by_id[spec.job_id] = spec
        self._events.push(spec.arrival_time, EventKind.JOB_ARRIVAL, spec.job_id)
        self._next_spec = next(self._spec_stream, None)

    def _handle_arrival(self, job_id: int) -> None:
        spec = self._spec_by_id[job_id]
        job = Job(spec)
        job.start(self._now)
        self._jobs[job_id] = job
        if len(self._jobs) > self.peak_resident_jobs:
            self.peak_resident_jobs = len(self._jobs)
        self._estimators[job_id] = TaskEstimator(
            self.config.estimator, self._rng.spawn(f"estimator/{job_id}")
        )
        self._running_job_ids[job_id] = None
        self._alloc_dirty = True
        self._recompute_allocations()
        self._set_input_deadline(job)
        if spec.bound.is_deadline:
            assert spec.bound.deadline is not None
            effective = job.input_deadline
            if effective is None:
                effective = spec.bound.deadline
            self._deadline_events[job_id] = self._events.push(
                self._now + effective, EventKind.JOB_DEADLINE, job_id
            )
        self.policy.on_job_start(job, self._now)
        # This arrival is done; stage the next one (same or later instant, so
        # the same-instant drain in ``run`` still sees it before dispatching).
        self._push_next_arrival()

    def _handle_copy_finish(self, job_id: int, task_id: int, copy_id: int) -> None:
        job = self._jobs[job_id]
        # Killed copies and finished jobs cancel their outstanding events, so
        # a fired COPY_FINISH always refers to a live copy of a running job.
        assert job.is_running, "COPY_FINISH fired for a finished job"
        task = job.tasks[task_id]
        copy = task.copy_by_id(copy_id)
        assert copy is not None and copy.is_running(), (
            "COPY_FINISH fired for a killed copy (its event should have been "
            "cancelled)"
        )
        self._copy_finish_events.pop(copy_id, None)
        estimator = self._estimators[job_id]
        killed = task.complete(self._now, copy)
        index = self._sched_index.get(job_id)
        if index is not None:
            index.on_task_finished(task)
        self._release_copy(job, copy)
        for victim in killed:
            self._cancel_copy_event(victim.copy_id)
            self._release_copy(job, victim)
            self.metrics.record_wasted_work(victim.end_time - victim.start_time)
        self._alloc_dirty = True
        actual_duration = copy.end_time - copy.start_time
        estimator.observe_completion(task, actual_duration)
        if job.all_required_work_done():
            self._finish_job(job)

    def _handle_deadline(self, job_id: int) -> None:
        self._deadline_events.pop(job_id, None)
        job = self._jobs.get(job_id)
        if job is None or not job.is_running:
            return
        self._finish_job(job)

    def _cancel_copy_event(self, copy_id: int) -> None:
        """Drop the pending COPY_FINISH event of a killed copy, if any."""
        sequence = self._copy_finish_events.pop(copy_id, None)
        if sequence is not None:
            self._events.cancel(sequence)

    # ------------------------------------------------------------------ job management

    def _set_input_deadline(self, job: Job) -> None:
        """Apportion a deadline-bound job's deadline to its input phase (§5.2).

        The time the intermediate phases will need is estimated from their
        task counts, the job's allocation and the median intermediate task
        work, and subtracted from the overall deadline.  The remainder is the
        input-phase deadline the policies see.  Only the input phase is then
        simulated for deadline-bound jobs; the accuracy metric depends only
        on input tasks (§5.2).
        """
        if not job.bound.is_deadline:
            return
        assert job.bound.deadline is not None
        intermediate_estimate = 0.0
        allocation = max(1, job.allocation)
        for phase in job.spec.intermediate_phases:
            # ``median_work`` is cached on the spec: re-sorting the phase's
            # works on every deadline-bound arrival was pure waste.
            waves = math.ceil(phase.task_count / allocation)
            intermediate_estimate += waves * phase.median_work
        job.input_deadline = max(
            1e-3, job.bound.deadline - intermediate_estimate
        )

    def _finish_job(self, job: Job) -> None:
        sequence = self._deadline_events.pop(job.job_id, None)
        if sequence is not None:
            self._events.cancel(sequence)
        killed = job.abandon_incomplete_tasks(self._now)
        for victim in killed:
            self._cancel_copy_event(victim.copy_id)
            self._release_copy(job, victim)
            self.metrics.record_wasted_work(victim.end_time - victim.start_time)
        job.finish(self._now)
        self._running_job_ids.pop(job.job_id, None)
        self._alloc_dirty = True
        # Evict the finished job's state the moment its result is recorded:
        # without this, resident jobs/estimators/specs grow with trace length
        # even though only the results are ever read again.  Every pending
        # event handle was cancelled above, so nothing can reach the job.
        estimator = self._estimators.pop(job.job_id)
        index = self._sched_index.pop(job.job_id, None)
        if index is not None:
            # Break the index <-> view cycle, so the pops free them too.
            index.view = None
        self._jobs.pop(job.job_id, None)
        self._spec_by_id.pop(job.job_id, None)
        result = job.to_result(
            policy_label=self.policy.label(),
            estimator_accuracy=estimator.combined_accuracy,
        )
        self.metrics.add_result(result)
        self.policy.on_job_finish(job, result, self._now)

    def _recompute_allocations(self) -> None:
        if not self._alloc_dirty:
            return
        self._alloc_dirty = False
        if not self._running_job_ids:
            return
        jobs = self._jobs
        # A job's limit is its demand capped by ``max_slots``: pending tasks
        # plus one extra speculative copy per running task.
        limits: Dict[int, int] = {}
        for job_id in self._running_job_ids:
            job = jobs[job_id]
            phase = job.current_phase()
            if phase >= job.dag_length:
                demand = 1
            else:
                pending = job._pending_by_phase[phase]
                running = len(job._unfinished_by_phase[phase]) - pending
                demand = pending + 2 * running
                if demand < 1:
                    demand = 1
            cap = job.spec.max_slots
            limits[job_id] = demand if cap is None else min(cap, demand)
        allocations = self.cluster.fair_share_limits(limits)
        sched_index = self._sched_index
        for job_id, allocation in allocations.items():
            job = jobs[job_id]
            if job.allocation != allocation:
                job.allocation = allocation
                # A cached None answer may have read the old wave width
                # (LATE's speculative budget does).  The clock has usually
                # moved on by the next dispatch, but a copy shorter than the
                # clock's float resolution finishes at the same instant, and
                # the next dispatch then runs at the same ``now``.
                index = sched_index.get(job_id)
                if index is not None:
                    index.choice_void = False

    # ------------------------------------------------------------------ dispatch

    def _dispatch(self) -> None:
        """Give every running job a chance to fill its allocation."""
        # Nothing below mutates the running-job set (jobs finish in event
        # handlers, never mid-dispatch), so the id dict is iterated directly;
        # slot capacity is likewise loop-invariant.
        cluster = self.cluster
        jobs = self._jobs
        choose_task = self.policy.choose_task
        total = self._total_slots
        stateless = self._stateless_choice
        sched_index = self._sched_index
        estimators = self._estimators
        now = self._now
        progress = True
        while progress:
            progress = False
            for job_id in self._running_job_ids:
                job = jobs[job_id]
                if job.state != JobState.RUNNING:
                    continue
                if job._running_copy_total >= job.allocation:
                    continue
                if cluster._busy_count >= total:
                    return
                if stateless:
                    # A stateless policy that said None for this exact index
                    # state will say None again: skip the re-ask, but emit
                    # the accuracy-tracker fold the replayed walk owes.
                    index = sched_index.get(job_id)
                    if (
                        index is not None
                        and index.choice_void
                        and not index.dirty
                        and index.now == now
                    ):
                        estimator = estimators[job_id]
                        if (
                            index.epoch == estimator.completed_samples
                            and index.gen == estimator.noise_generation
                        ):
                            index._replay()
                            continue
                view = self._build_view(job)
                if view is None:
                    continue
                snap = choose_task(view)
                if snap is None:
                    if stateless:
                        index = sched_index.get(job_id)
                        if index is not None:
                            index.choice_void = True
                    continue
                self._launch_copy(job, snap.task, speculative=snap.running)
                progress = True
        self.metrics.record_utilization(self._effective_utilization())

    def _effective_utilization(self) -> float:
        return self.cluster.busy_slots / self._total_slots

    def _build_view(self, job: Job) -> Optional[SchedulingView]:
        job_id = job.spec.job_id
        estimator = self._estimators[job_id]
        index = self._sched_index.get(job_id)
        if index is None:
            if self._exact_estimates:
                index = ExactIndex(job, self._oracle_tnew, Task.true_remaining)
            else:
                index = SchedulingIndex(job, estimator)
            self._sched_index[job_id] = index
        # ``prepare`` performs (or replays) the per-task estimation walk,
        # including its accuracy-tracker feedback, so the view fields below
        # read post-walk estimator state.
        if not index.prepare(self._now):
            return None
        phase_index = index.phase
        is_input = phase_index == 0
        if is_input:
            remaining_deadline = job.remaining_deadline(self._now)
            remaining_required = job.remaining_required_tasks()
        else:
            remaining_deadline = None
            # Schedulable tasks are unfinished by construction, so the old
            # ``sum(1 for task if not task.is_finished)`` is just the count.
            remaining_required = len(index.snaps)
        # ``_effective_utilization`` and ``combined_accuracy``, inlined (same
        # float expressions, minus the property/descriptor hops).
        utilization = self.cluster._busy_count / self._total_slots
        trem_mean = estimator.trem_tracker._accuracy
        tnew_mean = estimator.tnew_tracker._accuracy
        accuracy = 0.5 * (
            (trem_mean._mean if trem_mean.count else 1.0)
            + (tnew_mean._mean if tnew_mean.count else 1.0)
        )
        allocation = job.allocation
        view = index.view
        if view is None:
            view = index.view = SchedulingView(
                now=self._now,
                job=job,
                sched=index,
                bound=job.bound,
                remaining_deadline=remaining_deadline,
                remaining_required_tasks=remaining_required,
                wave_width=allocation if allocation > 1 else 1,
                cluster_utilization=utilization,
                estimator_accuracy=accuracy,
                phase_index=phase_index,
                is_input_phase=is_input,
            )
        else:
            # One view per index, mutated per round: no policy retains views
            # across ``choose_task`` calls, and the lazy snapshot-list cache
            # is reset so ``view.tasks`` re-materialises from the live index.
            view.now = self._now
            view._tasks = None
            view.remaining_deadline = remaining_deadline
            view.remaining_required_tasks = remaining_required
            view.wave_width = allocation if allocation > 1 else 1
            view.cluster_utilization = utilization
            view.estimator_accuracy = accuracy
            view.phase_index = phase_index
            view.is_input_phase = is_input
        return view

    def _oracle_tnew(self, task: Task) -> float:
        """True duration the *next* copy of ``task`` would have (exact estimates).

        The draw is keyed on ``total_copies_launched``, the copy index
        :meth:`_launch_copy` gives the next copy.
        """
        spec = task.spec
        # The oracle cannot know which machine the copy will land on, so it
        # uses the median machine speed — cached at Cluster construction; the
        # straggler multiplier (the part that matters) is exact.
        return self.stragglers.copy_duration(
            spec.work,
            self.cluster.median_speed,
            spec.job_id,
            spec.task_id,
            task.total_copies_launched,
        )

    # ------------------------------------------------------------------ copy management

    def _launch_copy(self, job: Job, task: Task, speculative: bool) -> None:
        machine = self.cluster.pick_machine()
        if machine is None:
            return
        spec = task.spec
        job_id = spec.job_id
        task_id = spec.task_id
        copy_index = len(task.copies)
        duration = self.stragglers.copy_duration(
            spec.work, machine.speed_factor, job_id, task_id, copy_index
        )
        copy_id = self._copy_counter
        self._copy_counter = copy_id + 1
        copy = TaskCopy(
            copy_id=copy_id,
            task_id=task_id,
            machine_id=machine.machine_id,
            start_time=self._now,
            duration=duration,
        )
        task.add_copy(copy)
        index = self._sched_index.get(job_id)
        if index is not None:
            index.on_copy_launched(task)
        self.cluster.occupy(machine.machine_id, job_id, task_id, copy_id)
        if speculative:
            job.speculative_copies_launched += 1
        self.metrics.record_copy_launch(speculative)
        self._alloc_dirty = True
        self._copy_finish_events[copy_id] = self._events.push(
            self._now + duration, EventKind.COPY_FINISH, job_id, task_id, copy_id
        )

    def _release_copy(self, job: Job, copy: TaskCopy) -> None:
        self.cluster.release(copy.machine_id, job.job_id, copy.task_id, copy.copy_id)
