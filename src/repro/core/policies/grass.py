"""GRASS: the adaptive combination of RAS and GS (§4).

A job managed by GRASS starts under RAS (resource-aware speculation pays off
while many waves remain) and switches to GS as it approaches its
approximation bound (greedy speculation pays off in the final waves).  The
switch point is learned from samples of previous jobs; to keep generating
samples GRASS perturbs a fraction ξ of jobs, pinning them to pure GS or pure
RAS for their whole lifetime and recording their completion curves.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from repro.core.job import Job, JobResult
from repro.core.policies.base import (
    SchedulingView,
    SpeculationPolicy,
    TaskSnapshot,
)
from repro.core.policies.gs import GreedySpeculative
from repro.core.policies.ras import ResourceAwareSpeculative
from repro.core.policies.samples import JobSample, SampleStore
from repro.core.policies.switching import (
    ALL_FACTORS,
    LearnedSwitchDecider,
    StrawmanSwitchDecider,
    SwitchDecider,
)
from repro.utils.rng import RngStream


@dataclass(frozen=True)
class GrassConfig:
    """Tunables of the GRASS policy.

    ``perturbation`` is ξ from §4.2 (the paper finds 15 % empirically best).
    ``switching`` selects the learned decider or the two-wave strawman, and
    ``factors`` controls which of the three learning factors are used (the
    Best-1 / Best-2 ablations of §6.3.2 drop factors from this set).  An
    adaptive job asks its decider at most once per
    :data:`SWITCH_CHECK_INTERVAL` simulated seconds.
    """

    perturbation: float = 0.15
    switching: str = "learned"
    factors: FrozenSet[str] = field(default_factory=lambda: ALL_FACTORS)
    max_copies_per_task: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.perturbation <= 1.0:
            raise ValueError("perturbation must be in [0, 1]")
        if self.switching not in ("learned", "strawman"):
            raise ValueError("switching must be 'learned' or 'strawman'")


#: Simulated seconds between two switch decisions for one adaptive job.
SWITCH_CHECK_INTERVAL = 1.0


#: Per-job execution modes.
MODE_ADAPTIVE_RAS = "adaptive-ras"
MODE_ADAPTIVE_GS = "adaptive-gs"
MODE_PINNED_GS = "pinned-gs"
MODE_PINNED_RAS = "pinned-ras"


@dataclass
class _JobState:
    """GRASS's bookkeeping for one in-flight job."""

    mode: str
    last_switch_check: float = float("-inf")
    start_utilization: float = 0.0

    @property
    def pinned(self) -> bool:
        return self.mode in (MODE_PINNED_GS, MODE_PINNED_RAS)

    @property
    def uses_gs(self) -> bool:
        return self.mode in (MODE_ADAPTIVE_GS, MODE_PINNED_GS)


class Grass(SpeculationPolicy):
    """The GRASS speculation policy (§4)."""

    name = "grass"
    learns_across_jobs = True

    def __init__(
        self,
        config: Optional[GrassConfig] = None,
        sample_store: Optional[SampleStore] = None,
    ) -> None:
        self.config = config or GrassConfig()
        # Note: an explicitly provided (possibly still empty) store must be
        # kept — ``or`` would discard an empty store because its len() is 0.
        if sample_store is not None:
            self.store = sample_store
        else:
            self.store = SampleStore()
        self._gs = GreedySpeculative(max_copies_per_task=self.config.max_copies_per_task)
        self._ras = ResourceAwareSpeculative(
            max_copies_per_task=self.config.max_copies_per_task
        )
        self._rng = RngStream(self.config.seed, "grass-perturbation")
        self._decider = self._build_decider()
        self._jobs: Dict[int, _JobState] = {}
        self.switches_performed = 0
        self.jobs_pinned = 0

    def _build_decider(self) -> SwitchDecider:
        if self.config.switching == "strawman":
            return StrawmanSwitchDecider()
        return LearnedSwitchDecider(store=self.store, factors=self.config.factors)

    # -- job lifecycle hooks -----------------------------------------------------------

    def on_job_start(self, job: Job, now: float) -> None:
        mode = MODE_ADAPTIVE_RAS
        if self.config.perturbation > 0 and self._rng.bernoulli(self.config.perturbation):
            mode = MODE_PINNED_GS if self._rng.bernoulli(0.5) else MODE_PINNED_RAS
            self.jobs_pinned += 1
        self._jobs[job.job_id] = _JobState(mode=mode)

    def on_job_finish(self, job: Job, result: JobResult, now: float) -> None:
        state = self._jobs.pop(job.job_id, None)
        if state is None or not state.pinned:
            return
        policy_name = "gs" if state.uses_gs else "ras"
        completion_times = [
            task.completion_time - job.start_time
            for task in job.input_tasks
            if task.is_completed and task.completion_time is not None
            and job.start_time is not None
        ]
        wave_width = max(1, job.allocation)
        sample = JobSample(
            policy=policy_name,
            bound_kind=job.bound.kind.value,
            total_tasks=job.spec.num_input_tasks,
            completion_times=completion_times,
            wave_width=wave_width,
            utilization=state.start_utilization,
            estimator_accuracy=result_accuracy_hint(result),
        )
        self.store.add(sample)

    # -- scheduling --------------------------------------------------------------------

    def _maybe_switch(self, view: SchedulingView, state: _JobState) -> None:
        if state.mode != MODE_ADAPTIVE_RAS:
            return
        if view.now - state.last_switch_check < SWITCH_CHECK_INTERVAL:
            return
        state.last_switch_check = view.now
        if self._decider.should_switch(view):
            state.mode = MODE_ADAPTIVE_GS
            self.switches_performed += 1

    def choose_task(self, view: SchedulingView) -> Optional[TaskSnapshot]:
        state = self._jobs.get(view.job.job_id)
        if state is None:
            # Jobs the engine never announced (defensive): behave adaptively.
            state = _JobState(mode=MODE_ADAPTIVE_RAS)
            self._jobs[view.job.job_id] = state
        state.start_utilization = max(state.start_utilization, view.cluster_utilization)
        self._maybe_switch(view, state)
        if state.uses_gs:
            return self._gs.choose_task(view)
        return self._ras.choose_task(view)

    # -- warm-state snapshot ------------------------------------------------------------

    def state_snapshot(self) -> dict:
        """Everything GRASS accumulated across finished jobs, as plain data.

        Captures the sample store, the perturbation coin's exact generator
        state (so the pinning sequence continues rather than restarts) and
        the diagnostic counters.  In-flight job bookkeeping is included for
        completeness but is empty when snapshotting between simulations —
        the only supported snapshot point.
        """
        return {
            "store": copy.deepcopy(self.store),
            "rng_state": self._rng.getstate(),
            "jobs": copy.deepcopy(self._jobs),
            "switches_performed": self.switches_performed,
            "jobs_pinned": self.jobs_pinned,
        }

    def restore_state(self, snapshot: Optional[dict]) -> None:
        """Adopt a snapshot from :meth:`state_snapshot` (None is a no-op).

        The decider is rebuilt so it reads the restored store rather than the
        fresh one the constructor made.
        """
        if snapshot is None:
            return
        # Deep-copy on the way in as well as out: one snapshot may warm many
        # in-process runs (workers=1), and a shared live store would let run
        # k's learning leak into run k+1 — diverging from the worker-process
        # path, where pickling isolates the copies.
        self.store = copy.deepcopy(snapshot["store"])
        self._rng.setstate(snapshot["rng_state"])
        self._jobs = copy.deepcopy(snapshot["jobs"])
        self.switches_performed = snapshot["switches_performed"]
        self.jobs_pinned = snapshot["jobs_pinned"]
        self._decider = self._build_decider()

    # -- introspection ------------------------------------------------------------------

    def mode_of(self, job_id: int) -> Optional[str]:
        """Current execution mode of a job (None once it has finished)."""
        state = self._jobs.get(job_id)
        return state.mode if state else None


def result_accuracy_hint(result: JobResult) -> float:
    """Realised estimator accuracy to attach to a finished job's sample."""
    return result.estimator_accuracy
