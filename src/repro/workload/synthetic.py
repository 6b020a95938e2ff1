"""Synthetic workload generation calibrated to the paper's trace statistics.

Every job — generated here or replayed from a trace
(:mod:`repro.workload.trace_replay`) — gets its slot cap, its intermediate
phases and its bound from one function, :func:`recipe_spec`, the §6.1
recipe.  The generator draws each job's size and input task works first;
Figure 6's breakdowns read a job's deadline slack back from its spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.core.bounds import ApproximationBound
from repro.core.job import JobPhaseSpec, JobSpec
from repro.utils.rng import RngStream
from repro.workload.profiles import (
    FrameworkProfile,
    WorkloadProfile,
    framework_profile,
    workload_profile,
)

#: Supported bound mixes.
BOUND_DEADLINE = "deadline"
BOUND_ERROR = "error"
BOUND_EXACT = "exact"
BOUND_MIXED = "mixed"

#: Every bound kind a workload config, a replay config or a plan may name.
BOUND_KINDS = (BOUND_DEADLINE, BOUND_ERROR, BOUND_EXACT, BOUND_MIXED)

#: §6.1: a deadline is the ideal duration plus a slack drawn from this range.
DEADLINE_SLACK_RANGE: Tuple[float, float] = (0.02, 0.20)
#: §6.1: an error bound is drawn from this range.
ERROR_RANGE: Tuple[float, float] = (0.05, 0.30)
#: Tasks in each intermediate phase, as a fraction of the input tasks.
INTERMEDIATE_TASK_FRACTION = 0.10


def target_waves(rng: RngStream, size_bin: str) -> int:
    """Intended wave count per job size (§2.1): small jobs fit in one or two
    waves, large jobs in many.  Shared by the synthetic generator and trace
    replay so both assign identical slot caps for a given size bin."""
    if size_bin == "small":
        return rng.randint(1, 2)
    if size_bin == "medium":
        return rng.randint(2, 4)
    return rng.randint(3, 6)


def recipe_spec(
    rng: RngStream,
    job_id: int,
    arrival_time: float,
    input_works: Sequence[float],
    waves: int,
    intermediate_work: float,
    bound_kind: str,
    dag_length: int,
    name: str,
) -> JobSpec:
    """One job built by the §6.1 recipe from its input tasks.

    The slot cap spreads the input tasks over ``waves`` waves.  Each of the
    ``dag_length - 1`` intermediate phases holds
    :data:`INTERMEDIATE_TASK_FRACTION` as many tasks, each of
    ``intermediate_work`` times a uniform draw from [0.5, 1.5).  Then a
    ``mixed`` kind draws deadline or error, a deadline is the ideal duration
    (:meth:`JobSpec.ideal_duration` at the slot cap) plus a slack drawn from
    :data:`DEADLINE_SLACK_RANGE`, and an error bound is drawn from
    :data:`ERROR_RANGE`.  ``rng`` makes those draws in that order.
    """
    max_slots = max(1, math.ceil(len(input_works) / waves))
    count = max(1, int(round(INTERMEDIATE_TASK_FRACTION * len(input_works))))
    phases = [JobPhaseSpec(phase_index=0, task_works=tuple(input_works))]
    for phase_index in range(1, dag_length):
        works = tuple(intermediate_work * rng.uniform(0.5, 1.5) for _ in range(count))
        phases.append(JobPhaseSpec(phase_index=phase_index, task_works=works))
    spec = JobSpec(
        job_id=job_id,
        arrival_time=arrival_time,
        phases=tuple(phases),
        bound=ApproximationBound.exact(),  # an exact job's; else replaced below
        name=name,
        max_slots=max_slots,
    )
    if bound_kind == BOUND_MIXED:
        bound_kind = BOUND_DEADLINE if rng.bernoulli(0.5) else BOUND_ERROR
    if bound_kind == BOUND_EXACT:
        return spec
    if bound_kind == BOUND_DEADLINE:
        slack = rng.uniform(*DEADLINE_SLACK_RANGE)
        bound = ApproximationBound.with_deadline(
            spec.ideal_duration(max_slots) * (1.0 + slack)
        )
    else:
        bound = ApproximationBound.with_error(rng.uniform(*ERROR_RANGE))
    return replace(spec, bound=bound)


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of one synthetic workload.

    ``size_scale`` shrinks task counts uniformly (useful to keep benchmark
    runtimes reasonable while preserving the small/medium/large mix), and
    ``max_tasks_per_job`` caps the largest jobs for the same reason.
    """

    workload: str = "facebook"
    framework: str = "hadoop"
    num_jobs: int = 100
    bound_kind: str = BOUND_MIXED
    dag_length: int = 2
    size_scale: float = 1.0
    max_tasks_per_job: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_jobs <= 0:
            raise ValueError("num_jobs must be positive")
        if self.bound_kind not in BOUND_KINDS:
            raise ValueError(f"unknown bound_kind {self.bound_kind!r}")
        if self.dag_length < 1:
            raise ValueError("dag_length must be at least 1")
        if self.size_scale <= 0:
            raise ValueError("size_scale must be positive")

    @property
    def workload_profile(self) -> WorkloadProfile:
        return workload_profile(self.workload)

    @property
    def framework_profile(self) -> FrameworkProfile:
        return framework_profile(self.framework)


@dataclass
class GeneratedWorkload:
    """A workload: its config and its job specs."""

    config: WorkloadConfig
    job_specs: List[JobSpec] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.job_specs)

    def specs(self) -> List[JobSpec]:
        return list(self.job_specs)


class SyntheticWorkloadGenerator:
    """Generates workloads matching the published trace characteristics."""

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config
        self._workload = config.workload_profile
        self._framework = config.framework_profile
        self._rng = RngStream(config.seed, f"workload/{config.workload}/{config.framework}")

    def _pick_bin(self, rng: RngStream) -> Tuple[str, Tuple[int, int]]:
        profile = self._workload
        labels = ("small", "medium", "large")
        ranges = (profile.small_tasks, profile.medium_tasks, profile.large_tasks)
        label = rng.weighted_choice(labels, profile.bin_probabilities)
        return label, ranges[labels.index(label)]

    def _task_count(self, rng: RngStream, task_range: Tuple[int, int]) -> int:
        low, high = task_range
        count = rng.randint(low, high)
        count = max(3, int(round(count * self.config.size_scale)))
        if self.config.max_tasks_per_job is not None:
            count = min(count, self.config.max_tasks_per_job)
        return count

    def _input_task_works(self, rng: RngStream, count: int) -> List[float]:
        """Input task works: near-equal data splits with mild log-normal jitter.

        The paper normalises task durations by input size (§2.2, footnote 2),
        i.e. input tasks read roughly equal splits; the heavy-tailed
        *duration* skew of Figure 3 comes from runtime straggling, which the
        simulator's straggler model supplies per copy.
        """
        profile = self._workload
        median_work = self._framework.median_task_work
        sigma = profile.work_jitter_sigma
        works = []
        for _ in range(count):
            multiplier = rng.lognormal(0.0, sigma) if sigma > 0 else 1.0
            works.append(median_work * multiplier)
        return works

    def generate(self) -> GeneratedWorkload:
        """Generate the configured number of jobs, arriving as a Poisson process."""
        config = self.config
        result = GeneratedWorkload(config=config)
        arrival_time = 0.0
        for job_id in range(config.num_jobs):
            job_rng = self._rng.spawn(f"job/{job_id}")
            size_bin, task_range = self._pick_bin(job_rng)
            input_count = self._task_count(job_rng, task_range)
            waves = target_waves(job_rng, size_bin)
            input_works = self._input_task_works(job_rng, input_count)
            result.job_specs.append(
                recipe_spec(
                    job_rng,
                    job_id,
                    arrival_time,
                    input_works,
                    waves,
                    intermediate_work=self._framework.median_task_work,
                    bound_kind=config.bound_kind,
                    dag_length=config.dag_length,
                    name=f"{config.workload}-{config.framework}-{size_bin}-{job_id}",
                )
            )
            arrival_time += job_rng.expovariate(1.0 / self._workload.mean_interarrival)
        return result


def generate_workload(config: WorkloadConfig) -> GeneratedWorkload:
    """Convenience wrapper used throughout the experiment harness."""
    return SyntheticWorkloadGenerator(config).generate()
