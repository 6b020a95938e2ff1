"""Seeded input generators: every workload input comes from ``--seed`` alone.

Each input kind draws from its own named stream, so adding a draw to one
never shifts another.  The trace generator uses only the standard library.
The service plans and figure seeds are drawn here too, but chosen among
candidates by a cost function the caller passes; the benchmark computes that
cost with the program's own generators, so a change to them can change which
candidates a seed picks.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple, Union

from perfbench.settings import FigureSettings, ReplaySettings, ServiceSettings


def _rng(seed: int, stream: str) -> random.Random:
    # String seeds hash through sha512, independent of PYTHONHASHSEED.
    return random.Random(f"perfbench/{stream}/{seed}")


# -- replay-cold: the trace file ---------------------------------------------------


def trace_lines(seed: int, jobs: int) -> List[str]:
    """An arrival-sorted JSONL trace in the cluster-tier shape.

    Log-normal task counts (median 4, sigma 1.6, capped at 2000), log-normal
    task durations around 12 s and 5% straggler inflation by 2-8x; job ``i``
    arrives in ``[5i, 5i + 4.5)`` s, so arrivals strictly increase.

    Task counts are a stratified sample: job sizes come from one uniform
    draw in each of ``jobs`` equal quantile strata, shuffled over the jobs.
    Every seed therefore replays nearly the same size mix (and total work)
    in a different order, and throughput does not hinge on how many giant
    jobs one seed happens to draw.
    """
    rng = _rng(seed, "trace")
    normal = statistics.NormalDist(math.log(4.0), 1.6)
    strata = list(range(jobs))
    rng.shuffle(strata)
    lines = []
    for index in range(jobs):
        arrival = index * 5.0 + rng.uniform(0.0, 4.5)
        quantile = (strata[index] + rng.uniform(0.01, 0.99)) / jobs
        num_tasks = min(2000, max(1, int(round(math.exp(normal.inv_cdf(quantile))))))
        durations = []
        for _ in range(num_tasks):
            duration = 12.0 * rng.lognormvariate(0.0, 0.35)
            if rng.random() < 0.05:
                duration *= rng.uniform(2.0, 8.0)
            durations.append(round(duration, 4))
        record = {"job_id": index, "arrival_time": round(arrival, 6), "task_durations": durations}
        lines.append(json.dumps(record, separators=(",", ":")))
    return lines


def write_trace(path: Union[str, Path], seed: int, settings: ReplaySettings) -> Path:
    path = Path(path)
    path.write_text("\n".join(trace_lines(seed, settings.jobs)) + "\n", encoding="utf-8")
    return path


# -- service-mixed: the open-loop schedule -----------------------------------------


#: Candidate plans ranked per fresh plan drawn (see :func:`service_schedule`).
STRATUM = 4


@dataclass(frozen=True)
class Submission:
    """One scheduled submission of the open-loop client."""

    index: int
    #: Seconds after the window start at which the submission is due.
    due: float
    #: Ladder rung (0 = nominal); capacity bursts carry ``len(rungs)``.
    rung: int
    tenant: str
    connection: int
    #: ``True`` when it repeats a warm-set plan (expected to hit the cache).
    repeat: bool
    #: Cluster-tier seed of the plan; it alone distinguishes plans.
    plan_seed: int


@dataclass(frozen=True)
class ServiceSchedule:
    warm_seeds: Tuple[int, ...]
    submissions: Tuple[Submission, ...]
    #: ``(rate per second, start, duration)`` of each rung.
    rungs: Tuple[Tuple[float, float, float], ...]
    #: Capacity bursts: fresh plans all due at once, each burst driven on
    #: its own after the rungs have drained.
    bursts: Tuple[Tuple[Submission, ...], ...] = ()


def rung_plan(settings: ServiceSettings, seconds: float) -> List[Tuple[float, float, float]]:
    rungs = [(settings.nominal_rate, 0.0, float(seconds))]
    start = float(seconds)
    for rate in settings.ladder_rates:
        duration = settings.ladder_share * seconds
        rungs.append((rate, start, duration))
        start += duration
    return rungs


def service_schedule(
    seed: int,
    settings: ServiceSettings,
    seconds: float,
    plan_cost: Callable[[int], float],
    ladder: bool = True,
) -> ServiceSchedule:
    """Seeded open-loop schedule: arrival times, repeats, tenants and plans.

    Each rung holds exactly ``round(rate * duration)`` arrivals placed as a
    Poisson process conditioned on that count (sorted uniform points), so
    the offered load per rung is fixed while the spacing is random.  Exactly
    ``round(hit_share * n)`` arrivals of a rung repeat a warm-set plan.
    With ``ladder`` the schedule also holds the ladder rungs and
    ``settings.bursts`` capacity bursts of ``settings.burst_plans`` fresh
    plans each.

    ``plan_cost`` maps a plan seed to its relative cost.  The fresh plans of
    each rung and each burst are a stratified sample of the lighter half of
    the plan-cost distribution: ``STRATUM`` candidates per plan are ranked
    by cost, the cheaper half is cut into equal strata, and one plan is
    drawn from each, in random order.  Every seed then offers the same cost profile, so the
    latency percentiles do not hinge on how many heavy plans a seed happens
    to draw, and the lighter half keeps the server's utilisation low enough
    that a slower host does not tip the rung into queueing.
    """
    rng = _rng(seed, "service")
    used = set()

    def new_plan_seed() -> int:
        while True:
            candidate = rng.randrange(1, 2**31)
            if candidate not in used:
                used.add(candidate)
                return candidate

    def fresh_plans(count: int) -> List[int]:
        candidates = sorted(
            (new_plan_seed() for _ in range(STRATUM * count)),
            key=lambda plan_seed: (plan_cost(plan_seed), plan_seed),
        )[: STRATUM * count // 2]
        width = STRATUM // 2
        picks = [rng.choice(candidates[i : i + width]) for i in range(0, len(candidates), width)]
        rng.shuffle(picks)
        return picks

    warm_seeds = tuple(new_plan_seed() for _ in range(settings.warm_set))
    rungs = rung_plan(settings, seconds)
    if not ladder:
        rungs = rungs[:1]
    submissions: List[Submission] = []
    for rung_index, (rate, start, duration) in enumerate(rungs):
        count = max(1, int(round(rate * duration)))
        dues = sorted(start + rng.uniform(0.0, duration) for _ in range(count))
        repeats = set(rng.sample(range(count), int(round(settings.hit_share * count))))
        fresh = iter(fresh_plans(count - len(repeats)))
        for position, due in enumerate(dues):
            index = len(submissions)
            repeat = position in repeats
            submissions.append(
                Submission(
                    index=index,
                    due=due,
                    rung=rung_index,
                    tenant=f"tenant-{index % settings.tenants}",
                    connection=index % settings.connections,
                    repeat=repeat,
                    plan_seed=rng.choice(warm_seeds) if repeat else next(fresh),
                )
            )
    bursts = []
    index = len(submissions)
    for _ in range(settings.bursts if ladder else 0):
        burst = []
        for plan_seed in fresh_plans(settings.burst_plans):
            burst.append(
                Submission(
                    index=index,
                    due=0.0,
                    rung=len(rungs),
                    tenant=f"tenant-{index % settings.tenants}",
                    connection=index % settings.connections,
                    repeat=False,
                    plan_seed=plan_seed,
                )
            )
            index += 1
        bursts.append(tuple(burst))
    return ServiceSchedule(
        warm_seeds=warm_seeds, submissions=tuple(submissions), rungs=tuple(rungs), bursts=tuple(bursts)
    )


def plan_wire(settings: ServiceSettings, plan_seed: int) -> Dict[str, object]:
    """The ``ReplayPlan`` wire dict of one service plan."""
    return {
        "cluster_jobs": settings.fresh_jobs,
        "policies": list(settings.policies),
        "scale": "quick",
        "seeds": [1],
        "shards": settings.fresh_shards,
        "stream_specs": True,
        "sink": "aggregate",
        "workers": 1,
        "seed": plan_seed,
    }


# -- figures: the workload seeds ---------------------------------------------------


#: Candidate workload seeds drawn per figure cell, and the size of the fixed,
#: seed-independent pool whose median cost is each cell's target (see
#: :func:`figure_seeds`).
FIGURE_CANDIDATES = 30
FIGURE_POOL = 41


def figure_seeds(
    seed: int,
    settings: FigureSettings,
    cell_cost: Callable[[Tuple[str, str, str], int], float],
) -> Tuple[int, ...]:
    """One ``WorkloadConfig`` seed per figure cell.

    ``cell_cost`` maps (cell, workload seed) to a relative cost.  A 60-job
    synthetic workload's size is heavy-tailed, so each cell aims at one
    target cost: the median cost of a fixed pool of ``FIGURE_POOL`` seeds,
    the same for every bench seed.  The bench seed draws
    ``FIGURE_CANDIDATES`` seeds per cell and keeps the one whose cost is
    nearest the target, so every bench seed offers nearly the same work in
    a different workload.
    """
    pool_rng = _rng(0, "figures-pool")
    rng = _rng(seed, "figures")
    chosen = []
    for cell in settings.cells:
        target = statistics.median(
            cell_cost(cell, pool_rng.randrange(1, 1_000_000)) for _ in range(FIGURE_POOL)
        )
        candidates = [rng.randrange(1, 1_000_000) for _ in range(FIGURE_CANDIDATES)]
        chosen.append(
            min(candidates, key=lambda candidate: (abs(cell_cost(cell, candidate) - target), candidate))
        )
    return tuple(chosen)
