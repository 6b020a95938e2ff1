"""Reactive speculation model: the ω-policy family of Appendix A.2 (Figure 4).

A reactive policy waits until a copy has run ω time before launching a
(single) speculative duplicate.  GS and RAS are particular choices of ω:

* GS speculates as soon as a fresh copy looks no worse than the remaining
  time, i.e. ω solves ``E[τ] = E[τ - ω | τ > ω]``;
* RAS additionally demands a resource saving, i.e. ω solves
  ``2·E[τ] = E[τ - ω | τ > ω]``.

For Pareto(x_m, β) task sizes these have closed forms ω_GS = β·x_m and
ω_RAS = 2·β·x_m (using the linear mean-residual-life of a Pareto).

Figure 4 plots the job response time of the ω-policy, normalised by the best
ω, for jobs of 1–5 waves.  The closed form of equation (3) is awkward to
evaluate at the final-wave boundary, so — like the paper, which evaluates it
numerically — we evaluate the model by Monte-Carlo simulation of the
wave-based schedule it assumes: S slots, T = W·S tasks, one speculative copy
per task once it has run ω, last wave speculated immediately.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.utils.rng import RngStream
from repro.utils.stats import mean


def gs_omega(shape: float, scale: float = 1.0) -> float:
    """ω at which GS starts speculating: E[τ] = E[τ - ω | τ > ω]."""
    if shape <= 1.0:
        raise ValueError("the mean is infinite for shape <= 1; ω undefined")
    return shape * scale


def ras_omega(shape: float, scale: float = 1.0) -> float:
    """ω at which RAS starts speculating: 2·E[τ] = E[τ - ω | τ > ω]."""
    if shape <= 1.0:
        raise ValueError("the mean is infinite for shape <= 1; ω undefined")
    return 2.0 * shape * scale


@dataclass(frozen=True)
class ReactiveModelConfig:
    """Parameters of the Monte-Carlo evaluation of the ω-policy."""

    shape: float = 1.259
    scale: float = 1.0
    slots: int = 20
    trials: int = 200
    cap: float = 200.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shape <= 1.0:
            raise ValueError("shape must exceed 1 for finite response times")
        if self.scale <= 0 or self.slots <= 0 or self.trials <= 0:
            raise ValueError("scale, slots and trials must be positive")
        if self.cap <= self.scale:
            raise ValueError("cap must exceed the scale")


def _simulate_once(
    omega: float, waves: int, config: ReactiveModelConfig, rng: RngStream
) -> float:
    """One Monte-Carlo run of the wave-based ω-policy; returns the makespan.

    The schedule follows the model's assumptions: tasks are launched wave by
    wave on S slots; a running task receives one speculative copy once its
    age reaches ω (taking the next free slot, ahead of unscheduled tasks); in
    the final wave tasks are speculated immediately if slots are spare.
    """
    total_tasks = waves * config.slots

    def draw() -> float:
        return min(rng.pareto(config.shape, config.scale), config.cap)

    # Event-driven simulation over slot-free times.
    free_slots = config.slots
    now = 0.0
    next_task = 0
    completions = 0
    # Heap of (finish_time, task_id, kind); kind 0 = original, 1 = duplicate.
    running: List[Tuple[float, int, int]] = []
    finished = [False] * total_tasks
    duplicated = [False] * total_tasks
    outstanding: List[set] = [set() for _ in range(total_tasks)]
    cancelled: set = set()
    # Pending speculation requests (task ids whose age passed ω, awaiting slot).
    spec_queue: List[Tuple[float, int]] = []

    def launch(task_id: int, kind: int, at: float) -> None:
        nonlocal free_slots
        free_slots -= 1
        outstanding[task_id].add(kind)
        heapq.heappush(running, (at + draw(), task_id, kind))
        if kind == 0:
            heapq.heappush(spec_queue, (at + omega, task_id))
        else:
            duplicated[task_id] = True

    while completions < total_tasks:
        # Fill slots.  A speculation trigger that is due takes the slot ahead
        # of unscheduled tasks (the copy has already waited ω); in the final
        # wave spare slots are used for speculation immediately (Guideline 2).
        progressed = True
        while free_slots > 0 and progressed:
            progressed = False
            in_final_wave = next_task >= total_tasks
            if spec_queue and (in_final_wave or spec_queue[0][0] <= now):
                trigger_time, task_id = heapq.heappop(spec_queue)
                if not finished[task_id] and not duplicated[task_id]:
                    launch(task_id, 1, max(now, trigger_time))
                progressed = True
                continue
            if next_task < total_tasks:
                launch(next_task, 0, now)
                next_task += 1
                progressed = True
        if not running:
            # Nothing running: jump to the next speculation trigger.
            if spec_queue:
                now = max(now, spec_queue[0][0])
                continue
            break
        finish_time, task_id, kind = heapq.heappop(running)
        now = max(now, finish_time)
        if (task_id, kind) in cancelled:
            # Its sibling finished earlier; the slot was freed back then.
            cancelled.discard((task_id, kind))
            continue
        free_slots += 1
        outstanding[task_id].discard(kind)
        if not finished[task_id]:
            finished[task_id] = True
            completions += 1
            # Kill the losing sibling copies and free their slots now.
            for sibling in list(outstanding[task_id]):
                cancelled.add((task_id, sibling))
                outstanding[task_id].discard(sibling)
                free_slots += 1
    return now


def reactive_response_time(
    omega: float, waves: int, config: ReactiveModelConfig
) -> float:
    """Mean makespan of a W-wave job under the ω-policy (Monte Carlo)."""
    if omega < 0:
        raise ValueError("omega must be non-negative")
    if waves < 1:
        raise ValueError("waves must be at least 1")
    rng = RngStream(config.seed, f"reactive/{omega:.4f}/{waves}")
    return mean(
        [_simulate_once(omega, waves, config, rng.spawn(str(i))) for i in range(config.trials)]
    )


def response_time_ratio_curve(
    omegas: Sequence[float],
    waves_list: Sequence[int],
    config: ReactiveModelConfig,
) -> Dict[int, List[Tuple[float, float]]]:
    """Figure 4: response time vs ω, normalised by the best ω, per wave count.

    Returns ``{waves: [(omega, ratio), ...]}`` where ratio 1.0 is the best
    policy in the sweep for that wave count.
    """
    curves: Dict[int, List[Tuple[float, float]]] = {}
    for waves in waves_list:
        times = [(omega, reactive_response_time(omega, waves, config)) for omega in omegas]
        best = min(time for _, time in times)
        curves[waves] = [(omega, time / best) for omega, time in times]
    return curves


def omega_grid(shape: float, scale: float = 1.0, points: int = 11, span: float = 5.0) -> List[float]:
    """A grid of ω values spanning [0, span·scale·β], matching Figure 4's x-axis."""
    if points < 2:
        raise ValueError("points must be at least 2")
    upper = span * scale * max(1.0, shape)
    return [upper * i / (points - 1) for i in range(points)]
