"""Straggler model: why copies of the same task take different durations.

The paper's measurements (Figure 3, §2.2) show that task durations —
*normalised by input size* — are heavy tailed: a Pareto tail with shape
β ≈ 1.259 (infinite variance), with the average job's slowest task about
eight times its median even after proactive mitigation.  The variability is
environmental (contention, IO interference, background daemons), not
intrinsic to the task, which is why launching a fresh copy helps: the copy
re-draws its runtime multiplier and, for such heavy tails, a fresh draw is
usually far better than the conditional remaining time of a long-running
copy (Guideline 1 / Theorem 1 only recommend speculation because β < 2).

Each copy's duration is ``work × machine_speed × multiplier`` where the
multiplier is drawn from a Pareto distribution with median 1 and shape β,
truncated at ``cap`` so a single draw cannot dominate an experiment (the cap
is what keeps the slowest-to-median ratio around the published ~8×).

Multipliers are derived deterministically from ``(seed, job, task, copy)`` so
the same experiment seed replays the same stragglers under every policy, and
so the oracle scheduler can query what a not-yet-launched copy *would* take.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from hashlib import sha256


@dataclass(frozen=True)
class StragglerConfig:
    """Parameters of the per-copy duration-multiplier distribution.

    ``shape`` is the Pareto tail index (the paper's β = 1.259) and ``cap``
    the truncation point of the multiplier, whose median is 1: the workload
    generator's task work *is* the median duration, which is how the paper
    calibrates deadlines in §6.1.  ``jitter`` adds a small Gaussian wobble
    representing benign run-to-run variation below the Pareto body.
    """

    shape: float = 1.259
    cap: float = 12.0
    jitter: float = 0.05

    def __post_init__(self) -> None:
        if self.shape <= 0:
            raise ValueError("shape must be positive")
        if self.cap <= 1.0:
            raise ValueError("cap must exceed the median multiplier 1")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    @property
    def scale(self) -> float:
        """Pareto scale parameter such that the median multiplier is 1."""
        return 1.0 / (2.0 ** (1.0 / self.shape))

    def mean_multiplier(self) -> float:
        """Analytic mean of the truncated multiplier, E[min(X, cap)]."""
        beta, xm, cap = self.shape, self.scale, self.cap
        # repro: allow[DET004] analytic special case: the closed form divides by (beta - 1)
        if beta == 1.0:
            body = xm * (1.0 + math.log(cap / xm))
        else:
            body = (beta * xm / (beta - 1.0)) * (1.0 - (xm / cap) ** (beta - 1.0))
        tail = cap * (xm / cap) ** beta
        return body + tail

    @classmethod
    def none(cls) -> "StragglerConfig":
        """A (nearly) straggler-free cluster: used for ideal-duration tests."""
        return cls(shape=1000.0, cap=1.01, jitter=0.0)

    @classmethod
    def light(cls) -> "StragglerConfig":
        """Milder tail than the production default (ablations)."""
        return cls(shape=1.8, cap=8.0, jitter=0.05)

    @classmethod
    def severe(cls) -> "StragglerConfig":
        """A heavily contended cluster, used in stress tests and ablations."""
        return cls(shape=1.1, cap=20.0, jitter=0.08)


class StragglerModel:
    """Deterministic per-copy duration multipliers.

    ``multiplier(job_id, task_id, copy_index)`` always returns the same value
    for the same experiment seed, regardless of when (or whether) the copy is
    actually launched.
    """

    def __init__(self, config: StragglerConfig, seed: int) -> None:
        self.config = config
        # Each copy's multiplier is ``max(0.05, s.bounded_pareto(shape,
        # scale, cap) * s.truncated_gauss(1.0, jitter, low=0.7, high=1.3))``
        # drawn from its own stream ``s = RngStream(seed, "straggler-root")
        # .spawn(f"{job}/{task}/{copy}")`` (``tests/test_simulator_substrate.py``
        # pins the equality).  ``multiplier`` runs once per copy launch,
        # squarely on the engine's hot path, so that spawn is flattened: the
        # seed derivation prefix (identical for every copy) is pre-encoded,
        # the config-derived Pareto parameters are computed once, and a
        # single scratch ``random.Random`` is re-seeded per copy instead of
        # constructing a stream object.  ``Random.seed`` resets the cached
        # second Gaussian, so the scratch generator's draws are bit-identical
        # to a freshly constructed stream's.
        self._seed_prefix = f"{seed}:straggler-root/".encode("utf-8")
        self._scale = config.scale
        self._inv_shape = 1.0 / config.shape
        # repro: allow[DET004] exact-config fast-path sentinel; jitter is set, not computed
        self._exact = config.jitter == 0.0 and config.shape >= 100.0
        # repro: allow[DET001] scratch RNG is reseeded via _seed_core before every copy draw
        self._scratch = random.Random()
        # ``random.Random.seed`` is a Python wrapper whose int path reduces to
        # the C base-class seed plus a ``gauss_next`` reset; binding the base
        # seed skips the wrapper's type dispatch on every reseed.
        self._seed_core = super(random.Random, self._scratch).seed
        self._rand_core = self._scratch.random
        self._gauss_core = self._scratch.gauss

    def multiplier(self, job_id: int, task_id: int, copy_index: int) -> float:
        """The duration multiplier the given copy would experience."""
        config = self.config
        if self._exact:
            # The "no stragglers" configuration: exactly the median multiplier,
            # so tests and worked examples get exact wave arithmetic.
            return 1.0
        digest = sha256(
            self._seed_prefix + b"%d/%d/%d" % (job_id, task_id, copy_index)
        ).digest()
        self._seed_core(int.from_bytes(digest[:8], "big"))
        self._scratch.gauss_next = None
        # Inline ``bounded_pareto(shape, scale, cap)``.
        u = self._rand_core()
        if u < 1e-12:
            u = 1e-12
        value = self._scale / u ** self._inv_shape
        cap = config.cap
        if value > cap:
            value = cap
        jitter = config.jitter
        if jitter > 0:
            # Inline ``truncated_gauss(1.0, jitter, low=0.7, high=1.3)``.
            gauss = self._gauss_core
            for _ in range(64):
                wobble = gauss(1.0, jitter)
                if 0.7 <= wobble <= 1.3:
                    break
            else:
                wobble = gauss(1.0, jitter)
                if wobble < 0.7:
                    wobble = 0.7
                elif wobble > 1.3:
                    wobble = 1.3
            value *= wobble
        return max(0.05, value)

    def copy_duration(
        self,
        base_work: float,
        machine_speed: float,
        job_id: int,
        task_id: int,
        copy_index: int,
    ) -> float:
        """Actual duration of a copy: work x machine speed x straggler factor."""
        if base_work <= 0:
            raise ValueError("base_work must be positive")
        if machine_speed <= 0:
            raise ValueError("machine_speed must be positive")
        factor = self.multiplier(job_id, task_id, copy_index)
        return base_work * machine_speed * factor
