"""Deterministic random-number streams for reproducible simulations.

Every stochastic component of the simulator (workload synthesis, straggler
inflation, estimator noise, GRASS's perturbation coin) draws from its own
named stream derived from a single experiment seed.  Two runs with the same
seed therefore produce identical traces and identical scheduling decisions,
which is what makes the benchmark tables reproducible.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional, Sequence, TypeVar

T = TypeVar("T")


def _derive_seed(base_seed: int, name: str) -> int:
    """Derive a child seed from a base seed and a stream name.

    Uses a stable hash (not Python's randomized ``hash``) so the derivation
    is identical across interpreter invocations.
    """
    digest = hashlib.sha256(f"{base_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """A named, reproducible random stream.

    Thin wrapper around :class:`random.Random` that adds the distribution
    helpers the simulator needs (Pareto with a finite body, truncated
    samples, weighted choice) and records the stream name for debugging.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        # ``random.Random`` seeds with ``abs(seed)``, so ``-n`` would silently
        # replay the stream of ``n``.
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.name = name
        self.seed = seed
        self._random = random.Random(seed)

    def spawn(self, name: str) -> "RngStream":
        """Create an independent child stream derived from this stream."""
        child_name = f"{self.name}/{name}"
        return RngStream(_derive_seed(self.seed, child_name), child_name)

    def getstate(self) -> tuple:
        """Snapshot the underlying generator state (see :meth:`setstate`).

        The state is a plain picklable tuple, so policies that carry an
        ``RngStream`` across jobs (GRASS's perturbation coin) can include it
        in their warm-up snapshots and restore it in a worker process without
        replaying the draws that produced it.
        """
        return self._random.getstate()

    def setstate(self, state: tuple) -> None:
        """Restore a state captured by :meth:`getstate`."""
        self._random.setstate(state)

    # -- thin passthroughs -------------------------------------------------

    def random(self) -> float:
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    # -- distribution helpers ----------------------------------------------

    def pareto(self, shape: float, scale: float = 1.0) -> float:
        """Sample from a Pareto distribution with the given shape and scale.

        ``P(X > x) = (scale / x) ** shape`` for ``x >= scale``.
        """
        if shape <= 0:
            raise ValueError("Pareto shape must be positive")
        if scale <= 0:
            raise ValueError("Pareto scale must be positive")
        u = self._random.random()
        # Guard against u == 0 which would produce infinity.
        u = max(u, 1e-12)
        return scale / (u ** (1.0 / shape))

    def bounded_pareto(
        self, shape: float, scale: float, upper: float
    ) -> float:
        """Sample from a Pareto truncated at ``upper``.

        Straggler multipliers use this so a single pathological sample cannot
        dominate an entire experiment, mirroring the paper's observation that
        the slowest task is about eight times the median rather than
        unboundedly slow.
        """
        if upper <= scale:
            raise ValueError("upper bound must exceed the scale")
        value = self.pareto(shape, scale)
        return min(value, upper)

    def lognormal(self, mu: float, sigma: float) -> float:
        return self._random.lognormvariate(mu, sigma)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one item with probability proportional to its weight."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choices(list(items), weights=list(weights), k=1)[0]

    def bernoulli(self, probability: float) -> bool:
        """Return True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        return self._random.random() < probability

    def truncated_gauss(
        self,
        mu: float,
        sigma: float,
        low: Optional[float] = None,
        high: Optional[float] = None,
        max_tries: int = 64,
    ) -> float:
        """Sample a Gaussian clipped by rejection to ``[low, high]``.

        Falls back to clamping after ``max_tries`` rejections so the call is
        guaranteed to terminate even with a badly-placed interval.
        """
        for _ in range(max_tries):
            value = self._random.gauss(mu, sigma)
            if (low is None or value >= low) and (high is None or value <= high):
                return value
        value = self._random.gauss(mu, sigma)
        if low is not None:
            value = max(value, low)
        if high is not None:
            value = min(value, high)
        return value
