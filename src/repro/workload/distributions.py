"""Probability distributions used by the workload generator.

All distributions draw from an injected :class:`~repro.utils.rng.RngStream`
so workload generation is reproducible, and expose analytic means where they
exist (the analytic model in :mod:`repro.model` reuses the Pareto forms).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.utils.rng import RngStream
from repro.utils.stats import left_sum


class Distribution(abc.ABC):
    """A sampleable, non-negative distribution."""

    @abc.abstractmethod
    def sample(self, rng: RngStream) -> float:
        """Draw one sample."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Analytic (or empirical) mean."""

    def sample_many(self, rng: RngStream, count: int) -> List[float]:
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.sample(rng) for _ in range(count)]


@dataclass(frozen=True)
class ConstantDistribution(Distribution):
    """Degenerate distribution: always the same value."""

    value: float

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError("value must be positive")

    def sample(self, rng: RngStream) -> float:
        return self.value

    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class UniformDistribution(Distribution):
    """Uniform over [low, high]."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError("need 0 <= low <= high")

    def sample(self, rng: RngStream) -> float:
        return rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)


@dataclass(frozen=True)
class ExponentialDistribution(Distribution):
    """Exponential with the given mean (inter-arrival times)."""

    mean_value: float

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise ValueError("mean must be positive")

    def sample(self, rng: RngStream) -> float:
        return rng.expovariate(1.0 / self.mean_value)

    def mean(self) -> float:
        return self.mean_value


@dataclass(frozen=True)
class ParetoDistribution(Distribution):
    """Pareto with shape ``beta`` and scale ``xm``: P(X > x) = (xm / x) ** beta."""

    shape: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.shape <= 0:
            raise ValueError("shape must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def sample(self, rng: RngStream) -> float:
        return rng.pareto(self.shape, self.scale)

    def mean(self) -> float:
        if self.shape <= 1.0:
            return math.inf
        return self.shape * self.scale / (self.shape - 1.0)

    def survival(self, x: float) -> float:
        """P(X > x)."""
        if x <= self.scale:
            return 1.0
        return (self.scale / x) ** self.shape

    def quantile(self, q: float) -> float:
        """Inverse CDF."""
        if not 0.0 <= q < 1.0:
            raise ValueError("q must be in [0, 1)")
        return self.scale / ((1.0 - q) ** (1.0 / self.shape))


@dataclass(frozen=True)
class BoundedParetoDistribution(Distribution):
    """Pareto truncated (by rejection at the cap) to [scale, cap].

    Used for task-size skew so a single pathological draw cannot dominate an
    experiment while keeping the heavy-tailed body the paper measures.
    """

    shape: float
    scale: float
    cap: float

    def __post_init__(self) -> None:
        if self.shape <= 0:
            raise ValueError("shape must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.cap <= self.scale:
            raise ValueError("cap must exceed scale")

    def sample(self, rng: RngStream) -> float:
        return rng.bounded_pareto(self.shape, self.scale, self.cap)

    def mean(self) -> float:
        # Mean of a (clipped-at-cap) Pareto: E[min(X, cap)].
        beta, xm, cap = self.shape, self.scale, self.cap
        # repro: allow[DET004] analytic special case: the closed form divides by (beta - 1)
        if beta == 1.0:
            body = xm * math.log(cap / xm)
        else:
            body = (beta * xm / (beta - 1.0)) * (1.0 - (xm / cap) ** (beta - 1.0))
        tail = cap * (xm / cap) ** beta
        return body + tail


@dataclass(frozen=True)
class LogNormalDistribution(Distribution):
    """Log-normal with parameters mu and sigma of the underlying normal."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def sample(self, rng: RngStream) -> float:
        return rng.lognormal(self.mu, self.sigma)

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma * self.sigma)


class EmpiricalDistribution(Distribution):
    """Resampling distribution over observed values (trace replay)."""

    def __init__(self, values: Sequence[float]) -> None:
        cleaned = [float(v) for v in values if v > 0]
        if not cleaned:
            raise ValueError("need at least one positive value")
        self._values = cleaned

    def sample(self, rng: RngStream) -> float:
        return rng.choice(self._values)

    def mean(self) -> float:
        return left_sum(self._values) / len(self._values)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    def __len__(self) -> int:
        return len(self._values)
