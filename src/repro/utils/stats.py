"""Statistics helpers used across the simulator and the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Iterable, Sequence


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` to the closed interval ``[low, high]``."""
    if low > high:
        raise ValueError("clamp interval is empty (low > high)")
    return max(low, min(high, value))


def left_sum(values: Iterable[float]) -> float:
    """Add ``values`` strictly left to right, starting from the int ``0``.

    The one sum of this package, in place of the built-in ``sum``: CPython
    3.12 made ``sum`` over floats compensated, so its last bits — and every
    digest they reach — would depend on the interpreter.  Starting from an
    int keeps a sum of ints an int, and a sum of floats equals CPython
    3.11's ``sum`` bit for bit.
    """
    return reduce(add, values, 0)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on an empty sequence."""
    if not values:
        raise ValueError("mean of an empty sequence is undefined")
    return left_sum(values) / len(values)


def median(values: Sequence[float]) -> float:
    """Median of a sequence; raises on an empty sequence."""
    if not values:
        raise ValueError("median of an empty sequence is undefined")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sequence is undefined")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if lower == upper:
        return ordered[lower]
    fraction = rank - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


@dataclass
class OnlineMean:
    """Incrementally maintained mean (Welford-style, mean only)."""

    count: int = 0
    value: float = 0.0

    def add(self, sample: float) -> None:
        self.count += 1
        self.value += (sample - self.value) / self.count


@dataclass
class OnlineStats:
    """Incrementally maintained mean and variance (Welford's algorithm)."""

    count: int = 0
    _mean: float = 0.0
    _m2: float = 0.0
    _min: float = field(default=math.inf)
    _max: float = field(default=-math.inf)

    def add(self, sample: float) -> None:
        self.count += 1
        delta = sample - self._mean
        self._mean += delta / self.count
        delta2 = sample - self._mean
        self._m2 += delta * delta2
        self._min = min(self._min, sample)
        self._max = max(self._max, sample)

    def merge(self, other: "OnlineStats") -> None:
        """Fold another accumulator in (Chan et al.'s parallel update).

        The result is what ``add`` would have produced had the two sample
        streams been concatenated, up to floating-point rounding; the
        streaming metrics sinks keep per-simulation accumulators exactly for
        this and combine them in a fixed merge order, so the combined value
        is deterministic.
        """
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self._min = other._min
            self._max = other._max
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self.count = total

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.count else 0.0

    # -- wire format -----------------------------------------------------------

    def to_wire(self) -> dict:
        """Plain-JSON dict; exact round-trip via :meth:`from_wire`.

        ``min``/``max`` are omitted while empty because their sentinel values
        (``±inf``) are not representable in strict JSON.  Python's float
        serialisation is repr-based, so every finite field round-trips to
        the identical double — merged means computed from wire-decoded stats
        equal the locally merged ones bit for bit.
        """
        wire = {"count": self.count, "mean": self._mean, "m2": self._m2}
        if self.count:
            wire["min"] = self._min
            wire["max"] = self._max
        return wire

    @classmethod
    def from_wire(cls, wire: dict) -> "OnlineStats":
        return cls(
            count=int(wire["count"]),
            _mean=float(wire["mean"]),
            _m2=float(wire["m2"]),
            _min=float(wire.get("min", math.inf)),
            _max=float(wire.get("max", -math.inf)),
        )
