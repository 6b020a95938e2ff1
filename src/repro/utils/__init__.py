"""Small shared utilities: deterministic RNG streams and statistics helpers."""

from repro.utils.rng import RngStream
from repro.utils.stats import (
    OnlineStats,
    clamp,
    mean,
    median,
    percentile,
)

__all__ = [
    "RngStream",
    "OnlineStats",
    "clamp",
    "mean",
    "median",
    "percentile",
]
