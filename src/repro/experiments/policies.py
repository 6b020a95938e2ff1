"""Named policy registry used by the experiment harness and the CLI.

Policies carry per-simulation state (estimator samples, GRASS's learning
store), so the registry hands out *factories*: each call builds a fresh
policy instance.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.baselines import LatePolicy, MantriPolicy, NoSpeculationPolicy, OraclePolicy
from repro.core.policies import Grass, GrassConfig, GreedySpeculative, ResourceAwareSpeculative
from repro.core.policies.base import SpeculationPolicy
from repro.core.policies.switching import (
    FACTOR_ACCURACY,
    FACTOR_BOUND,
    FACTOR_UTILIZATION,
)

PolicyFactory = Callable[[], SpeculationPolicy]


def _grass(config: Optional[GrassConfig] = None) -> Grass:
    return Grass(config=config or GrassConfig())


_REGISTRY: Dict[str, PolicyFactory] = {
    "no-spec": NoSpeculationPolicy,
    "late": LatePolicy,
    "mantri": MantriPolicy,
    "gs": GreedySpeculative,
    "ras": ResourceAwareSpeculative,
    "grass": _grass,
    "grass-strawman": lambda: _grass(GrassConfig(switching="strawman")),
    "grass-1factor": lambda: _grass(GrassConfig(factors=frozenset({FACTOR_BOUND}))),
    "grass-2factor": lambda: _grass(
        GrassConfig(factors=frozenset({FACTOR_BOUND, FACTOR_UTILIZATION}))
    ),
    "grass-2factor-accuracy": lambda: _grass(
        GrassConfig(factors=frozenset({FACTOR_BOUND, FACTOR_ACCURACY}))
    ),
    # Figure 15's sweep of the perturbation probability ξ (``grass`` is 15%).
    "grass-xi0": lambda: _grass(GrassConfig(perturbation=0.0)),
    "grass-xi5": lambda: _grass(GrassConfig(perturbation=0.05)),
    "grass-xi10": lambda: _grass(GrassConfig(perturbation=0.10)),
    "grass-xi20": lambda: _grass(GrassConfig(perturbation=0.20)),
    "oracle": OraclePolicy,
}


def available_policies() -> tuple:
    """Names accepted by :func:`make_policy`."""
    return tuple(sorted(_REGISTRY))


def make_policy(name: str) -> SpeculationPolicy:
    """Build a fresh policy instance by registry name."""
    try:
        factory = _REGISTRY[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {available_policies()}"
        ) from exc
    return factory()
