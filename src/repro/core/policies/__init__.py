"""Speculation policies: the paper's primary contribution.

* :mod:`repro.core.policies.base` — the policy interface, the scheduling
  view (``trem`` / ``tnew`` and running copies per task) and the per-job
  scheduling indexes that serve it: over estimates, or over true durations
  for the oracle.
* :mod:`repro.core.policies.gs` — Greedy Speculative scheduling (Pseudocode 1
  and 2 with ``OC = 0``).
* :mod:`repro.core.policies.ras` — Resource Aware Speculative scheduling
  (``OC = 1``).
* :mod:`repro.core.policies.samples` — the sample store GRASS learns from.
* :mod:`repro.core.policies.switching` — switch-point evaluation (learned and
  the two-wave strawman of §6.3.2).
* :mod:`repro.core.policies.grass` — GRASS itself (§4).
"""

from repro.core.policies.base import (
    SchedulingView,
    SpeculationPolicy,
    TaskSnapshot,
)
from repro.core.policies.gs import GreedySpeculative
from repro.core.policies.grass import Grass, GrassConfig
from repro.core.policies.ras import ResourceAwareSpeculative
from repro.core.policies.samples import JobSample, SampleStore
from repro.core.policies.switching import (
    LearnedSwitchDecider,
    StrawmanSwitchDecider,
    SwitchDecider,
)

__all__ = [
    "SchedulingView",
    "SpeculationPolicy",
    "TaskSnapshot",
    "GreedySpeculative",
    "ResourceAwareSpeculative",
    "Grass",
    "GrassConfig",
    "JobSample",
    "SampleStore",
    "SwitchDecider",
    "LearnedSwitchDecider",
    "StrawmanSwitchDecider",
]
