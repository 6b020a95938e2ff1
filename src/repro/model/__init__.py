"""Analytic model of speculation (Appendix A) and tail estimation (Figure 3).

* :mod:`repro.model.hill` — the Hill estimator of the tail index (Figure 3).
* :mod:`repro.model.reactive` — the reactive ω-policy model of equation (3),
  evaluated by Monte-Carlo wave simulation, with the GS / RAS ω values;
  regenerates Figure 4.
"""

from repro.model.hill import hill_estimates, estimate_tail_index
from repro.model.reactive import (
    ReactiveModelConfig,
    gs_omega,
    ras_omega,
    reactive_response_time,
    response_time_ratio_curve,
)

__all__ = [
    "hill_estimates",
    "estimate_tail_index",
    "ReactiveModelConfig",
    "gs_omega",
    "ras_omega",
    "reactive_response_time",
    "response_time_ratio_curve",
]
