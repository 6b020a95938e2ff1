"""Binning helpers matching the paper's reporting conventions (§6.1, Figure 6).

* Job-size bins: small (≤ 50 tasks), medium (51–500), large (> 500), as
  :func:`repro.core.job.job_bin_label` assigns them.
* Deadline bins: the deadline's slack factor over the ideal duration,
  reported in 2–5 %, 6–10 %, 11–15 %, 16–20 % buckets (Figure 6a).
* Error bins: 5–10 %, 11–15 %, 16–20 %, 21–25 %, 26–30 % (Figure 6b).
"""

from __future__ import annotations

from typing import Tuple

#: Deadline slack-factor bins of Figure 6a, as (label, upper edge) in percent
#: over the ideal duration.
DEADLINE_BINS: Tuple[Tuple[str, float], ...] = (
    ("2-5", 5.0),
    ("6-10", 10.0),
    ("11-15", 15.0),
    ("16-20", 20.0),
)

#: Error-bound bins of Figure 6b, as (label, upper edge) in percent.
ERROR_BINS: Tuple[Tuple[str, float], ...] = (
    ("5-10", 10.0),
    ("11-15", 15.0),
    ("16-20", 20.0),
    ("21-25", 25.0),
    ("26-30", 30.0),
)


def _bin_label(value: float, bins: Tuple[Tuple[str, float], ...]) -> str:
    """The first bin whose upper edge is at least ``value``, else the last.

    So a bin covers the half-open interval from the previous bin's upper
    edge (exclusive) to its own (inclusive); the first bin also takes every
    value below it and the last every value above.  Slacks and error bounds
    are continuous draws, so a value between two labels' integer ranges
    (say 5.5) belongs to the next bin up.
    """
    for label, high in bins:
        if value <= high:
            return label
    return bins[-1][0]


def deadline_bin_label(slack_percent: float) -> str:
    """Bin label for a deadline slack factor given in percent."""
    return _bin_label(slack_percent, DEADLINE_BINS)


def error_bin_label(error_percent: float) -> str:
    """Bin label for an error bound given in percent."""
    return _bin_label(error_percent, ERROR_BINS)
