"""Fixed workload settings.  Nothing here is sized from the machine.

``BENCHMARK.json`` holds the driver-facing contract (workload names, metric
bounds, run length); everything a workload needs beyond that lives here, so
two commits measured with the same benchmark code run the same load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

@dataclass(frozen=True)
class ReplaySettings:
    """``replay-cold``: fresh ``grass-experiments replay`` processes."""

    #: Jobs in the generated cluster-tier-shaped trace.
    jobs: int = 1000
    policies: Tuple[str, ...] = ("grass", "late")
    scale: str = "quick"
    shards: int = 8
    workers: int = 2
    #: Import-only process spawns after each measured process; ``setup_s``
    #: is the fastest of them.  Spread over the run, a slow phase of the
    #: host does not hit every probe.
    setup_probes: int = 3
    #: Replay processes measured per run, at least (more if time allows).
    min_processes: int = 2


@dataclass(frozen=True)
class ServiceSettings:
    """``service-mixed``: an open-loop client against ``grass-experiments serve``."""

    max_inflight: int = 2
    #: Admission bounds passed to ``serve`` in place of its defaults (4 and
    #: 16): large enough that the ladder and the capacity bursts never draw a
    #: 429, so saturation shows as latency and throughput, not refusals.
    max_pending_per_tenant: int = 64
    max_pending_total: int = 256
    connections: int = 2
    tenants: int = 8
    #: Fresh plans: never-seen cluster-tier plans of this many jobs.
    fresh_jobs: int = 30
    fresh_shards: int = 2
    policies: Tuple[str, ...] = ("grass",)
    #: Share of submissions that repeat a warm-set plan (answered from cache).
    hit_share: float = 0.25
    #: Distinct plans stored in the cache before timing.
    warm_set: int = 8
    #: Offered rate of the nominal rung; it runs for the whole ``--seconds``.
    nominal_rate: float = 3.2
    #: Higher rungs, each ``ladder_share * seconds`` long, after the nominal
    #: one; they only feed ``max_rate_per_s``.
    ladder_rates: Tuple[float, ...] = (8.0, 11.0)
    ladder_share: float = 0.1
    #: ``done_p90_ms`` a rung must meet to count towards ``max_rate_per_s``.
    latency_limit_ms: float = 500.0
    #: Capacity bursts after the ladder: ``burst_plans`` fresh plans sent at
    #: once, each burst on an idle server.  ``jobs_per_s`` is their fresh job
    #: runs over their summed first-send-to-last-done spans.  ``setup_s`` is
    #: the fastest spawn-to-first-pong of the driven server and of one more
    #: server spawned after each burst.
    bursts: int = 8
    burst_plans: int = 16
    #: Seconds to wait for outstanding submissions after the last one is due.
    drain_timeout_s: float = 30.0
    #: Worker processes that recompute fresh digests offline after the window.
    verify_workers: int = 2


@dataclass(frozen=True)
class FigureSettings:
    """``figures``: fresh processes calling ``compare_policies`` for two cells."""

    #: (workload, framework, bound kind): the Figure 5 shape (deadline-bound,
    #: accuracy) and the Figure 7 shape (error-bound, speed).
    cells: Tuple[Tuple[str, str, str], ...] = (
        ("facebook", "hadoop", "deadline"),
        ("bing", "spark", "error"),
    )
    policies: Tuple[str, ...] = ("late", "mantri", "grass")
    workers: int = 2
    #: As :class:`ReplaySettings`: probes after each process, fastest counts.
    setup_probes: int = 3
    min_processes: int = 2
