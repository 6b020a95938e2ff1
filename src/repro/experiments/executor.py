"""Parallel execution of simulation runs.

``compare_policies`` at the paper scale is 300 jobs x 3 seeds x ~7 policies
of strictly independent simulations — an embarrassingly parallel workload
that the serial harness turned into an overnight job.  This module provides
:class:`ParallelExecutor`, which fans :class:`RunRequest` batches out over
worker processes and merges the resulting
:class:`~repro.simulator.metrics.MetricsCollector` objects back **in request
order**, so the output is bit-identical to the serial path no matter how the
OS schedules the workers.

Two entry points share that contract:

* :meth:`ParallelExecutor.run` — the batch path: materialise every request,
  fan out, return a list.  A learning policy's requests may name the
  :class:`~repro.experiments.warmup.WarmupCache` their warm state comes
  from; on the pool, the policy's first request (its *chain head*) warms it
  and runs in one worker task, submitted ahead of everything else, while
  the stateless requests fill the other workers, and the policy's remaining
  requests are submitted restored from the snapshot the head returns.
* :meth:`ParallelExecutor.run_stream` — the streaming path: consume an
  *iterator* of requests lazily (at most ``max_in_flight`` requests are ever
  materialised and unmerged at once) and yield metrics in request order as
  they complete.  This is what lets trace replay build arrival-window shards
  while earlier shards are still simulating, keeping memory bounded for
  traces that do not fit in RAM.

Both start a ``multiprocessing`` pool per call.  A long-lived caller — the
replay service — instead hands the executor a persistent
``concurrent.futures`` process pool; ``run_stream`` then submits every
request there, and a worker that dies fails only the requests that were on
that pool, as a :class:`RequestExecutionError` naming one of them.

Determinism contract
--------------------

* Each request is self-contained: the worker constructs its own policy
  instance (policies are stateful learners) and its own ``Simulation``, so
  nothing is shared across processes.
* Every simulation is seeded explicitly; a ``(policy, seed)`` run therefore
  produces the same ``MetricsCollector`` whether it executes in this process,
  a worker process, or a different worker count.
* Results are merged strictly in request order — ``run`` never reorders its
  results (only its dispatch) and
  ``run_stream`` yields position ``i`` before pulling request ``i + k`` past
  its in-flight window — so ``workers=N`` and ``workers=1`` return
  byte-identical payloads (``tests/test_executor.py`` locks this in with a
  pickle comparison for both paths).

The serial path (``workers=1``, no pool given) does not touch
``multiprocessing`` at all, which keeps unit tests and platforms without
``fork`` happy.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import multiprocessing
import os
import traceback
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.policies.base import SpeculationPolicy
from repro.experiments.policies import make_policy
from repro.experiments.warmup import WarmupCache
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.metrics import MetricsCollector
from repro.simulator.sinks import SinkFactory
from repro.workload.synthetic import GeneratedWorkload
from repro.workload.traces import TraceFormatError


class RequestExecutionError(RuntimeError):
    """A request failed inside a worker process.

    ``multiprocessing`` re-raises worker exceptions in the parent with a
    traceback that names only the pool trampoline, which is useless for
    figuring out *which* of dozens of fanned-out simulations died.  The
    worker therefore wraps any failure in this exception, carrying the
    originating request's repr and the worker-side traceback as text (both
    pickle cleanly across the process boundary).
    """


@dataclass(frozen=True)
class RunRequest:
    """One independent simulation: a policy over a workload under one seed.

    The policy is named by registry name (``policy_name``) or passed as a
    ready instance (``policy``); exactly one must be given.  Named requests
    are safe to ship to worker processes; instance requests keep their
    (possibly stateful, pre-warmed) policy object and are therefore pinned to
    in-process execution.

    The jobs come from exactly one of two sources:

    * ``workload`` — a materialised :class:`GeneratedWorkload`;
    * ``spec_source`` — a lazy *description* of the specs (any picklable
      object with ``iter_specs() -> Iterator[JobSpec]``, e.g.
      :class:`~repro.workload.trace_replay.TraceSpecSource`).  The executing
      process — worker or parent — materialises specs one at a time straight
      into the engine's lazy ingestion, so no process ever holds the spec
      list; this is what bounds memory for unsharded million-job replays.
      The source's spec stream must be sorted by ``(arrival_time, job_id)``
      (the engine raises otherwise).

    Warm-up comes in two mutually exclusive flavours:

    * ``warmup`` (+ optional ``warmup_config``) — simulate a separate
      workload first so a learning policy starts with cluster history;
    * ``warm_state`` — restore a pre-computed state snapshot (see
      ``repro.experiments.warmup``) instead of re-simulating that history.
      Snapshots are plain data, so snapshot-carrying named requests remain
      parallel-safe.  ``warm_state`` may instead name the
      :class:`~repro.experiments.warmup.WarmupCache` that produces the
      snapshot: the request then resolves ``cache.snapshot_for(policy_name)``
      wherever it runs, and :meth:`ParallelExecutor.run` chains a pool
      worker's warm-up with the policy's first request.  Only named requests
      may carry a cache.
    """

    workload: Optional[GeneratedWorkload] = None
    config: SimulationConfig = None  # type: ignore[assignment]
    policy_name: Optional[str] = None
    policy: Optional[SpeculationPolicy] = None
    warmup: Optional[GeneratedWorkload] = None
    #: Config the warm-up simulation runs under; defaults to ``config``.
    #: The warm-up cache keys warmed state on this config's seed, so callers
    #: that share warm-ups across run seeds pass a dedicated warm-up config.
    warmup_config: Optional[SimulationConfig] = None
    #: Pre-warmed policy state (from ``SpeculationPolicy.state_snapshot``),
    #: or the ``WarmupCache`` that produces it.
    warm_state: Optional[object] = None
    #: Lazy spec source (duck-typed: ``iter_specs()``); see the class docs.
    spec_source: Optional[object] = None
    #: Which result sink the simulation records into (None = retain all —
    #: the historical behaviour).  A factory rather than an instance: spill
    #: sinks hold file handles, and the executing process — worker or
    #: parent — must build its own.  With a non-retaining factory the
    #: returned collector carries aggregates only, so the worker ships a
    #: constant-size payload home instead of one JobResult per job.
    sink_factory: Optional[SinkFactory] = None

    def __post_init__(self) -> None:
        if self.config is None:
            raise ValueError("a run request needs a simulation config")
        if (self.workload is None) == (self.spec_source is None):
            raise ValueError("give exactly one of workload or spec_source")
        if (self.policy_name is None) == (self.policy is None):
            raise ValueError("give exactly one of policy_name or policy")
        if self.warm_state is not None and self.warmup is not None:
            raise ValueError("give at most one of warmup or warm_state")
        if self.policy is not None and isinstance(self.warm_state, WarmupCache):
            raise ValueError(
                "a warm-up cache warms a policy by name; give policy_name, "
                "not a policy instance"
            )

    def __repr__(self) -> str:
        """Concise identity (the dataclass default would dump the workload)."""
        source = (
            self.policy_name
            if self.policy_name is not None
            else f"<instance {type(self.policy).__name__}>"
        )
        if isinstance(self.warm_state, WarmupCache):
            warm = "cache"
        elif self.warm_state is not None:
            warm = "snapshot"
        elif self.warmup is not None:
            warm = f"workload[{len(self.warmup.job_specs)}]"
        else:
            warm = "none"
        if self.workload is not None:
            jobs = f"jobs={len(self.workload.job_specs)}"
        else:
            jobs = f"specs={self.spec_source}"
        return (
            f"RunRequest(policy={source}, {jobs}, "
            f"seed={self.config.seed}, warm={warm})"
        )

    @property
    def parallel_safe(self) -> bool:
        """True if this request may run in a worker process."""
        return self.policy is None

    def execute(self) -> MetricsCollector:
        """Run this request in the current process and return its metrics.

        The warm-up pass exists for learning policies (GRASS): the same
        policy instance first processes a separate workload so its sample
        store reflects cluster history, exactly as a long-running production
        scheduler would.  Warm-up results are discarded.  A ``warm_state``
        snapshot replaces that pass with a state restore, which is
        byte-equivalent as long as the snapshot was taken after warming an
        identically-configured policy under ``warmup_config``.  A cache in
        ``warm_state`` is resolved here, through its memo.
        """
        policy = self.policy if self.policy is not None else make_policy(self.policy_name)
        warm_state = self.warm_state
        if isinstance(warm_state, WarmupCache):
            warm_state = warm_state.snapshot_for(self.policy_name)
        if warm_state is not None:
            policy.restore_state(warm_state)
        elif self.warmup is not None and self.warmup.job_specs:
            warm_config = self.warmup_config or self.config
            Simulation(warm_config, policy, self.warmup.specs()).run()
        sink = self.sink_factory.create() if self.sink_factory is not None else None
        if self.spec_source is not None:
            # Lazy path: the spec-source iterator feeds the engine's
            # one-spec-lookahead ingestion; peak resident jobs stays O(max
            # concurrent) end to end.
            return Simulation(
                self.config, policy, self.spec_source.iter_specs(), sink=sink
            ).run()
        return Simulation(self.config, policy, self.workload.specs(), sink=sink).run()


def _execute_request(request: RunRequest) -> MetricsCollector:
    """Module-level trampoline so requests can cross a process boundary.

    Failures are re-raised as :class:`RequestExecutionError` naming the
    request, because the bare exception's traceback dies at the pool
    boundary.  ``TraceFormatError`` and ``OSError`` cross unwrapped: they
    already name the trace file (and line), and callers answer them as input
    errors, not engine failures.  The in-process path calls
    ``request.execute()`` directly and keeps its native (fully informative)
    traceback.
    """
    return _named_failures(request, request.execute)


def _warm_and_execute(request: RunRequest) -> Tuple[object, MetricsCollector]:
    """Pool task of a chain head: warm its policy, then run it restored.

    ``request.warm_state`` is a :class:`WarmupCache`; the worker warms
    through ``snapshot_for`` and returns ``(snapshot, metrics)`` so the
    parent can restore the policy's remaining requests from the snapshot.
    Failures, the warm-up's included, are wrapped like
    :func:`_execute_request`'s.
    """

    def chain() -> Tuple[object, MetricsCollector]:
        snapshot = request.warm_state.snapshot_for(request.policy_name)
        return snapshot, replace(request, warm_state=snapshot).execute()

    return _named_failures(request, chain)


def _named_failures(request: RunRequest, work: Callable[[], Any]) -> Any:
    """``work()``, with failures wrapped as described in :func:`_execute_request`."""
    try:
        return work()
    except (TraceFormatError, OSError):
        raise
    except Exception as exc:
        raise RequestExecutionError(
            f"worker failed on {request!r}: {type(exc).__name__}: {exc}\n"
            f"worker traceback:\n{traceback.format_exc()}"
        ) from None


def default_worker_count() -> int:
    """Worker count used when the caller passes ``workers=0`` ("auto")."""
    return max(1, (os.cpu_count() or 2) - 1)


class ParallelExecutor:
    """Runs batches of :class:`RunRequest` serially or over worker processes.

    ``workers=1`` (the default) executes in-process; ``workers>1`` uses a
    ``multiprocessing`` pool of that size; ``workers=0`` auto-sizes to the
    machine (``cpu_count - 1``).  Results always come back in request order.

    ``pool`` — a persistent ``concurrent.futures`` process pool — makes
    :meth:`run_stream` submit every parallel-safe request to it, whatever
    ``workers`` is, instead of starting a pool of its own; ``workers`` then
    only sizes the in-flight window.
    """

    def __init__(
        self,
        workers: int = 1,
        pool: Optional[concurrent.futures.Executor] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 means auto)")
        self.workers = workers if workers > 0 else default_worker_count()
        self.pool = pool

    def run(self, requests: Sequence[RunRequest]) -> List[MetricsCollector]:
        """Execute every request and return metrics in request order.

        Requests pinned to in-process execution (policy instances) run here;
        the parallel-safe remainder fans out over the pool.  A mixed batch
        therefore still parallelises everything it can — with one deliberate
        exception: a batch containing exactly *one* parallel-safe request
        executes it in-process too.  Spawning a pool to run a single
        simulation costs more than the simulation (fork + pickle + teardown),
        so the serial fallback is intentional, not an accident of the guard.

        On the pool, a request whose ``warm_state`` is a
        :class:`~repro.experiments.warmup.WarmupCache` without its policy's
        snapshot joins that (cache, policy) pair's *chain*.  Dispatch order:

        1. each chain's first request, as one task that warms the policy and
           then runs the request from the fresh snapshot — submitted before
           anything else, because each is the batch's longest path;
        2. every other request, in request order (a cache that already holds
           its policy's snapshot is swapped for the snapshot);
        3. as each head returns, in submission order, its snapshot is
           recorded in the parent's cache and the chain's remaining requests
           are submitted restored from it.

        Each pair is warmed exactly once per batch, as on the serial path,
        and the results do not depend on the dispatch order.
        """
        requests = list(requests)
        if not requests:
            return []
        safe_indices = [
            index for index, request in enumerate(requests) if request.parallel_safe
        ]
        results: List[Optional[MetricsCollector]] = [None] * len(requests)
        if self.workers > 1 and len(safe_indices) > 1:
            pool_size = min(self.workers, len(safe_indices))
            with multiprocessing.Pool(processes=pool_size) as pool:
                fanned_out = _fan_out(pool, requests, safe_indices)
            for index, metrics in fanned_out.items():
                results[index] = metrics
        for index, request in enumerate(requests):
            if results[index] is None:
                results[index] = request.execute()
        return results

    def run_stream(
        self,
        requests: Iterable[RunRequest],
        max_in_flight: Optional[int] = None,
    ) -> Iterator[MetricsCollector]:
        """Execute a request *stream* lazily, yielding metrics in order.

        The streaming twin of :meth:`run`: requests are pulled from the
        iterator only when there is room in the in-flight window, so a
        generator that materialises expensive payloads (trace-replay shard
        workloads) never gets more than ``max_in_flight`` of them alive in
        this process at once.  Parallel-safe requests are submitted to the
        pool as they are pulled; pinned (policy-instance) requests execute
        in-process when their turn to be yielded comes, which keeps the
        merge strictly in request order.

        ``max_in_flight`` defaults to ``2 * workers`` (enough to keep every
        worker busy while the next requests are being built).  With
        ``workers=1`` and no ``pool``, no pool is created and the stream is
        fully lazy: pull one, execute, yield.  With a ``pool``, a dead
        worker raises :class:`RequestExecutionError` naming the request that
        was waiting on it.

        Determinism matches :meth:`run`: the same requests yield
        byte-identical metrics in the same order for any worker count.
        """
        iterator = iter(requests)
        if self.workers <= 1 and self.pool is None:
            for request in iterator:
                yield request.execute()
            return
        if max_in_flight is None:
            max_in_flight = 2 * self.workers
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")

        # (request, ticket) pairs in request order: the ticket is the pool's
        # handle on the result, or None for a pinned request that runs here
        # when its turn comes.
        in_flight: deque = deque()

        def resolve() -> MetricsCollector:
            request, ticket = in_flight.popleft()
            if ticket is None:
                return request.execute()
            if self.pool is None:
                return ticket.get()
            try:
                return ticket.result()
            except concurrent.futures.BrokenExecutor as exc:
                raise _worker_died(request) from exc

        with (
            multiprocessing.Pool(processes=self.workers)
            if self.pool is None
            else contextlib.nullcontext()
        ) as own_pool:
            while True:
                # Drain before pulling: the request generator is only
                # advanced when the new request fits in the window, which is
                # what bounds how many of its payloads exist at once.
                if len(in_flight) >= max_in_flight:
                    yield resolve()
                    continue
                request = next(iterator, None)
                if request is None:
                    break
                if not request.parallel_safe:
                    ticket = None
                elif self.pool is None:
                    ticket = own_pool.apply_async(_execute_request, (request,))
                else:
                    try:
                        ticket = self.pool.submit(_execute_request, request)
                    except concurrent.futures.BrokenExecutor as exc:
                        raise _worker_died(request) from exc
                in_flight.append((request, ticket))
            while in_flight:
                yield resolve()


def _fan_out(
    pool: multiprocessing.pool.Pool,
    requests: List[RunRequest],
    safe_indices: List[int],
) -> Dict[int, MetricsCollector]:
    """Run ``requests[safe_indices]`` on ``pool``; their metrics by request index.

    Dispatch follows :meth:`ParallelExecutor.run`: chain heads, then the
    rest in request order, then each chain's dependents as its head returns.
    """
    # (cache, policy name) -> request indices, the chain head first.
    chains: Dict[Tuple[WarmupCache, str], List[int]] = {}
    rest: List[int] = []
    for index in safe_indices:
        request = requests[index]
        cache = request.warm_state
        if isinstance(cache, WarmupCache) and not cache.holds(request.policy_name):
            chains.setdefault((cache, request.policy_name), []).append(index)
        else:
            rest.append(index)
    tickets: Dict[int, multiprocessing.pool.AsyncResult] = {}
    results: Dict[int, MetricsCollector] = {}

    def submit(index: int) -> None:
        request = requests[index]
        cache = request.warm_state
        if isinstance(cache, WarmupCache):
            request = replace(request, warm_state=cache.snapshot_for(request.policy_name))
        tickets[index] = pool.apply_async(_execute_request, (request,))

    heads = [
        (key, indices, pool.apply_async(_warm_and_execute, (requests[indices[0]],)))
        for key, indices in chains.items()
    ]
    for index in rest:
        submit(index)
    for (cache, name), (head, *dependents), ticket in heads:
        snapshot, results[head] = ticket.get()
        cache.record(name, snapshot)
        for index in dependents:
            submit(index)
    for index, ticket in sorted(tickets.items()):
        results[index] = ticket.get()
    return results


def _worker_died(request: RunRequest) -> RequestExecutionError:
    return RequestExecutionError(
        f"a pool worker process died before {request!r} completed"
    )


class AsyncBridge:
    """Asyncio-facing bridge over the blocking simulation machinery.

    The replay service's front end is a single-threaded event loop; plan
    execution is blocking work — calibration scan, cache I/O, and waiting on
    the simulations, which run on the service's persistent process pool.
    The bridge owns a *bounded* thread pool — the service's in-flight plan
    capacity — and provides the two primitives an always-on server needs:

    * :meth:`submit` — run a blocking callable (typically
      ``runner.execute(plan, on_metrics=...)``) off-loop and await its
      result.  At most ``max_concurrent`` such calls execute at once;
      excess submissions wait in the thread pool's queue, which is why the
      server performs *admission* before ever reaching the bridge.
    * :meth:`loop_callback` — wrap a loop-side callable so worker threads
      can invoke it mid-run; invocations are marshalled onto the event loop
      with ``call_soon_threadsafe``.  This is how per-shard metrics hooks
      become streamed delta messages without the blocking thread ever
      touching asyncio state.

    The bridge is deliberately thin: it adds no queueing semantics of its
    own (admission owns fairness) and no result reordering (plan execution
    is already deterministic), so the service-side digest of a plan is the
    offline ``execute(plan)`` digest by construction.
    """

    def __init__(self, max_concurrent: int = 2) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be at least 1")
        self.max_concurrent = max_concurrent
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_concurrent, thread_name_prefix="replay-plan"
        )

    async def submit(self, func: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``func(*args, **kwargs)`` on the bridge pool and await it."""
        # Imported here, not at module level: only the service's event loop
        # reaches the bridge, and every CLI process and pool worker imports
        # this module.
        import asyncio

        loop = asyncio.get_running_loop()
        if kwargs:
            call = lambda: func(*args, **kwargs)  # noqa: E731
        elif args:
            call = lambda: func(*args)  # noqa: E731
        else:
            call = func
        return await loop.run_in_executor(self._pool, call)

    @staticmethod
    def loop_callback(callback: Callable[..., None]) -> Callable[..., None]:
        """A thread-safe wrapper invoking ``callback`` on the current loop.

        Must be called *on* the event loop (it captures the running loop);
        the returned callable may then be handed to blocking code running in
        any thread.  Invocations are fire-and-forget: they are queued to the
        loop in call order, which preserves the deterministic shard-major
        delta order of ``runner.execute``'s ``on_metrics`` hook.
        """
        import asyncio

        loop = asyncio.get_running_loop()

        def schedule(*args: Any) -> None:
            # repro: allow[ASY202] this IS the sanctioned wrapper the rule routes callers to
            loop.call_soon_threadsafe(callback, *args)

        return schedule

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)
