"""Parallel execution of simulation runs.

``compare_policies`` at the paper scale is 300 jobs x 3 seeds x ~7 policies
of strictly independent simulations — an embarrassingly parallel workload
that the serial harness turned into an overnight job.  This module provides
:class:`ParallelExecutor`, which fans :class:`RunRequest` batches out over
worker processes and merges the resulting
:class:`~repro.simulator.metrics.MetricsCollector` objects back **in request
order**, so the output is bit-identical to the serial path no matter how the
OS schedules the workers.

Two entry points drive one dispatch loop, an in-order window of requests:

* :meth:`ParallelExecutor.run` — the batch path: every request in flight
  at once, metrics returned as a list.
* :meth:`ParallelExecutor.run_stream` — the streaming path: consume an
  *iterator* of requests lazily (at most ``max_in_flight`` requests are ever
  materialised and unmerged at once) and yield metrics in request order as
  they complete.  This is what lets trace replay build arrival-window shards
  while earlier shards are still simulating, keeping memory bounded for
  traces that do not fit in RAM.

Every request names its policy, so the loop submits each one to the pool
as it is pulled.  A learning policy's requests may name the
:class:`~repro.experiments.warmup.WarmupCache` their warm state comes from:
the first request of each (cache, policy) pair — its *chain head* — warms
the policy and runs in one worker task, and the pair's later requests wait
for the snapshot the head returns, then go to the pool restored from it.
Each pair is therefore warmed once per call, in a batch or a stream.

The pool is a ``multiprocessing`` pool started per call.  A long-lived
caller — the replay service — instead hands the executor a persistent
``concurrent.futures`` process pool, which both entry points then submit
to, and a worker that dies fails only the requests that were on that pool,
as a :class:`RequestExecutionError` naming one of them.

Determinism contract
--------------------

* Each request is self-contained: the process running it constructs its
  own policy instance (policies are stateful learners) and its own
  ``Simulation``, so nothing is shared across processes or requests.
* Every simulation is seeded explicitly; a ``(policy, seed)`` run therefore
  produces the same ``MetricsCollector`` whether it executes in this process,
  a worker process, or a different worker count.
* Results are merged strictly in request order — the loop yields position
  ``i`` before pulling request ``i + k`` past its in-flight window, and a
  chain only delays when a request is submitted — so ``workers=N`` and
  ``workers=1`` return byte-identical payloads (``tests/test_executor.py``
  locks this in with a pickle comparison for both entry points).

The serial path (a window of one process, no pool given) does not touch
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

    The policy is named by registry name (``policy_name``, required): the
    process that runs the request builds a fresh instance, so every request
    is safe to ship to a worker process.

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

    A learning policy starts from cluster history through ``warm_state``: a
    pre-computed state snapshot (see ``repro.experiments.warmup``) restored
    before the run.  Snapshots are plain data, so they pickle to workers
    with the request.  ``warm_state`` may instead name the
    :class:`~repro.experiments.warmup.WarmupCache` that produces the
    snapshot: the request then resolves ``cache.snapshot_for(policy_name)``
    wherever it runs, and :class:`ParallelExecutor` chains a pool worker's
    warm-up with the first request of each (cache, policy) pair.
    """

    workload: Optional[GeneratedWorkload] = None
    config: SimulationConfig = None  # type: ignore[assignment]
    policy_name: str = None  # type: ignore[assignment]
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
        if self.policy_name is None:
            raise ValueError("a run request needs a registry policy_name")

    def __repr__(self) -> str:
        """Concise identity (the dataclass default would dump the workload)."""
        if isinstance(self.warm_state, WarmupCache):
            warm = "cache"
        elif self.warm_state is not None:
            warm = "snapshot"
        else:
            warm = "none"
        if self.workload is not None:
            jobs = f"jobs={len(self.workload.job_specs)}"
        else:
            jobs = f"specs={self.spec_source}"
        return (
            f"RunRequest(policy={self.policy_name}, {jobs}, "
            f"seed={self.config.seed}, warm={warm})"
        )

    @property
    def parallel_safe(self) -> bool:
        """Always True: every request may run in a worker process.

        Kept only because the benchmark's tracer (``perfbench/tracer.py``)
        reads it on every request; it goes with that tracer's next change.
        """
        return True

    def execute(self) -> MetricsCollector:
        """Run this request in the current process and return its metrics.

        A ``warm_state`` snapshot is restored into the policy first, so a
        learning policy (GRASS) starts with the sample store a separate
        warm-up workload gave it, as a long-running production scheduler
        would.  Restoring is byte-equivalent to having this policy instance
        simulate that warm-up itself.  A cache in ``warm_state`` is resolved
        here, through its memo.
        """
        policy = make_policy(self.policy_name)
        warm_state = self.warm_state
        if isinstance(warm_state, WarmupCache):
            warm_state = warm_state.snapshot_for(self.policy_name)
        if warm_state is not None:
            policy.restore_state(warm_state)
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
    errors, not engine failures.  The serial path calls
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
    ``multiprocessing`` pool of up to that size, started per call;
    ``workers=0`` auto-sizes to the machine (``cpu_count - 1``).  Results
    always come back in request order.

    ``pool`` — a persistent ``concurrent.futures`` process pool — makes
    :meth:`run` and :meth:`run_stream` submit every request to it, whatever
    ``workers`` is, instead of starting a pool of their own; ``workers``
    then only sizes :meth:`run_stream`'s default window.
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

        The batch view of the loop behind :meth:`run_stream`, with a window
        as wide as the batch: every request is in flight at once, on a
        per-call pool of up to ``workers`` processes.  A batch of one request
        therefore runs in-process: spawning a pool to run a single
        simulation costs more than the simulation (fork + pickle +
        teardown).

        Each warm-up chain (see the module docs) is warmed exactly once per
        batch, as on the serial path.  Listing learning requests first gets
        the chains, each the batch's longest path, onto the pool first; the
        results do not depend on the dispatch order.
        """
        requests = list(requests)
        return list(self._dispatch(requests, max(1, len(requests))))

    def run_stream(
        self,
        requests: Iterable[RunRequest],
        max_in_flight: Optional[int] = None,
    ) -> Iterator[MetricsCollector]:
        """Execute a request *stream* lazily, yielding metrics in order.

        Requests are pulled from the iterator only when there is room in
        the in-flight window, so a generator that materialises expensive
        payloads (trace-replay shard workloads) never gets more than
        ``max_in_flight`` of them alive in this process at once.  Requests
        are submitted to the pool as they are pulled and yielded strictly in
        request order.  Warm-up chains work as in :meth:`run`: a request
        waiting for its head's snapshot holds its place in the window.

        ``max_in_flight`` defaults to ``2 * workers`` (enough to keep every
        worker busy while the next requests are being built) and must be at
        least 1.  The per-call pool has ``min(workers, max_in_flight)``
        processes; with one and no ``pool``, no pool is created and the
        stream is fully lazy: pull one, execute, yield.  With a ``pool``, a
        dead worker raises :class:`RequestExecutionError` naming the request
        that was waiting on it.

        Determinism matches :meth:`run`: the same requests yield
        byte-identical metrics in the same order for any worker count.
        """
        if max_in_flight is None:
            max_in_flight = 2 * self.workers
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        return self._dispatch(requests, max_in_flight)

    def _dispatch(
        self, requests: Iterable[RunRequest], max_in_flight: int
    ) -> Iterator[MetricsCollector]:
        """The dispatch loop of :meth:`run` and :meth:`run_stream`.

        Both public methods call this loop and never each other, so an
        instrumented entry point sees each request exactly once.
        """
        iterator = iter(requests)
        processes = min(self.workers, max_in_flight)
        if self.pool is None and processes == 1:
            for request in iterator:
                yield request.execute()
            return
        with (
            multiprocessing.Pool(processes=processes)
            if self.pool is None
            else contextlib.nullcontext()
        ) as own_pool:

            def submit(task: Callable[[RunRequest], Any], request: RunRequest) -> Callable[[], Any]:
                if own_pool is not None:
                    return own_pool.apply_async(task, (request,)).get
                try:
                    return self.pool.submit(task, request).result
                except concurrent.futures.BrokenExecutor as exc:
                    raise _worker_died(request) from exc

            in_flight: deque[_Pending] = deque()  # in request order
            # Each chain whose head is still running: the requests of its
            # (cache, policy) pair waiting for the head's snapshot.
            held: Dict[Tuple[WarmupCache, str], List[_Pending]] = {}

            def resolve() -> MetricsCollector:
                pending = in_flight.popleft()
                try:
                    result = pending.result()
                except concurrent.futures.BrokenExecutor as exc:
                    raise _worker_died(pending.request) from exc
                if pending.head_of is None:
                    return result
                snapshot, metrics = result
                cache, name = pending.head_of
                cache.record(name, snapshot)
                for dependent in held.pop(pending.head_of):
                    dependent.result = submit(_execute_request, _restored(dependent.request))
                return metrics

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
                pending = _Pending(request)
                cache = request.warm_state
                if isinstance(cache, WarmupCache) and not cache.holds(request.policy_name):
                    chain = (cache, request.policy_name)
                    if chain in held:
                        held[chain].append(pending)
                    else:
                        held[chain] = []
                        pending.head_of = chain
                        pending.result = submit(_warm_and_execute, request)
                else:
                    pending.result = submit(_execute_request, _restored(request))
                in_flight.append(pending)
            while in_flight:
                yield resolve()


@dataclass
class _Pending:
    """A request of the dispatch window, from its pull until its yield."""

    request: RunRequest
    #: Blocks for the pool's result.  None for a chain dependent until its
    #: head resolves — always before the dependent's own turn.
    result: Optional[Callable[[], Any]] = None
    #: The (cache, policy name) chain this request heads, if any.
    head_of: Optional[Tuple[WarmupCache, str]] = None


def _restored(request: RunRequest) -> RunRequest:
    """``request`` with a cache in its ``warm_state`` swapped for the snapshot."""
    cache = request.warm_state
    if isinstance(cache, WarmupCache):
        return replace(request, warm_state=cache.snapshot_for(request.policy_name))
    return request


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
