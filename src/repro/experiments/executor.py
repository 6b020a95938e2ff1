"""Parallel execution of simulation runs.

``compare_policies`` at the paper scale is 300 jobs x 3 seeds x ~7 policies
of strictly independent simulations — an embarrassingly parallel workload
that the serial harness turned into an overnight job.  This module provides
:class:`ParallelExecutor`, which fans :class:`RunRequest` batches out over
worker processes and merges the resulting
:class:`~repro.simulator.metrics.MetricsCollector` objects back **in request
order**, so the output is bit-identical to the serial path no matter how the
OS schedules the workers.

A request is a recipe: every field is a small description — the spec
source, the configs, the policy's registry name, the warm-up recipe, the
sink factory — and the process that runs the request builds its specs, its
policy, its warm-up and its sink from them.  So requests pickle to about a
kilobyte and depend on nothing but themselves.  A process builds a
synthetic workload or a warm-up once and memoises it for the requests it
runs next (:func:`~repro.workload.synthetic.generated`,
:mod:`repro.experiments.warmup`).

Two entry points drive one dispatch loop, an in-order window of requests:

* :meth:`ParallelExecutor.run` — the batch path: every request in flight
  at once, metrics returned as a list.
* :meth:`ParallelExecutor.run_stream` — the streaming path: consume an
  *iterator* of requests lazily (at most ``max_in_flight`` requests are ever
  materialised and unmerged at once) and yield metrics in request order as
  they complete.  This is what lets trace replay build arrival-window shards
  while earlier shards are still simulating, keeping memory bounded for
  traces that do not fit in RAM.

The pool is a ``multiprocessing`` pool started per call.  A long-lived
caller — the replay service — instead hands the executor a persistent
``concurrent.futures`` process pool, which both entry points then submit
to, and a worker that dies fails only the requests that were on that pool,
as a :class:`RequestExecutionError` naming one of them.

Determinism contract
--------------------

* Each request is self-contained: the process running it constructs its
  own policy instance (policies are stateful learners) and its own
  ``Simulation``, so nothing is shared across processes or requests.  A
  warm-up a process memoises is restored into a fresh policy per request
  (see :mod:`repro.experiments.warmup`).
* Every simulation is seeded explicitly; a ``(policy, seed)`` run therefore
  produces the same ``MetricsCollector`` whether it executes in this process,
  a worker process, or a different worker count.
* Results are merged strictly in request order — the loop yields position
  ``i`` before pulling request ``i + k`` past its in-flight window — so
  ``workers=N`` and ``workers=1`` return byte-identical payloads
  (``tests/test_executor.py`` locks this in with a pickle comparison for
  both entry points).

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
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.policies import make_policy
from repro.experiments.warmup import WarmupCache
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.metrics import MetricsCollector
from repro.simulator.sinks import SinkFactory
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
    """One independent simulation: a policy over a spec source under one seed.

    The policy is named by registry name (``policy_name``): the process that
    runs the request builds a fresh instance, so every request is safe to
    ship to a worker process.

    The jobs come from ``spec_source``, a picklable *description* of the
    specs: any object with ``iter_specs() -> Iterator[JobSpec]``, such as a
    synthetic :class:`~repro.workload.synthetic.WorkloadConfig` or a trace
    window's :class:`~repro.workload.trace_replay.ShardSpecSource`.  The
    executing process — worker or parent — reads the specs straight into
    the engine's lazy ingestion.  The source's spec stream must be sorted by
    ``(arrival_time, job_id)`` (the engine raises otherwise).

    A learning policy starts from cluster history through ``warm_state``,
    the :class:`~repro.experiments.warmup.WarmupCache` recipe of its
    warm-up: the executing process resolves ``snapshot_for(policy_name)``
    through its own memo and restores the snapshot before the run.
    """

    #: Lazy spec source (duck-typed: ``iter_specs()``); see the class docs.
    spec_source: Any
    config: SimulationConfig
    policy_name: str
    #: The warm-up recipe of a learning policy, or None for a cold start.
    warm_state: Optional[WarmupCache] = None
    #: Which result sink the simulation records into (None = retain all —
    #: the historical behaviour).  A factory rather than an instance: spill
    #: sinks hold file handles, and the executing process — worker or
    #: parent — must build its own.  With a non-retaining factory the
    #: returned collector carries aggregates only, so the worker ships a
    #: constant-size payload home instead of one JobResult per job.
    sink_factory: Optional[SinkFactory] = None

    def __repr__(self) -> str:
        """Concise identity (the dataclass default would dump every config)."""
        warm = "none" if self.warm_state is None else "cache"
        return (
            f"RunRequest(policy={self.policy_name}, specs={self.spec_source}, "
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

        A learning policy is first restored from its warm-up's snapshot, so
        it starts with the sample store a separate warm-up workload gave it,
        as a long-running production scheduler would.  Restoring is
        byte-equivalent to having this policy instance simulate that warm-up
        itself.  The spec-source iterator then feeds the engine's
        one-spec-lookahead ingestion.
        """
        policy = make_policy(self.policy_name)
        if self.warm_state is not None:
            policy.restore_state(self.warm_state.snapshot_for(self.policy_name))
        sink = self.sink_factory.create() if self.sink_factory is not None else None
        return Simulation(
            self.config, policy, self.spec_source.iter_specs(), sink=sink
        ).run()


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
    try:
        return request.execute()
    except (TraceFormatError, OSError):
        raise
    except Exception as exc:
        raise RequestExecutionError(
            f"worker failed on {request!r}: {type(exc).__name__}: {exc}\n"
            f"worker traceback:\n{traceback.format_exc()}"
        ) from None


def default_worker_count() -> int:
    """Worker count used when the caller passes ``workers=0`` ("auto").

    One fewer than the CPUs this process may run on (its affinity mask,
    where the platform has one; else the host's CPU count), and at least 1.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 2
    return max(1, cpus - 1)


class ParallelExecutor:
    """Runs batches of :class:`RunRequest` serially or over worker processes.

    ``workers=1`` (the default) executes in-process; ``workers>1`` uses a
    ``multiprocessing`` pool of up to that size, started per call;
    ``workers=0`` auto-sizes to the CPUs this process may use, less one
    (:func:`default_worker_count`).  Results always come back in request
    order.

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
        request order.

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
            # (request, a call blocking for its metrics), in request order.
            in_flight: deque[Tuple[RunRequest, Callable[[], MetricsCollector]]] = deque()
            while True:
                # Drain before pulling: the request generator is only
                # advanced when the new request fits in the window, which is
                # what bounds how many of its payloads exist at once.
                while len(in_flight) >= max_in_flight:
                    yield _result(*in_flight.popleft())
                request = next(iterator, None)
                if request is None:
                    break
                if own_pool is not None:
                    result = own_pool.apply_async(_execute_request, (request,)).get
                else:
                    try:
                        result = self.pool.submit(_execute_request, request).result
                    except concurrent.futures.BrokenExecutor as exc:
                        raise _worker_died(request) from exc
                in_flight.append((request, result))
            while in_flight:
                yield _result(*in_flight.popleft())


def _result(request: RunRequest, result: Callable[[], MetricsCollector]) -> MetricsCollector:
    """``result()``, the metrics of ``request``; a dead worker is named."""
    try:
        return result()
    except concurrent.futures.BrokenExecutor as exc:
        raise _worker_died(request) from exc


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
