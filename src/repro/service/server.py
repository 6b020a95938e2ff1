"""The always-on replay service: asyncio front end over the blocking engine.

One event-loop thread owns every socket, the admission scheduler and the
dispatcher; plan execution happens on the bounded
:class:`~repro.experiments.executor.AsyncBridge` thread pool, and every
simulation a plan needs runs on one persistent spawn-context process pool
with ``max_inflight_plans`` workers.  Bridge threads only scan, look up and
store cache entries, and wait; the engine runs in the workers, so
concurrent plans use every core instead of sharing one GIL.  A plan's
``workers`` field does not apply here.  The loop never blocks on a
simulation, so fifty tenants can hold open streaming sessions against a
two-slot execution pool.

Life of a submission:

1. The connection reader decodes a ``submit`` frame, builds the
   :class:`~repro.experiments.plan.ReplayPlan` with ``from_wire`` and
   validates it — an invalid plan is answered ``rejected(400)`` without
   ever touching the scheduler.
2. :class:`~repro.service.admission.FairShareAdmission` either enqueues it
   (→ ``accepted``) or refuses it (→ ``rejected(429)``).  Both answers are
   written before the reader looks at the next frame, so a client always
   learns a submission's fate immediately.
3. The dispatcher task pops submissions in weighted fair-share order
   whenever an execution slot is free and runs
   :func:`repro.experiments.runner.execute` on the bridge pool, handing it
   the process pool.  The ``on_metrics`` hook fires in the bridge thread as
   each (policy, seed, shard) simulation lands; its chunk is serialised
   there and marshalled to the loop with ``call_soon_threadsafe``, which
   preserves per-submission delta order and makes the outbox queue safe.
4. ``done`` carries the policy-tagged digest plus the merge-order metadata
   (policies, seeds, shard count) a client needs to refold its deltas and
   verify the digest independently.

Per-connection writes go through an outbox queue drained by a writer task —
the reader never awaits a slow peer's socket, and deltas from concurrently
executing submissions interleave cleanly on one connection.

With a replay cache configured (``--cache``), a submission whose every
(policy, seed, shard) slice is already stored is answered *before*
admission: the reader probes the cache synchronously on the loop thread
(pure disk reads, no simulation), streams the restored deltas and the
``done`` frame, and never debits the tenant's fair share — repeated plans
cost milliseconds instead of an execution slot.

The process pool is built when the first plan is dispatched, so a server
that only answers pings and cache hits never starts a worker.  A worker
that dies breaks the pool: the plans with requests on it get ``error``
frames naming a lost (policy, seed, shard) request, the service drops that
pool, and the next dispatch builds a fresh one.  :meth:`ReplayService.stop`
cancels queued requests and reaps the workers; ``serve`` does that on
SIGINT and SIGTERM alike.
"""

from __future__ import annotations

import argparse
import asyncio
import concurrent.futures
import functools
import logging
import multiprocessing
import signal
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.experiments.cache import ReplayCache
from repro.experiments.executor import AsyncBridge, RequestExecutionError
from repro.experiments.plan import PlanError, ReplayPlan
from repro.experiments.runner import execute, plan_scale, probe_plan_cache
from repro.service import protocol
from repro.service.admission import (
    REJECT_BAD_PLAN,
    AdmissionRejected,
    FairShareAdmission,
)
from repro.simulator.sinks import chunk_to_wire
from repro.workload.traces import TraceFormatError

logger = logging.getLogger(__name__)


def _parse_weight(spec: str) -> Tuple[str, float]:
    tenant, _, raw = spec.partition("=")
    if not tenant or not raw:
        raise ValueError(f"weight must look like TENANT=FLOAT, got {spec!r}")
    return tenant, float(raw)


@dataclass
class ServiceConfig:
    """Tunables of one service instance; defaults suit tests and smokes."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (``start`` returns the real one).
    port: int = 0
    #: Plans executing concurrently — the bridge pool's thread count — and
    #: the worker count of the process pool their simulations share.
    max_inflight_plans: int = 2
    #: Per-tenant pending-submission bound (beyond in-flight ones).
    max_pending_per_tenant: int = 4
    #: Service-wide pending-submission bound.
    max_pending_total: int = 16
    #: Fair-share weights per tenant; unlisted tenants get ``default_weight``.
    tenant_weights: Dict[str, float] = field(default_factory=dict)
    default_weight: float = 1.0
    #: Content-addressed replay cache directory; ``None`` disables caching.
    #: Injected into every submitted plan that does not name its own cache.
    cache_dir: Optional[str] = None


@dataclass
class _Connection:
    """One client connection: its writer, outbox and liveness flag."""

    writer: asyncio.StreamWriter
    outbox: "asyncio.Queue[Optional[bytes]]"
    open: bool = True

    def send(self, message: Dict[str, Any]) -> None:
        if self.open:
            self.outbox.put_nowait(protocol.encode_message(message))


@dataclass(eq=False)  # identity semantics: tracked in a set while dispatched
class _Submission:
    """An admitted plan waiting for (or holding) an execution slot."""

    request_id: int
    tenant: str
    plan: ReplayPlan
    connection: _Connection
    submitted_at: float
    #: Virtual-time charge debited at dispatch; refunded on disconnect.
    cost: float = 0.0


class ReplayService:
    """The multi-tenant replay server; see the module docstring."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self._admission = FairShareAdmission(
            max_pending_per_tenant=self.config.max_pending_per_tenant,
            max_pending_total=self.config.max_pending_total,
            weights=self.config.tenant_weights,
            default_weight=self.config.default_weight,
        )
        self._bridge: Optional[AsyncBridge] = None
        #: The simulation process pool; built at the first dispatch.
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        # Created in start(): binding an Event outside the serving loop
        # breaks on Python 3.8, where primitives capture the current loop.
        self._wakeup: Optional[asyncio.Event] = None
        self._inflight = 0
        self._next_id = 1
        self._tasks: Set[asyncio.Task] = set()
        # Loop-thread cache handle, used only for synchronous full-hit
        # probes in _handle_submit.  Worker-thread executions build their
        # own ReplayCache from plan.cache — the store is multi-process
        # safe, the in-memory LRU is not.
        self._cache: Optional[ReplayCache] = (
            ReplayCache(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        #: Dispatched-but-unfinished submissions, so a dropped connection
        #: can refund their admission debits.
        self._live: Set[_Submission] = set()
        #: Served-plan counters, for smoke assertions and logs.
        self.completed_plans = 0
        self.failed_plans = 0
        self.rejected_submissions = 0
        #: Plans answered entirely from the replay cache (no admission).
        self.cached_plans = 0
        #: Submissions cancelled or refunded because their client vanished.
        self.released_submissions = 0

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._wakeup = asyncio.Event()
        self._bridge = AsyncBridge(max_concurrent=self.config.max_inflight_plans)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, cancel the dispatcher and shut both pools down.

        Queued simulation requests are cancelled; running ones finish in
        their workers (a simulation has no cancellation point) and their
        results are dropped.  Returns once every worker has exited.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        for task in list(self._tasks):
            task.cancel()
        if self._pool is not None:
            pool, self._pool = self._pool, None
            await asyncio.get_running_loop().run_in_executor(
                None, functools.partial(pool.shutdown, wait=True, cancel_futures=True)
            )
        if self._bridge is not None:
            self._bridge.shutdown(wait=False)

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer=writer, outbox=asyncio.Queue())
        writer_task = asyncio.ensure_future(self._drain_outbox(connection))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError, ValueError):
                    break
                if not line:
                    break
                if line.strip():
                    self._handle_frame(connection, line)
        finally:
            connection.open = False
            self._release_connection(connection)
            connection.outbox.put_nowait(None)
            await writer_task
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _release_connection(self, connection: _Connection) -> None:
        """Give back what a vanished client's submissions were holding.

        Pending submissions are cancelled outright — they were never
        dispatched, so they only occupied backlog slots.  Dispatched ones
        cannot be interrupted (the simulation runs on a bridge thread), but
        their results now go nowhere, so the tenant's virtual-time debit is
        refunded; without this a tenant that disconnects mid-plan would
        keep paying fair share for work the service threw away.
        """
        cancelled = self._admission.cancel_where(
            lambda item: isinstance(item, _Submission) and item.connection is connection
        )
        refunded = 0
        for submission in sorted(self._live, key=lambda s: s.request_id):
            if submission.connection is connection:
                self._admission.refund(submission.tenant, submission.cost)
                refunded += 1
        if cancelled or refunded:
            self.released_submissions += len(cancelled) + refunded
            logger.warning(
                "connection dropped before done: cancelled %d pending, "
                "refunded %d in-flight submission(s)",
                len(cancelled),
                refunded,
            )

    async def _drain_outbox(self, connection: _Connection) -> None:
        while True:
            frame = await connection.outbox.get()
            if frame is None:
                return
            try:
                connection.writer.write(frame)
                await connection.writer.drain()
            except (ConnectionError, OSError):
                connection.open = False
                return

    def _handle_frame(self, connection: _Connection, line: bytes) -> None:
        try:
            message = protocol.decode_message(line)
        except protocol.ProtocolError as exc:
            connection.send(protocol.rejected_message(REJECT_BAD_PLAN, str(exc)))
            return
        op = message.get("op")
        if op == "ping":
            connection.send(protocol.pong_message())
        elif op == "submit":
            self._handle_submit(connection, message)
        else:
            connection.send(
                protocol.rejected_message(REJECT_BAD_PLAN, f"unknown op {op!r}")
            )

    def _handle_submit(self, connection: _Connection, message: Dict[str, Any]) -> None:
        tenant = message.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            connection.send(
                protocol.rejected_message(
                    REJECT_BAD_PLAN, "submit needs a non-empty string 'tenant'"
                )
            )
            return
        try:
            plan = ReplayPlan.from_wire(message.get("plan")).validate()
        except PlanError as exc:
            connection.send(protocol.rejected_message(REJECT_BAD_PLAN, str(exc)))
            return
        if plan.cache is None and self.config.cache_dir is not None:
            plan = replace(plan, cache=self.config.cache_dir)
        if plan.cache is not None and self._answer_from_cache(connection, tenant, plan):
            return
        scale = plan_scale(plan)
        # Charge the plan's fan-out: tenants pay virtual time in proportion
        # to the simulations they request, not the frames they send.
        cost = float(len(plan.policies) * len(scale.seeds) * plan.shards)
        submission = _Submission(
            request_id=self._next_id,
            tenant=tenant,
            plan=plan,
            connection=connection,
            submitted_at=time.perf_counter(),
            cost=cost,
        )
        try:
            self._admission.submit(tenant, submission, cost=cost)
        except AdmissionRejected as exc:
            self.rejected_submissions += 1
            connection.send(protocol.rejected_message(exc.code, exc.reason))
            return
        self._next_id += 1
        connection.send(protocol.accepted_message(submission.request_id, tenant))
        assert self._wakeup is not None, "service not started"
        self._wakeup.set()

    def _answer_from_cache(
        self, connection: _Connection, tenant: str, plan: ReplayPlan
    ) -> bool:
        """Serve ``plan`` from the replay cache, before any admission debit.

        Returns ``True`` only when *every* (policy, seed, shard) slice was
        restored — the probe never simulates, so a full hit costs a few
        disk reads and the tenant's fair share is untouched.  Any probe
        trouble (unreadable store, missing trace, partial hit) falls back
        to the normal admitted path, whose error frames are authoritative.
        """
        cache = self._cache if plan.cache == self.config.cache_dir else None
        # The shared cache's counters span the service's lifetime; snapshot
        # them so the done frame reports this request's activity only.
        before = cache.counters.as_dict() if cache is not None else None
        request_id = self._next_id
        deltas: List[Tuple[str, int, int, Dict[str, Any]]] = []

        def buffer_delta(policy: str, seed: int, shard: int, metrics: Any) -> None:
            deltas.append(
                (policy, seed, shard, chunk_to_wire(metrics.aggregates.chunks[-1]))
            )

        started = time.perf_counter()
        try:
            executed = probe_plan_cache(plan, cache=cache, on_metrics=buffer_delta)
        except asyncio.CancelledError:
            raise
        except Exception:
            return False
        if executed is None:
            return False
        self._next_id += 1
        self.cached_plans += 1
        self.completed_plans += 1
        stats = (
            executed.cache_stats.as_dict() if executed.cache_stats is not None else None
        )
        if stats is not None and before is not None:
            stats = {key: value - before.get(key, 0) for key, value in stats.items()}
        scale = plan_scale(plan)
        connection.send(protocol.accepted_message(request_id, tenant))
        for policy, seed, shard, chunk_wire in deltas:
            connection.send(protocol.delta_message(request_id, policy, seed, shard, chunk_wire))
        connection.send(
            protocol.done_message(
                request_id=request_id,
                digest=executed.digest,
                num_jobs=executed.num_jobs,
                num_shards=executed.num_shards,
                policies=list(plan.policies),
                seeds=list(scale.seeds),
                truncated_jobs=executed.truncated_jobs,
                elapsed_ms=(time.perf_counter() - started) * 1000.0,
                cache=stats,
            )
        )
        return True

    # -- dispatch and execution ------------------------------------------------

    def _simulation_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        """The process pool plans simulate on, built on first use.

        Its workers are spawned, not forked: this process runs bridge
        threads, and a fork copies whatever locks they hold.  Building it
        lazily keeps the process-pool machinery (and multiprocessing's
        resource tracker process) out of servers that never simulate.
        """
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.config.max_inflight_plans,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return self._pool

    def _drop_broken_pool(self, pool: concurrent.futures.ProcessPoolExecutor) -> None:
        """Forget a pool a dead worker broke; the next dispatch builds anew.

        Every plan that had requests on ``pool`` reports here; the identity
        check makes sure only the first replaces it.
        """
        if self._pool is pool:
            self._pool = None
            pool.shutdown(wait=False, cancel_futures=True)

    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            while self._inflight < self.config.max_inflight_plans:
                picked = self._admission.next()
                if picked is None:
                    break
                _tenant, submission = picked
                self._inflight += 1
                self._live.add(submission)
                task = asyncio.ensure_future(self._run_submission(submission))
                self._tasks.add(task)
                task.add_done_callback(self._on_submission_done)

    def _on_submission_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        self._inflight -= 1
        if self._wakeup is not None:
            self._wakeup.set()
        if not task.cancelled():
            task.exception()  # mark retrieved; _run_submission reports itself

    async def _run_submission(self, submission: _Submission) -> None:
        connection = submission.connection
        emit = AsyncBridge.loop_callback(self._emit_delta)
        request_id = submission.request_id

        def on_metrics(policy: str, seed: int, shard: int, metrics: Any) -> None:
            # Bridge thread: serialise here (cheap, constant-size), marshal
            # the finished frame fields to the loop.
            chunk_wire = chunk_to_wire(metrics.aggregates.chunks[-1])
            emit(connection, request_id, policy, seed, shard, chunk_wire)

        assert self._bridge is not None
        pool = self._simulation_pool()
        started = time.perf_counter()
        try:
            executed = await self._bridge.submit(
                execute, submission.plan, on_metrics=on_metrics, pool=pool
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            if isinstance(exc, (PlanError, TraceFormatError, OSError)):
                reason = f"{type(exc).__name__}: {exc}"
            elif isinstance(exc, RequestExecutionError) and isinstance(
                exc.__cause__, concurrent.futures.BrokenExecutor
            ):
                self._drop_broken_pool(pool)
                reason = f"{type(exc).__name__}: {exc}"
            else:  # execution bug: report, keep serving
                reason = f"internal error: {exc!r}"
            self.failed_plans += 1
            connection.send(protocol.error_message(request_id, reason))
            return
        finally:
            self._live.discard(submission)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        scale = plan_scale(submission.plan)
        self.completed_plans += 1
        connection.send(
            protocol.done_message(
                request_id=request_id,
                digest=executed.digest,
                num_jobs=executed.num_jobs,
                num_shards=executed.num_shards,
                policies=list(submission.plan.policies),
                seeds=list(scale.seeds),
                truncated_jobs=executed.truncated_jobs,
                elapsed_ms=elapsed_ms,
                cache=executed.cache_stats.as_dict()
                if executed.cache_stats is not None
                else None,
            )
        )

    def _emit_delta(
        self,
        connection: _Connection,
        request_id: int,
        policy: str,
        seed: int,
        shard: int,
        chunk_wire: Dict[str, Any],
    ) -> None:
        connection.send(
            protocol.delta_message(request_id, policy, seed, shard, chunk_wire)
        )


# -- CLI entry point (the ``grass-experiments serve`` verb) ------------------------


def build_serve_parser(parser: Optional[argparse.ArgumentParser] = None) -> argparse.ArgumentParser:
    parser = parser or argparse.ArgumentParser(
        description="run the always-on multi-tenant replay service"
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 (default) binds an ephemeral port and prints it",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=2, metavar="N",
        help="plans executing concurrently (default 2)",
    )
    parser.add_argument(
        "--max-pending-per-tenant", type=int, default=4, metavar="N",
        help="pending submissions allowed per tenant before 429s (default 4)",
    )
    parser.add_argument(
        "--max-pending-total", type=int, default=16, metavar="N",
        help="pending submissions allowed service-wide before 429s (default 16)",
    )
    parser.add_argument(
        "--weight", action="append", default=[], metavar="TENANT=W",
        help="fair-share weight for a tenant (repeatable; default weight 1)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="content-addressed replay cache directory; fully cached plans "
        "are answered without debiting the tenant's fair share",
    )
    return parser


def serve_main(args: argparse.Namespace) -> int:
    try:
        weights = dict(_parse_weight(spec) for spec in args.weight)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_inflight_plans=args.max_inflight,
        max_pending_per_tenant=args.max_pending_per_tenant,
        max_pending_total=args.max_pending_total,
        tenant_weights=weights,
        cache_dir=args.cache,
    )

    async def _serve() -> None:
        service = ReplayService(config)
        host, port = await service.start()
        # Either signal cancels this task, so stop() reaps the pool before
        # exit.  Registering SIGINT here also covers a server launched with
        # SIGINT ignored (a shell's `serve &`), which would otherwise only
        # ever stop by being killed, orphaning its workers.
        loop, serving = asyncio.get_running_loop(), asyncio.current_task()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, serving.cancel)
        print(f"listening on {host}:{port}", flush=True)
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    return 0


def main(argv: Optional[Any] = None) -> int:
    return serve_main(build_serve_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
