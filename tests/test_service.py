"""The always-on replay service: admission, protocol, streaming and parity.

Four layers, tested bottom-up:

* :class:`FairShareAdmission` — pure scheduling unit tests (weighted share,
  idle-clamp, bounded queues with explicit 429 rejections), deterministic
  given the submit/dispatch order;
* the wire codecs — JSONL frames and the aggregate-chunk wire format must
  round-trip exactly (chunk digests travel as hex, so parity is byte-exact);
* the server end to end — a real asyncio server on an ephemeral port, real
  client connections, and the PR's headline contract: the streamed deltas a
  tenant receives refold into the *same* policy-tagged digest an offline
  ``execute(plan)`` of the identical plan produces, while overload draws
  explicit rejections instead of unbounded buffering;
* the simulation process pool and the ``serve`` process — a golden-corpus
  digest served through the pool, a pool that starts only when a plan needs
  it, killed workers that fail at most one submission, a cache that cannot
  write, and SIGINT/SIGTERM shutdowns that leave no child process behind.
  Every wait has its own timeout, so a hang fails instead of stalling.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.cache import CacheIntegrityWarning
from repro.experiments.plan import ReplayPlan
from repro.experiments.runner import execute
from repro.service import protocol
from repro.service.admission import AdmissionRejected, FairShareAdmission
from repro.service.client import (
    PlanRejected,
    ReplayServiceClient,
    ServiceError,
    run_plan_sync,
)
from repro.service.load import run_load
from repro.service.server import ReplayService, ServiceConfig
from repro.simulator.sinks import (
    StreamingAggregates,
    chunk_from_wire,
    chunk_to_wire,
)
from repro.utils.stats import OnlineStats

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "replay_digests.json"


def tiny_plan(**overrides):
    fields = dict(
        cluster_jobs=8,
        policies=("grass",),
        scale="quick",
        seeds=(1,),
        shards=2,
        stream_specs=True,
        sink="aggregate",
    )
    fields.update(overrides)
    return ReplayPlan(**fields)


class TestFairShareAdmission:
    def test_single_tenant_is_fifo(self):
        admission = FairShareAdmission()
        admission.submit("a", "first")
        admission.submit("a", "second")
        assert admission.next() == ("a", "first")
        assert admission.next() == ("a", "second")
        assert admission.next() is None

    def test_equal_weights_alternate_under_contention(self):
        admission = FairShareAdmission(max_pending_per_tenant=4)
        for turn in range(3):
            admission.submit("a", f"a{turn}")
            admission.submit("b", f"b{turn}")
        order = [admission.next()[0] for _ in range(6)]
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_weighted_tenant_gets_proportional_share(self):
        admission = FairShareAdmission(
            max_pending_per_tenant=8, weights={"heavy": 2.0}
        )
        for turn in range(6):
            admission.submit("heavy", f"h{turn}")
            admission.submit("light", f"l{turn}")
        first_six = [admission.next()[0] for _ in range(6)]
        # Per unit of virtual time the weight-2 tenant dispatches twice as
        # often: 4 of the first 6 slots.
        assert first_six.count("heavy") == 4
        assert first_six.count("light") == 2

    def test_idle_tenant_does_not_bank_credit(self):
        admission = FairShareAdmission(max_pending_per_tenant=8)
        for turn in range(4):
            admission.submit("busy", f"b{turn}")
        for _ in range(4):
            assert admission.next()[0] == "busy"
        # "sleeper" was idle the whole time; on arrival it is clamped to the
        # current virtual clock, so it cannot monopolise the next 4 slots.
        for turn in range(2):
            admission.submit("busy", f"late{turn}")
            admission.submit("sleeper", f"s{turn}")
        order = [admission.next()[0] for _ in range(4)]
        assert order.count("sleeper") == 2
        assert order.count("busy") == 2

    def test_larger_cost_is_debited_proportionally(self):
        admission = FairShareAdmission(max_pending_per_tenant=8)
        admission.submit("big", "b0", cost=4.0)
        admission.submit("small", "s0", cost=1.0)
        admission.submit("big", "b1", cost=4.0)
        admission.submit("small", "s1", cost=1.0)
        admission.submit("small", "s2", cost=1.0)
        # Both clocks start at 0 → "big" dispatches first (earlier arrival),
        # paying 4 units; "small" then owns the clock until it catches up.
        assert [admission.next()[0] for _ in range(4)] == [
            "big", "small", "small", "small",
        ]

    def test_per_tenant_backlog_rejects_with_429(self):
        admission = FairShareAdmission(max_pending_per_tenant=2, max_pending_total=10)
        admission.submit("a", 1)
        admission.submit("a", 2)
        with pytest.raises(AdmissionRejected) as excinfo:
            admission.submit("a", 3)
        assert excinfo.value.code == 429
        assert "tenant 'a' backlog full" in excinfo.value.reason
        # Another tenant is unaffected by a's backlog.
        admission.submit("b", 1)

    def test_service_backlog_rejects_with_429(self):
        admission = FairShareAdmission(max_pending_per_tenant=5, max_pending_total=3)
        for index in range(3):
            admission.submit(f"t{index}", index)
        with pytest.raises(AdmissionRejected) as excinfo:
            admission.submit("t9", 9)
        assert excinfo.value.code == 429
        assert "service backlog full" in excinfo.value.reason

    def test_dispatch_frees_backlog_capacity(self):
        admission = FairShareAdmission(max_pending_per_tenant=1, max_pending_total=1)
        admission.submit("a", 1)
        with pytest.raises(AdmissionRejected):
            admission.submit("b", 2)
        admission.next()
        admission.submit("b", 2)
        assert admission.next() == ("b", 2)

    def test_refund_restores_the_virtual_clock(self):
        admission = FairShareAdmission()
        admission.submit("a", "a0", cost=4.0)
        assert admission.next() == ("a", "a0")
        admission.submit("a", "a1", cost=4.0)
        admission.submit("b", "b0", cost=1.0)
        # Without the refund "a" (clock 4.0) would lose the next dispatch to
        # "b" (clock 0); refunding the dispatched cost puts "a" back at 0
        # and its earlier arrival breaks the tie.
        admission.refund("a", 4.0)
        assert admission.next() == ("a", "a1")

    def test_refund_floors_at_zero_and_ignores_unknown_tenants(self):
        admission = FairShareAdmission()
        admission.submit("a", "a0", cost=1.0)
        admission.next()
        admission.refund("a", 100.0)  # over-refund cannot bank credit
        admission.refund("ghost", 1.0)  # unknown tenant: silent no-op
        admission.submit("a", "a1")
        admission.submit("b", "b0")
        assert admission.next() == ("a", "a1")

    def test_cancel_where_drops_pending_and_frees_slots(self):
        admission = FairShareAdmission(max_pending_per_tenant=2, max_pending_total=3)
        admission.submit("a", "a0")
        admission.submit("a", "keep")
        admission.submit("b", "b0")
        removed = admission.cancel_where(lambda item: item in ("a0", "b0"))
        assert removed == [("a", "a0"), ("b", "b0")]
        assert admission.pending_total == 1
        # Cancelled entries freed real capacity, per tenant and service-wide.
        admission.submit("a", "a1")
        admission.submit("b", "b1")
        assert admission.next() == ("a", "keep")


class TestWireCodecs:
    def test_frame_round_trip(self):
        message = {"op": "submit", "tenant": "t", "plan": {"trace": "x"}}
        assert protocol.decode_message(protocol.encode_message(message)) == message

    def test_oversized_and_malformed_frames_are_protocol_errors(self):
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.decode_message(b"x" * (protocol.MAX_LINE_BYTES + 1))
        with pytest.raises(protocol.ProtocolError, match="not valid JSON"):
            protocol.decode_message(b"{nope\n")
        with pytest.raises(protocol.ProtocolError, match="JSON object"):
            protocol.decode_message(b"[1,2]\n")

    def test_online_stats_round_trip_is_exact(self):
        stats = OnlineStats()
        stats.extend([1.5, -2.25, 1e-9, 3.14159])
        restored = OnlineStats.from_wire(stats.to_wire())
        assert restored == stats

    def test_empty_online_stats_round_trip(self):
        assert OnlineStats.from_wire(OnlineStats().to_wire()) == OnlineStats()

    def test_chunk_round_trip_preserves_digest(self):
        executed = execute(tiny_plan(shards=1))
        (chunk,) = executed.comparison.runs["grass"].aggregates.chunks
        restored = chunk_from_wire(chunk_to_wire(chunk))
        assert restored == chunk
        assert restored.digest == chunk.digest

    def test_streaming_aggregates_round_trip(self):
        executed = execute(tiny_plan())
        aggregates = executed.comparison.runs["grass"].aggregates
        restored = StreamingAggregates.from_wire(aggregates.to_wire())
        assert restored == aggregates
        assert restored.digest_parts() == aggregates.digest_parts()


def run_service(coro_factory, config=None):
    """Start a service on an ephemeral port, run the test coroutine, stop."""

    async def _scaffold():
        service = ReplayService(config or ServiceConfig())
        host, port = await service.start()
        try:
            return await coro_factory(service, host, port)
        finally:
            await service.stop()

    return asyncio.run(_scaffold())


class TestServiceEndToEnd:
    def test_ping(self):
        async def scenario(service, host, port):
            async with ReplayServiceClient(host, port) as client:
                await client.ping()

        run_service(scenario)

    def test_streamed_deltas_refold_into_the_offline_digest(self):
        plan = tiny_plan()
        offline = execute(plan).digest

        async def scenario(service, host, port):
            async with ReplayServiceClient(host, port) as client:
                return await client.run_plan(plan, tenant="t0")

        outcome = run_service(scenario)
        # Server digest, client refold of the streamed deltas, and the
        # offline execution of the identical plan: all byte-identical.
        assert outcome.digest == offline
        assert outcome.verify() == offline
        # One delta per (policy, seed, shard), coordinates intact.
        assert len(outcome.deltas) == 1 * 1 * outcome.num_shards
        assert outcome.num_jobs == 8
        # The reassembled aggregates answer queries, not just digests.
        assert outcome.aggregates_for("grass").num_results > 0
        assert outcome.first_delta_seconds is not None
        assert outcome.first_delta_seconds <= outcome.total_seconds

    def test_batch_plans_also_stream_deltas(self):
        plan = tiny_plan(stream_specs=False, sink="retain")
        offline = execute(plan).digest

        async def scenario(service, host, port):
            async with ReplayServiceClient(host, port) as client:
                return await client.run_plan(plan, tenant="t0")

        outcome = run_service(scenario)
        assert outcome.verify() == offline

    def test_concurrent_tenants_all_verify(self):
        plans = [tiny_plan(seed=index) for index in range(4)]
        offline = [execute(plan).digest for plan in plans]

        async def scenario(service, host, port):
            async def one(index):
                async with ReplayServiceClient(host, port) as client:
                    return await client.run_plan(plans[index], tenant=f"t{index}")

            return await asyncio.gather(*(one(index) for index in range(4)))

        outcomes = run_service(
            scenario,
            ServiceConfig(max_inflight_plans=2, max_pending_total=16),
        )
        assert [outcome.verify() for outcome in outcomes] == offline
        # Distinct tier seeds are distinct experiments.
        assert len(set(offline)) == len(offline)

    def test_invalid_plan_is_rejected_400_before_admission(self):
        async def scenario(service, host, port):
            async with ReplayServiceClient(host, port) as client:
                with pytest.raises(PlanRejected) as excinfo:
                    await client.run_plan(
                        ReplayPlan(trace="t", cluster_jobs=5), tenant="t0"
                    )
                assert excinfo.value.code == 400
                assert "exactly one of" in excinfo.value.reason
            assert service.rejected_submissions == 0  # never reached admission

        run_service(scenario)

    def test_repeated_policy_is_rejected_400_before_the_cache(self, tmp_path):
        # ("late", "late") digests like ("late",) but would stream, look up
        # and simulate every slice twice, and never count as a cache hit.
        async def scenario(service, host, port):
            async with ReplayServiceClient(host, port) as client:
                await client.run_plan(tiny_plan(policies=("late",)), tenant="t0")
                with pytest.raises(PlanRejected) as excinfo:
                    await client.run_plan(
                        tiny_plan(policies=("late", "late")), tenant="t0"
                    )
                assert excinfo.value.code == 400
                assert "late more than once" in excinfo.value.reason
            assert service.cached_plans == 0
            assert service.rejected_submissions == 0  # never reached admission

        run_service(scenario, ServiceConfig(cache_dir=str(tmp_path / "cache")))

    def test_unreadable_trace_is_an_error_event_not_a_crash(self):
        async def scenario(service, host, port):
            async with ReplayServiceClient(host, port) as client:
                with pytest.raises(ServiceError, match="FileNotFoundError"):
                    await client.run_plan(
                        ReplayPlan(trace="/nonexistent/trace.jsonl"), tenant="t0"
                    )
                # The connection (and the service) survive the failure.
                await client.ping()
            assert service.failed_plans == 1

        run_service(scenario)

    def test_overload_draws_explicit_429_rejections(self):
        plan = tiny_plan()

        async def scenario(service, host, port):
            async def one(index):
                try:
                    async with ReplayServiceClient(host, port) as client:
                        await client.run_plan(plan, tenant=f"burst-{index}")
                    return "completed"
                except PlanRejected as exc:
                    assert exc.code == 429
                    return "rejected"

            results = await asyncio.gather(*(one(index) for index in range(10)))
            assert results.count("rejected") >= 1
            assert results.count("completed") >= 1
            assert service.rejected_submissions == results.count("rejected")

        run_service(
            scenario,
            ServiceConfig(
                max_inflight_plans=1, max_pending_per_tenant=1, max_pending_total=2
            ),
        )

    def test_run_plan_sync_wrapper(self):
        plan = tiny_plan()

        async def _start():
            service = ReplayService(ServiceConfig())
            host, port = await service.start()
            return service, host, port

        loop = asyncio.new_event_loop()
        try:
            service, host, port = loop.run_until_complete(_start())
            # The sync client cannot share that loop; but the server needs a
            # running loop to serve.  Exercise the wrapper against a
            # loop-in-thread instead.
            import threading

            thread = threading.Thread(target=loop.run_forever, daemon=True)
            thread.start()
            try:
                outcome = run_plan_sync(host, port, plan, tenant="sync")
                assert outcome.verify() == execute(plan).digest
            finally:
                asyncio.run_coroutine_threadsafe(service.stop(), loop).result(timeout=10)
                loop.call_soon_threadsafe(loop.stop)
                thread.join(timeout=10)
        finally:
            loop.close()


class TestCacheAndRelease:
    def test_repeated_plan_is_answered_from_the_replay_cache(self, tmp_path):
        plan = tiny_plan()

        async def scenario(service, host, port):
            async with ReplayServiceClient(host, port) as client:
                first = await client.run_plan(plan, tenant="t0")
                second = await client.run_plan(plan, tenant="t0")
            return first, second, service.cached_plans

        first, second, cached_plans = run_service(
            scenario, ServiceConfig(cache_dir=str(tmp_path / "cache"))
        )
        # The second submission never reached admission or the bridge pool:
        # the server answered it from the store it populated during the first.
        assert cached_plans == 1
        assert second.digest == first.digest
        assert second.verify() == first.digest
        assert len(second.deltas) == len(first.deltas)
        assert second.cache is not None
        assert second.cache["misses"] == 0
        assert second.cache["hits"] == len(first.deltas)
        assert first.cache is not None and first.cache["stores"] == len(first.deltas)

    def test_disconnect_before_done_releases_the_admission_debit(self):
        # Big enough that the server is still simulating when the client
        # vanishes; the result goes nowhere and the debit must come back.
        slow_plan = tiny_plan(cluster_jobs=1200)

        async def scenario(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                protocol.encode_message(
                    protocol.submit_message("drop", slow_plan.to_wire())
                )
            )
            await writer.drain()
            accepted = protocol.decode_message(await reader.readline())
            assert accepted["event"] == "accepted"
            writer.close()
            await writer.wait_closed()
            for _ in range(100):
                if service.released_submissions:
                    break
                await asyncio.sleep(0.05)
            assert service.released_submissions == 1
            # Whether the submission was still pending (cancelled) or already
            # dispatched (refunded), the tenant's fair share is whole again.
            assert service._admission.pending_total == 0
            assert service._admission._tenants["drop"].virtual_time < 1e-9

        run_service(scenario)


def _new_children(before):
    """Live ``multiprocessing`` children that were not in ``before``."""
    return [child for child in multiprocessing.active_children() if child not in before]


def _wait_until(predicate, seconds):
    deadline = time.monotonic() + seconds
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.05)
    return predicate()


class TestGoldenAnchor:
    def test_service_reproduces_the_golden_cluster_digest(self):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]
        plan = ReplayPlan(
            cluster_jobs=200,
            shards=4,
            policies=("grass", "late", "mantri"),
            scale="quick",
        )

        async def scenario(service, host, port):
            async with ReplayServiceClient(host, port) as client:
                return await asyncio.wait_for(client.run_plan(plan, tenant="t0"), 120)

        outcome = run_service(scenario)
        assert outcome.verify() == golden["cluster-200x4"]
        assert outcome.digest == golden["cluster-200x4"]


class TestProcessPool:
    """The persistent simulation pool: lazy start, failure, shutdown."""

    def test_pings_and_cache_hits_start_no_worker(self, tmp_path):
        plan = tiny_plan()
        cache_dir = str(tmp_path / "cache")
        execute(tiny_plan(cache=cache_dir))
        before = set(multiprocessing.active_children())

        async def scenario(service, host, port):
            async with ReplayServiceClient(host, port) as client:
                await client.ping()
                outcome = await asyncio.wait_for(client.run_plan(plan, tenant="t0"), 60)
            return outcome, service.cached_plans, _new_children(before)

        outcome, cached_plans, children = run_service(
            scenario, ServiceConfig(cache_dir=cache_dir)
        )
        assert cached_plans == 1
        assert outcome.verify() == execute(plan).digest
        assert children == []

    def test_killed_workers_fail_at_most_one_submission(self):
        warm, hit, after = tiny_plan(seed=1), tiny_plan(seed=2), tiny_plan(seed=3)
        offline = {plan.seed: execute(plan).digest for plan in (hit, after)}
        before = set(multiprocessing.active_children())

        async def scenario(service, host, port):
            async with ReplayServiceClient(host, port) as client:
                await asyncio.wait_for(client.run_plan(warm, tenant="t0"), 60)
                workers = _new_children(before)
                assert len(workers) == service.config.max_inflight_plans
                for worker in workers:
                    os.kill(worker.pid, signal.SIGKILL)
                try:
                    outcome = await asyncio.wait_for(client.run_plan(hit, tenant="t0"), 60)
                    first = ("done", outcome.verify())
                except ServiceError as exc:
                    first = ("error", str(exc))
                second = await asyncio.wait_for(client.run_plan(after, tenant="t0"), 60)
            return first, second

        (kind, detail), second = run_service(scenario)
        if kind == "error":
            assert "worker process died" in detail
            assert "RunRequest(policy=grass" in detail and "cluster-shard[" in detail
        else:
            assert detail == offline[hit.seed]
        assert second.verify() == offline[after.seed]

    def test_stop_reaps_every_worker(self):
        before = set(multiprocessing.active_children())

        async def scenario(service, host, port):
            async with ReplayServiceClient(host, port) as client:
                await asyncio.wait_for(client.run_plan(tiny_plan(), tenant="t0"), 60)
            return _new_children(before)

        assert run_service(scenario) != []
        assert _wait_until(lambda: _new_children(before) == [], 10), _new_children(before)

    def test_failed_cache_writes_still_end_in_done(self, tmp_path, full_disk):
        plan = tiny_plan()

        async def scenario(service, host, port):
            async with ReplayServiceClient(host, port) as client:
                return await asyncio.wait_for(client.run_plan(plan, tenant="t0"), 60)

        with pytest.warns(CacheIntegrityWarning, match="cannot store"):
            outcome = run_service(
                scenario, ServiceConfig(cache_dir=str(tmp_path / "cache"))
            )
        assert outcome.verify() == execute(plan).digest
        assert outcome.cache["store_failures"] == len(outcome.deltas) > 0
        assert outcome.cache["stores"] == 0


def _child_pids(pid):
    """Direct children of ``pid`` (Linux ``/proc``)."""
    pids = set()
    for children in Path(f"/proc/{pid}/task").glob("*/children"):
        pids.update(int(field) for field in children.read_text().split())
    return pids


def _alive(pid):
    """True while ``pid`` runs; a zombie awaiting its reaper counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
class TestServeProcess:
    @pytest.mark.parametrize(
        "stop_signal, whole_group, launched_ignoring_sigint",
        [
            (signal.SIGINT, False, False),
            (signal.SIGTERM, False, False),
            (signal.SIGINT, True, False),
            (signal.SIGINT, False, True),
        ],
        ids=["sigint", "sigterm", "sigint-to-group", "sigint-ignored-at-launch"],
    )
    def test_signal_stops_the_server_and_its_workers(
        self, stop_signal, whole_group, launched_ignoring_sigint
    ):
        # The group case is a terminal's Ctrl-C: the workers die of it
        # first, and the server must still shut down cleanly.  A shell's
        # `serve &` starts the server with SIGINT ignored.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
            env=env,
            start_new_session=True,
            preexec_fn=(
                (lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
                if launched_ignoring_sigint
                else None
            ),
        )
        children = set()
        try:
            line = server.stdout.readline().decode()
            assert line.startswith("listening on "), line
            host, _, port = line[len("listening on "):].strip().rpartition(":")
            outcome = run_plan_sync(host, int(port), tiny_plan(), tenant="t0")
            assert outcome.verify() == outcome.digest
            children = _child_pids(server.pid)
            assert children, "the plan should have started the pool"
            if whole_group:
                os.killpg(server.pid, stop_signal)
            else:
                server.send_signal(stop_signal)
            assert server.wait(timeout=30) == 0
            assert _wait_until(lambda: not any(map(_alive, children)), 10), [
                pid for pid in children if _alive(pid)
            ]
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()
            for pid in filter(_alive, children):  # only after a failure
                os.kill(pid, signal.SIGKILL)


class TestLoadDriver:
    def test_run_load_self_hosted_reports_ok(self):
        report = run_load(
            tenants=3,
            distinct_plans=2,
            cluster_jobs=6,
            shards=2,
            overload_burst=6,
        )
        assert report["ok"], report
        assert report["completed"] == 3
        assert report["digest_mismatches"] == 0
        assert report["plans_per_second"] > 0
        assert report["first_delta_p99_seconds"] > 0
        assert report["overload"]["rejected"] >= 1
