"""``service-mixed``: an open-loop, multi-tenant client against ``serve``.

The system process is ``python3 -m repro.experiments.cli serve --cache DIR
--max-inflight 2`` with a fresh cache directory.  Before timing, the warm
set of plans is submitted and stored in the cache.  Then one client drives
the seeded schedule (:func:`perfbench.inputs.service_schedule`) open loop
over two multiplexed connections: a submission is sent when it is due,
whether or not earlier ones finished, and every latency is measured from the
due time, so a stall in the client or the server counts against the
submissions behind it.  Frames are matched to submissions by each
connection's accepted/rejected order, then by ``id``.

About a quarter of the submissions repeat a warm-set plan and are answered
from the cache before admission; the rest are never-seen plans that
simulate and store.  After the rungs, a few capacity bursts each send a
batch of fresh plans at once to the idle server; ``jobs_per_s`` is the
bursts' fresh job runs over their summed first-send-to-last-done spans, so
it is the server's capacity, not the offered load.  After the window every done frame
is refolded from its deltas (as ``PlanOutcome.verify`` does), repeats are
compared with their warm-set digests and fresh plans with an offline
``execute(plan)``.
"""

from __future__ import annotations

import asyncio
import json
import select
import shutil
import socket
import subprocess
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from perfbench import inputs, layers
from perfbench.inputs import ServiceSchedule, Submission
from perfbench.procs import (
    ROOT,
    WorkloadResult,
    median,
    p90,
    percentile,
    prime_bytecode,
    program_env,
    run_process,
    stop_process,
)
from perfbench.settings import ServiceSettings

perf_counter = time.perf_counter


# -- the server process ------------------------------------------------------------


class Server:
    """One spawned ``serve`` process, ready once it answered a ping."""

    def __init__(self, argv: List[str], stderr_path: Path, timeout: float = 60.0) -> None:
        self._stderr = open(stderr_path, "wb")
        started = perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=str(ROOT),
            env=program_env(),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            stdin=subprocess.DEVNULL,
        )
        try:
            self.host, self.port = self._listening(timeout)
            self._ping(timeout)
        except BaseException:
            self.stop()
            raise
        #: Spawn to first pong.
        self.setup_s = perf_counter() - started

    def _listening(self, timeout: float) -> Tuple[str, int]:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode("utf-8", "replace") if ready else ""
        if not line.startswith("listening on "):
            raise RuntimeError(f"serve did not start: {line!r}")
        host, _, port = line[len("listening on "):].strip().rpartition(":")
        return host, int(port)

    def _ping(self, timeout: float) -> None:
        with socket.create_connection((self.host, self.port), timeout=timeout) as sock:
            sock.sendall(b'{"op":"ping"}\n')
            reply = sock.makefile("rb").readline()
        if json.loads(reply).get("event") != "pong":
            raise RuntimeError(f"expected pong, got {reply!r}")

    def stop(self) -> float:
        """SIGINT the server, reap it; peak RSS in MiB."""
        try:
            return stop_process(self.proc)
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self._stderr.close()


def serve_args(settings: ServiceSettings, cache_dir: Path) -> List[str]:
    return [
        "serve",
        "--port", "0",
        "--max-inflight", str(settings.max_inflight),
        "--max-pending-per-tenant", str(settings.max_pending_per_tenant),
        "--max-pending-total", str(settings.max_pending_total),
        "--cache", str(cache_dir),
    ]


CLI = [sys.executable, "-m", "repro.experiments.cli"]


def plan_cost(settings: ServiceSettings) -> Callable[[int], float]:
    """Cost proxy of a fresh plan: the task count of its cluster-tier jobs.

    Uses the program's own tier generator, so the proxy sees exactly the
    jobs the server will simulate.
    """
    from repro.workload.trace_replay import ClusterTierConfig, cluster_trace_job

    def cost(plan_seed: int) -> float:
        tier = ClusterTierConfig(num_jobs=settings.fresh_jobs, seed=plan_seed)
        return float(sum(cluster_trace_job(tier, i).num_tasks for i in range(tier.num_jobs)))

    return cost


def schedule_for(seed: int, settings: ServiceSettings, seconds: float, ladder: bool = True) -> ServiceSchedule:
    return inputs.service_schedule(seed, settings, seconds, plan_cost(settings), ladder=ladder)


# -- the open-loop client ----------------------------------------------------------


@dataclass
class Outcome:
    """What the client saw of one submission (times on ``perf_counter``)."""

    submission: Submission
    due_at: float
    sent_at: float = 0.0
    request_id: Optional[int] = None
    first_delta_at: Optional[float] = None
    done_at: Optional[float] = None
    done: Optional[dict] = None
    deltas: List[dict] = field(default_factory=list)
    failure: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.done is not None or self.failure is not None


def submit_frame(submission: Submission, settings: ServiceSettings) -> bytes:
    message = {
        "op": "submit",
        "tenant": submission.tenant,
        "plan": inputs.plan_wire(settings, submission.plan_seed),
    }
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


async def drive(
    host: str,
    port: int,
    submissions: Sequence[Submission],
    settings: ServiceSettings,
    drain_timeout: float,
    lead: float = 0.05,
) -> List[Outcome]:
    """Send every submission when due; collect its frames until done."""
    frames = [submit_frame(s, settings) for s in submissions]
    connections = [
        await asyncio.open_connection(host, port, limit=1 << 22)
        for _ in range(settings.connections)
    ]
    awaiting: List[Deque[Outcome]] = [deque() for _ in connections]
    by_id: Dict[int, Outcome] = {}
    remaining = [len(submissions)]
    all_done = asyncio.Event()
    if not submissions:
        all_done.set()

    def finish() -> None:
        remaining[0] -= 1
        if remaining[0] == 0:
            all_done.set()

    async def read(index: int, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = perf_counter()
            message = json.loads(line)
            event = message.get("event")
            if event in ("accepted", "rejected"):
                outcome = awaiting[index].popleft()
                if event == "accepted":
                    outcome.request_id = int(message["id"])
                    by_id[outcome.request_id] = outcome
                else:
                    outcome.failure = f"rejected ({message.get('code')}): {message.get('reason')}"
                    finish()
                continue
            if event == "pong":
                continue
            outcome = by_id.get(message.get("id"))
            if outcome is None or outcome.finished:
                continue
            if event == "delta":
                if outcome.first_delta_at is None:
                    outcome.first_delta_at = now
                outcome.deltas.append(message)
            elif event == "done":
                outcome.done_at = now
                outcome.done = message
                finish()
            elif event == "error":
                outcome.failure = f"error: {message.get('reason')}"
                finish()

    readers = [
        asyncio.ensure_future(read(index, reader))
        for index, (reader, _writer) in enumerate(connections)
    ]
    outcomes: List[Outcome] = []
    try:
        start = perf_counter() + lead
        for submission, frame in zip(submissions, frames):
            due = start + submission.due
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome = Outcome(submission=submission, due_at=due, sent_at=perf_counter())
            outcomes.append(outcome)
            awaiting[submission.connection].append(outcome)
            connections[submission.connection][1].write(frame)
        last_due = start + (submissions[-1].due if submissions else 0.0)
        try:
            await asyncio.wait_for(
                all_done.wait(), timeout=max(0.0, last_due + drain_timeout - perf_counter())
            )
        except asyncio.TimeoutError:
            pass
    finally:
        for _reader, writer in connections:
            writer.close()
        for task in readers:
            task.cancel()
        for task in readers:
            try:
                await task
            except (asyncio.CancelledError, ConnectionError):
                pass
    for outcome in outcomes:
        if not outcome.finished:
            outcome.failure = "timed out"
    return outcomes


# -- verification ------------------------------------------------------------------


def refold_failure(outcome: Outcome, settings: ServiceSettings) -> Optional[str]:
    """``PlanOutcome.verify`` on the frames the client received."""
    from repro.experiments.plan import ReplayPlan
    from repro.service.client import DeltaRecord, PlanOutcome, ServiceError
    from repro.simulator.sinks import chunk_from_wire

    done = outcome.done
    assert done is not None
    plan = ReplayPlan.from_wire(inputs.plan_wire(settings, outcome.submission.plan_seed))
    received = PlanOutcome(
        request_id=int(done["id"]),
        tenant=outcome.submission.tenant,
        plan=plan,
        digest=str(done["digest"]),
        num_jobs=int(done["num_jobs"]),
        num_shards=int(done["num_shards"]),
        policies=[str(p) for p in done["policies"]],
        seeds=[int(s) for s in done["seeds"]],
        truncated_jobs=int(done["truncated_jobs"]),
        elapsed_ms=float(done["elapsed_ms"]),
        deltas=[
            DeltaRecord(
                policy=str(d["policy"]),
                seed=int(d["seed"]),
                shard=int(d["shard"]),
                chunk=chunk_from_wire(d["chunk"]),
                latency_seconds=0.0,
            )
            for d in outcome.deltas
        ],
    )
    try:
        received.verify()
    except ServiceError as exc:
        return f"submission {outcome.submission.index}: {exc}"
    return None


def offline_digests(seeds: Sequence[int], settings: ServiceSettings, workdir: Path) -> Dict[int, str]:
    """``execute(plan).digest`` of each plan, in ``verify_workers`` child processes.

    A plan whose worker failed is missing from the result, so its check fails.
    """
    seeds = list(seeds)
    chunks = [seeds[index :: settings.verify_workers] for index in range(settings.verify_workers)]

    def compute(index: int) -> Dict[int, str]:
        chunk = chunks[index]
        if not chunk:
            return {}
        path = workdir / f"offline-{index}.json"
        path.write_text(json.dumps([inputs.plan_wire(settings, seed) for seed in chunk]), encoding="utf-8")
        run = run_process([sys.executable, "-m", "perfbench.offline", str(path)])
        if run.returncode != 0 or not run.lines:
            return {}
        return dict(zip(chunk, json.loads(run.lines[-1])))

    digests: Dict[int, str] = {}
    with ThreadPoolExecutor(max_workers=settings.verify_workers) as pool:
        for part in pool.map(compute, range(len(chunks))):
            digests.update(part)
    return digests


def verify(
    outcomes: Sequence[Outcome],
    warm: Dict[int, str],
    offline: Dict[int, str],
    settings: ServiceSettings,
) -> List[str]:
    """Every correctness failure among ``outcomes``."""
    failures = []
    for outcome in outcomes:
        submission = outcome.submission
        if outcome.failure is not None:
            failures.append(f"submission {submission.index}: {outcome.failure}")
            continue
        refold = refold_failure(outcome, settings)
        if refold is not None:
            failures.append(refold)
            continue
        assert outcome.done is not None
        expected = warm.get(submission.plan_seed) if submission.repeat else offline.get(submission.plan_seed)
        if outcome.done["digest"] != expected:
            failures.append(
                f"submission {submission.index}: digest {outcome.done['digest']} != expected {expected}"
            )
    return failures


# -- one session: spawn, warm, drive, stop -----------------------------------------


@dataclass
class Session:
    outcomes: List[Outcome]
    warm_outcomes: List[Outcome]
    bursts: List[List[Outcome]]
    setup_s: List[float]
    peak_rss_mb: float


def session(
    schedule: ServiceSchedule,
    settings: ServiceSettings,
    workdir: Path,
    argv_prefix: List[str],
) -> Session:
    """Spawn a server and run the schedule on it.

    The warm set, the rungs and each burst are driven one after another, each
    until all its submissions are done, so every burst starts on an idle
    server.  After each burst one more server is spawned and stopped, so the
    ``setup_s`` spawns are spread over the burst phase.
    """
    setup = []
    cache_dir = workdir / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    server = Server(argv_prefix + serve_args(settings, cache_dir), workdir / "serve.err")
    setup.append(server.setup_s)
    bursts = []
    try:
        warm_submissions = [
            Submission(
                index=-1 - index, due=0.0, rung=-1, tenant="warm",
                connection=index % settings.connections, repeat=False, plan_seed=seed,
            )
            for index, seed in enumerate(schedule.warm_seeds)
        ]
        warm_outcomes = asyncio.run(
            drive(server.host, server.port, warm_submissions, settings, settings.drain_timeout_s)
        )
        outcomes = asyncio.run(
            drive(server.host, server.port, schedule.submissions, settings, settings.drain_timeout_s)
        )
        for index, burst in enumerate(schedule.bursts):
            bursts.append(
                asyncio.run(drive(server.host, server.port, burst, settings, settings.drain_timeout_s))
            )
            probe_cache = workdir / f"probe-cache-{index}"
            probe = Server(argv_prefix + serve_args(settings, probe_cache), workdir / "serve-probe.err")
            setup.append(probe.setup_s)
            probe.stop()
            shutil.rmtree(probe_cache, ignore_errors=True)
    finally:
        rss = server.stop()
    return Session(
        outcomes=outcomes, warm_outcomes=warm_outcomes, bursts=bursts, setup_s=setup, peak_rss_mb=rss
    )


def check_session(result: Session, settings: ServiceSettings, workdir: Path) -> List[str]:
    """Verify the warm set, then every timed and burst submission."""
    timed = result.outcomes + [o for burst in result.bursts for o in burst]
    fresh = sorted({o.submission.plan_seed for o in timed if not o.submission.repeat})
    warm_seeds = [o.submission.plan_seed for o in result.warm_outcomes]
    offline = offline_digests(warm_seeds + fresh, settings, workdir)
    failures = verify(result.warm_outcomes, {}, offline, settings)
    warm = {
        o.submission.plan_seed: o.done["digest"]
        for o in result.warm_outcomes
        if o.done is not None
    }
    return failures + verify(timed, warm, offline, settings)


# -- metrics -----------------------------------------------------------------------


def _ms(statistic: Callable[[Sequence[float]], float], values: Sequence[float]) -> float:
    return statistic(values) * 1000.0 if values else 0.0


def rung_passes(outcomes: Sequence[Outcome], settings: ServiceSettings) -> bool:
    """``done_p90_ms`` within the limit, nothing failed, backlog not growing.

    The backlog counts as growing when the median done latency of the rung's
    second half exceeds twice that of its first half.
    """
    if not outcomes or any(o.done is None for o in outcomes):
        return False
    fresh = [o for o in outcomes if not o.submission.repeat]
    latencies = [o.done_at - o.due_at for o in fresh]
    if not latencies or p90(latencies) * 1000.0 > settings.latency_limit_ms:
        return False
    half = len(latencies) // 2
    if half < 2:
        return True
    return median(latencies[half:]) <= 2.0 * median(latencies[:half])


def burst_jobs_per_s(bursts: Sequence[Sequence[Outcome]], settings: ServiceSettings) -> float:
    """Fresh job runs the bursts completed, over the sum of their spans.

    A burst's span runs from its first send to its last done frame.
    """
    done = spans = 0.0
    for burst in bursts:
        finished = [o for o in burst if o.done is not None]
        if finished:
            done += len(finished)
            spans += max(o.done_at for o in finished) - min(o.due_at for o in burst)
    return done * settings.fresh_jobs * len(settings.policies) / spans if spans else 0.0


def metrics(
    result: Session, schedule: ServiceSchedule, settings: ServiceSettings
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """``(end-to-end metrics, report-only numbers, generator lateness)``."""
    nominal = [o for o in result.outcomes if o.submission.rung == 0 and o.done is not None]
    fresh = [o for o in nominal if not o.submission.repeat]
    hits = [o for o in nominal if o.submission.repeat]
    done = [o.done_at - o.due_at for o in fresh]
    first = [(o.first_delta_at or o.done_at) - o.due_at for o in fresh]
    hit_latency = [o.done_at - o.due_at for o in hits]
    max_rate = 0.0
    for rung, (rate, _start, _duration) in enumerate(schedule.rungs):
        in_rung = [o for o in result.outcomes if o.submission.rung == rung]
        if rung_passes(in_rung, settings):
            max_rate = max(max_rate, rate)
    lateness = [(o.sent_at - o.due_at) * 1000.0 for o in result.outcomes]
    end_to_end = {
        # Fastest of the spawns spread over the bursts: a busy moment of the
        # host does not count.
        "setup_s": min(result.setup_s),
        "jobs_per_s": burst_jobs_per_s(result.bursts, settings),
        "peak_rss_mb": result.peak_rss_mb,
        "done_p50_ms": _ms(median, done),
        "done_p90_ms": _ms(p90, done),
        "first_delta_p90_ms": _ms(p90, first),
    }
    extra = {
        "hit_p50_ms": _ms(median, hit_latency),
        "hit_p90_ms": _ms(p90, hit_latency),
        "max_rate_per_s": max_rate,
        "fresh_done": float(len(fresh)),
        "hits_done": float(len(hits)),
        "hits_not_from_cache": float(
            sum(1 for o in hits if (o.done.get("cache") or {}).get("misses", 0))
        ),
    }
    late = {
        "p50_ms": percentile(lateness, 50.0) if lateness else 0.0,
        "p90_ms": p90(lateness) if lateness else 0.0,
        "max_ms": max(lateness, default=0.0),
    }
    return end_to_end, extra, late


def measure(
    seed: int,
    seconds: float,
    workdir: Path,
    settings: ServiceSettings = ServiceSettings(),
) -> WorkloadResult:
    """The untraced run: the rungs and the capacity bursts, end-to-end metrics."""
    schedule = schedule_for(seed, settings, seconds)
    prime_bytecode()
    result = session(schedule, settings, workdir, CLI)
    failures = check_session(result, settings, workdir)
    end_to_end, extra, late = metrics(result, schedule, settings)
    return WorkloadResult(
        metrics=end_to_end,
        attempted=len(result.outcomes) + len(result.warm_outcomes) + sum(len(b) for b in result.bursts),
        failures=failures,
        extra=extra,
        lateness=late,
    )


def traced(
    seed: int,
    seconds: float,
    workdir: Path,
    settings: ServiceSettings = ServiceSettings(),
    spans_out: Optional[Path] = None,
) -> WorkloadResult:
    """The traced run: the nominal rung untraced, then traced; per-layer metrics."""
    schedule = schedule_for(seed, settings, seconds, ladder=False)
    prime_bytecode()
    plain = session(schedule, settings, workdir, CLI)
    spans = workdir / "spans"
    shutil.rmtree(spans, ignore_errors=True)
    bootstrap = [sys.executable, "-m", "perfbench.bootstrap", "--spans", str(spans), "--entry", "cli", "--"]
    traced_session = session(schedule, settings, workdir, bootstrap)
    failures = check_session(plain, settings, workdir) + check_session(traced_session, settings, workdir)
    untraced_e2e, _, _ = metrics(plain, schedule, settings)
    traced_e2e, _, late = metrics(traced_session, schedule, settings)
    merged = layers.load_dumps(spans)
    if spans_out is not None:
        layers.write_spans(merged, spans_out)
    untraced_p50 = untraced_e2e["done_p50_ms"]
    overhead = (traced_e2e["done_p50_ms"] - untraced_p50) / untraced_p50 if untraced_p50 else 0.0
    distinct_plans = len({s.plan_seed for s in schedule.submissions} | set(schedule.warm_seeds))
    return WorkloadResult(
        metrics=layers.layer_metrics(merged, distinct_plans * settings.fresh_jobs, overhead),
        attempted=2 * (len(schedule.submissions) + len(schedule.warm_seeds)),
        failures=failures,
        extra={
            "untraced_done_p50_ms": untraced_p50,
            "traced_done_p50_ms": traced_e2e["done_p50_ms"],
        },
        lateness=late,
    )
