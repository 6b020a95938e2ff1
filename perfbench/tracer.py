"""Span tracer that wraps the program's public functions from outside.

:func:`install` replaces selected public functions and methods of the
``repro`` modules with timing wrappers; nothing under ``src/`` changes.  Every
wrapped call pushes a frame on a per-thread stack, so a call's *self* time is
its duration minus the time of the wrapped calls it made.  Calls at a layer
boundary (plan execution, one simulation request, a cache store, ...) are
also kept as spans — name, start, end, parent span and request id — in
memory, and written out by :meth:`Tracer.dump`; hot inner calls (policy
choices, straggler draws, sink folds) only add to per-name counters.

A wrapped call directly inside a call of the same name passes straight
through, so delegation (GRASS asking its GS or RAS half, ``super().record``)
counts once.  Forked pool workers reset the tracer at fork and write their
state after every request they execute, because a pool may terminate them
without running exit handlers.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pickle
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

perf_counter = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "stats")

    def __init__(self) -> None:
        # Frame: [name, child_seconds, nearest recorded span id, request id].
        self.stack: List[list] = []
        # name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])


class Tracer:
    """Frames, spans and counters of one process (see the module docs)."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: (name, start, end, span id, parent span id, request id)
        self.spans: List[tuple] = []
        self.values: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    # -- recording -----------------------------------------------------------

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.values[name] += amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def nested(self, name: str) -> bool:
        """True when the innermost open frame of this thread is ``name``."""
        stack = self._state().stack
        return bool(stack) and stack[-1][0] == name

    def call(
        self,
        name: str,
        func: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        span: bool = False,
        request: Optional[str] = None,
    ) -> Any:
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        if parent is not None and parent[0] == name:
            return func(*args, **kwargs)
        parent_span = parent[2] if parent is not None else 0
        if request is None and parent is not None:
            request = parent[3]
        span_id = next(self._ids) if span else parent_span
        frame = [name, 0.0, span_id, request]
        stack.append(frame)
        start = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            stats = state.stats[name]
            stats[0] += 1
            stats[1] += duration
            stats[2] += duration - frame[1]
            if parent is not None:
                parent[1] += duration
            if span:
                self.spans.append((name, start, end, span_id, parent_span, request))

    # -- output --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        stats: Dict[str, List[float]] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in list(state.stats.items()):
                merged = stats.setdefault(name, [0, 0.0, 0.0])
                merged[0] += calls
                merged[1] += total
                merged[2] += own
        with self._lock:
            return {
                "pid": self.pid,
                "role": "main" if self.pid == self.root_pid else "worker",
                "spans": [list(span) for span in self.spans],
                "stats": stats,
                "values": dict(self.values),
                "maxima": dict(self.maxima),
                "samples": {name: list(values) for name, values in self.samples.items()},
            }

    def dump(self) -> Path:
        """Write this process's state to ``<out_dir>/<role>-<pid>.json``."""
        snapshot = self.snapshot()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{snapshot['role']}-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(snapshot), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def flush_if_worker(self) -> None:
        if self.pid != self.root_pid:
            self.dump()


# -- wrappers ----------------------------------------------------------------------


def _wrap(
    tracer: Tracer,
    name: str,
    func: Callable[..., Any],
    span: bool = False,
    request: Optional[Callable[[tuple, dict], Optional[str]]] = None,
    after: Optional[Callable[[Any, tuple, dict], None]] = None,
    flush: bool = False,
) -> Callable[..., Any]:
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if tracer.nested(name):
            return func(*args, **kwargs)
        request_id = request(args, kwargs) if request is not None else None
        result = tracer.call(name, func, args, kwargs, span=span, request=request_id)
        if after is not None:
            after(result, args, kwargs)
        if flush:
            tracer.flush_if_worker()
        return result

    return wrapper


class _TimedIterator:
    """Times each ``next`` of a wrapped generator as a frame; counts items."""

    def __init__(self, tracer: Tracer, name: str, iterator: Any, counter: str) -> None:
        self._tracer = tracer
        self._name = name
        self._next = iterator.__next__
        self._counter = counter

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        item = self._tracer.call(self._name, self._next, (), {})
        self._tracer.add(self._counter)
        return item


def _wrap_iterator(tracer: Tracer, name: str, func: Callable[..., Any], counter: str) -> Callable[..., Any]:
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> _TimedIterator:
        return _TimedIterator(tracer, name, iter(func(*args, **kwargs)), counter)

    return wrapper


def _rebind_everywhere(original: Callable[..., Any], wrapper: Callable[..., Any]) -> int:
    """Point every ``repro`` module global bound to ``original`` at ``wrapper``.

    ``from x import f`` copies the binding, so patching the defining module
    alone would miss callers that imported the name.
    """
    import sys

    count = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                count += 1
    return count


def _patch_method(cls: type, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _subclasses(cls: type) -> List[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def _slice_request(args: tuple, kwargs: dict) -> Optional[str]:
    request = args[0]
    sink = getattr(request, "sink_factory", None)
    tag = getattr(sink, "tag", "") if sink is not None else ""
    if tag:
        return tag
    return f"{request.policy_name}-seed{request.config.seed}"


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every ``repro`` module the benchmark names."""
    import multiprocessing

    from repro.core import estimators
    from repro.core.policies import base as policy_base
    # ``policies`` is imported for its side effect: every policy class must
    # exist before the SpeculationPolicy subclasses are walked below.
    from repro.experiments import cache, executor, policies, runner, warmup  # noqa: F401
    from repro.service import admission, protocol
    from repro.simulator import engine, sinks, stragglers
    from repro.workload import synthetic, trace_replay, traces

    def function(module: Any, attr: str, **options: Any) -> None:
        original = getattr(module, attr)
        _rebind_everywhere(original, _wrap(tracer, options.pop("name"), original, **options))

    def iterator(module: Any, attr: str, name: str, counter: str) -> None:
        original = getattr(module, attr)
        _rebind_everywhere(original, _wrap_iterator(tracer, name, original, counter))

    def method(cls: type, attr: str, **options: Any) -> None:
        name = options.pop("name")
        _patch_method(cls, attr, lambda func: _wrap(tracer, name, func, **options))

    # workload: calibration scan, trace parsing, spec construction, generation
    function(traces, "scan_jobs", name="workload.scan", span=True)
    iterator(traces, "iter_trace", "workload.trace_next", "workload.parsed_jobs")
    iterator(trace_replay, "iter_job_specs", "workload.spec_next", "workload.specs")
    function(
        trace_replay,
        "cluster_trace_job",
        name="workload.generate_job",
        after=lambda result, args, kwargs: tracer.add("workload.parsed_jobs"),
    )
    function(
        synthetic,
        "generate_workload",
        name="workload.generate",
        span=True,
        after=lambda result, args, kwargs: tracer.add("workload.specs", len(result.job_specs)),
    )

    # cache: fingerprints, lookups, stores
    function(cache, "source_fingerprint", name="cache.fingerprint")
    function(cache, "engine_fingerprint", name="cache.fingerprint")
    method(
        cache.ReplayCache,
        "lookup",
        name="cache.lookup",
        after=lambda result, args, kwargs: tracer.add("cache.hits", result is not None),
    )

    original_store = cache.ReplayCache.store

    def store(self: Any, *args: Any, **kwargs: Any) -> Any:
        before = self.counters.bytes_written
        result = tracer.call("cache.store", original_store, (self,) + args, kwargs, span=True)
        tracer.add("cache.store_bytes", self.counters.bytes_written - before)
        return result

    cache.ReplayCache.store = functools.wraps(original_store)(store)

    # executor: request fan-out, pickled IPC sizes, pool starts, busy time
    def ipc_bytes(payload: Any) -> int:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    original_run = executor.ParallelExecutor.run

    def run(self: Any, requests: Any) -> Any:
        requests = list(requests)
        crossing = self.workers > 1 and sum(r.parallel_safe for r in requests) > 1
        tracer.add("executor.requests", len(requests))
        if crossing:
            tracer.add("executor.request_bytes", sum(ipc_bytes(r) for r in requests if r.parallel_safe))
        started = perf_counter()
        results = tracer.call("executor.run", original_run, (self, requests), {}, span=True)
        wall = perf_counter() - started
        tracer.add("executor.wall_s", wall)
        tracer.add("executor.slot_s", wall * self.workers)
        if crossing:
            tracer.add(
                "executor.result_bytes",
                sum(ipc_bytes(m) for r, m in zip(requests, results) if r.parallel_safe),
            )
        return results

    original_stream = executor.ParallelExecutor.run_stream

    def run_stream(self: Any, requests: Any, max_in_flight: Optional[int] = None) -> Any:
        crossing = self.workers > 1

        def counted() -> Any:
            for request in requests:
                tracer.add("executor.requests")
                if crossing and request.parallel_safe:
                    tracer.add("executor.request_bytes", ipc_bytes(request))
                yield request

        stream = original_stream(self, counted(), max_in_flight)
        pull = stream.__next__
        started = perf_counter()
        try:
            while True:
                try:
                    metrics = tracer.call("executor.stream", pull, (), {})
                except StopIteration:
                    return
                if crossing:
                    tracer.add("executor.result_bytes", ipc_bytes(metrics))
                yield metrics
        finally:
            stream.close()
            wall = perf_counter() - started
            tracer.add("executor.wall_s", wall)
            tracer.add("executor.slot_s", wall * self.workers)

    executor.ParallelExecutor.run = functools.wraps(original_run)(run)
    executor.ParallelExecutor.run_stream = functools.wraps(original_stream)(run_stream)
    method(executor.RunRequest, "execute", name="executor.request", span=True,
           request=_slice_request, flush=True)

    original_pool = multiprocessing.Pool

    def pool(*args: Any, **kwargs: Any) -> Any:
        tracer.add("executor.pool_starts")
        return original_pool(*args, **kwargs)

    multiprocessing.Pool = pool

    # engine: one simulation run; deterministic counters from its result
    def after_run(result: Any, args: tuple, kwargs: dict) -> None:
        tracer.add("engine.events", result.events_processed)
        tracer.peak("engine.peak_resident_jobs", result.peak_resident_jobs)

    method(engine.Simulation, "run", name="engine.run", span=True, after=after_run)

    # policies, estimators, stragglers: the engine's hot inner calls
    for cls in _subclasses(policy_base.SpeculationPolicy):
        if "choose_task" in cls.__dict__ and cls.__module__.startswith("repro."):
            method(
                cls,
                "choose_task",
                name="policies.choose",
                after=lambda result, args, kwargs: tracer.add("policies.decisions", result is not None),
            )
    method(policy_base.SchedulingIndex, "prepare", name="policies.prepare")
    method(estimators.TaskEstimator, "update_running_snaps", name="estimators.update")
    method(stragglers.StragglerModel, "copy_duration", name="stragglers.draw")

    # sinks: per-result folds, merges, the digest fold
    for cls in _subclasses(sinks.ResultSink):
        if "record" in cls.__dict__:
            method(cls, "record", name="sinks.record")
    method(sinks.StreamingAggregates, "merged", name="sinks.merge")
    function(sinks, "fold_run_digests", name="sinks.digest")

    # warmup: snapshot prewarming for learning policies
    method(warmup.WarmupCache, "prewarm", name="warmup.prewarm", span=True)
    function(warmup, "warm_policy_snapshot", name="warmup.snapshot", span=True, flush=True)

    # runner: the outer spans
    submissions: Dict[int, tuple] = {}

    def plan_request(args: tuple, kwargs: dict) -> Optional[str]:
        plan = args[0] if args else kwargs.get("plan")
        entry = submissions.get(id(plan))
        return entry[1] if entry is not None and entry[0] is plan else None

    function(runner, "execute", name="runner.execute", span=True, request=plan_request)
    function(runner, "probe_plan_cache", name="runner.probe", span=True)
    function(runner, "compare_policies", name="runner.compare", span=True)

    # admission: queue wait from submit to the same item leaving next()
    submitted_at: Dict[int, float] = {}
    original_submit = admission.FairShareAdmission.submit
    original_next = admission.FairShareAdmission.next

    def submit(self: Any, tenant: str, item: Any, cost: float = 1.0) -> None:
        try:
            tracer.call("admission.submit", original_submit, (self, tenant, item, cost), {})
        except admission.AdmissionRejected:
            tracer.add("admission.rejected")
            raise
        submitted_at[id(item)] = perf_counter()
        tracer.peak("admission.depth_max", self.pending_total)
        plan = getattr(item, "plan", None)
        if plan is not None:
            submissions[id(plan)] = (plan, f"submission-{item.request_id}")

    def next_item(self: Any) -> Any:
        picked = tracer.call("admission.next", original_next, (self,), {})
        if picked is not None:
            queued = submitted_at.pop(id(picked[1]), None)
            if queued is not None:
                tracer.sample("admission.wait_ms", (perf_counter() - queued) * 1000.0)
        return picked

    admission.FairShareAdmission.submit = functools.wraps(original_submit)(submit)
    admission.FairShareAdmission.next = functools.wraps(original_next)(next_item)

    # protocol: every frame the process encodes
    def after_encode(result: bytes, args: tuple, kwargs: dict) -> None:
        tracer.add("protocol.frames_out")
        tracer.add("protocol.bytes_out", len(result))

    function(protocol, "encode_message", name="protocol.encode", after=after_encode)
