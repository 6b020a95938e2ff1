"""Pluggable result sinks: where a simulation's :class:`JobResult`\\ s go.

``MetricsCollector`` used to hard-code one answer — append every result to a
list — which left a lazily streamed replay O(1) in specs and shards but
still O(trace) in results.  GRASS's evaluation only ever reports *aggregates*
(mean accuracy of deadline-bound jobs, mean duration of error-bound jobs,
by-bin breakdowns), so this module makes the destination pluggable:

* :class:`RetainAllSink` — today's behaviour: keep the full result list.
  The default, and what the figure pipeline (which slices raw results by
  workload metadata) requires.
* :class:`AggregateSink` — fold each result on arrival into a
  :class:`StreamingAggregates` and drop it.  Resident memory becomes
  independent of trace length.
* :class:`JsonlSpillSink` — stream one JSON row per result to disk for
  offline analysis while keeping only the aggregates in memory.

Every sink — including the retaining one — folds each result into its own
:class:`AggregateChunk` in arrival order, so aggregate queries (and the
metrics digest built from them) are bit-identical across sinks by
construction, not by numerical luck.  A sink is sealed once: ``finish()``
(the engine's last call), the first ``aggregates`` read or pickling stamps
the rolling sha256 into the chunk and drops the hasher, and recording into a
sealed sink raises.

Mergeability
------------

A :class:`StreamingAggregates` is a tuple of per-simulation
:class:`AggregateChunk` records, and :meth:`StreamingAggregates.merged` is
*chunk-list concatenation*.  That makes the merge exactly associative (list
concatenation is), makes aggregate equality across the retain and aggregate
paths strict dataclass equality, and gives the digest a mergeable shape: each
chunk carries the sha256 over its own results' canonical encodings (the exact
per-result encoding ``cli.metrics_digest`` hashes), and the merged digest
folds the chunk digests in merge order.  Two replays with the same
(policy, seed, shard) partition therefore print the same digest whatever the
sink, streaming mode or worker count.  Totals (counts, means, by-bin stats)
are folded over the chunks on demand — O(#chunks), which is
O(policies x seeds x shards), never O(trace).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, IO, Iterable, List, Optional, Tuple, Union

from repro.core.bounds import BoundType
from repro.core.job import JobResult
from repro.utils.stats import OnlineStats, left_sum

def canonical_result_record(result: JobResult) -> Dict[str, object]:
    """The digest's per-result record (also the JSONL spill row)."""
    return {
        "job_id": result.job_id,
        "accuracy": result.accuracy,
        "duration": result.duration,
        "completed": result.completed_input_tasks,
        "wasted_work": result.wasted_work,
        "speculative_copies": result.speculative_copies,
        "met_bound": result.met_bound,
    }


def encode_result(result: JobResult) -> bytes:
    """Canonical byte encoding of one result, fed to the rolling digest."""
    return json.dumps(
        canonical_result_record(result), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def results_with_bound(
    results: Iterable[JobResult], kind: BoundType
) -> List[JobResult]:
    """Results whose bound is of ``kind`` — the one filter the metrics layer
    and the experiment runner used to copy-paste at each other."""
    return [result for result in results if result.bound.kind is kind]


@dataclass
class AggregateChunk:
    """One simulation's fold of its results into constant-size aggregates.

    Everything here is plain data (ints, floats, :class:`OnlineStats`,
    ``bytes``), so chunks pickle cleanly across the worker boundary and
    compare with dataclass equality.  ``digest`` is the sha256 over the
    chunk's results' canonical encodings, in arrival order, stamped when
    the sink that folds the chunk is sealed.
    """

    jobs: int = 0
    deadline_jobs: int = 0
    error_jobs: int = 0
    bound_met_jobs: int = 0
    speculative_copies: int = 0
    deadline_accuracy: OnlineStats = field(default_factory=OnlineStats)
    error_duration: OnlineStats = field(default_factory=OnlineStats)
    accuracy_by_bin: Dict[str, OnlineStats] = field(default_factory=dict)
    duration_by_bin: Dict[str, OnlineStats] = field(default_factory=dict)
    digest: bytes = hashlib.sha256(b"").digest()


@dataclass(frozen=True)
class StreamingAggregates:
    """Mergeable, picklable aggregates over any number of simulations.

    See the module docs: the representation is a tuple of per-simulation
    :class:`AggregateChunk`\\ s; :meth:`merged` concatenates, which is exactly
    associative, and every total is folded over the chunks on demand.
    """

    chunks: Tuple[AggregateChunk, ...] = ()

    # -- construction ----------------------------------------------------------

    @classmethod
    def merged(
        cls, parts: Iterable["StreamingAggregates"]
    ) -> "StreamingAggregates":
        """Concatenate the parts' chunks, in order (exactly associative)."""
        chunks: Tuple[AggregateChunk, ...] = ()
        for part in parts:
            chunks = chunks + part.chunks
        return cls(chunks=chunks)

    # -- digest ----------------------------------------------------------------

    def digest_parts(self) -> List[bytes]:
        """Per-chunk sha256 digests, in merge order (see ``metrics_digest``)."""
        return [chunk.digest for chunk in self.chunks]

    # -- totals ----------------------------------------------------------------

    @property
    def num_results(self) -> int:
        return left_sum(chunk.jobs for chunk in self.chunks)

    @property
    def deadline_jobs(self) -> int:
        return left_sum(chunk.deadline_jobs for chunk in self.chunks)

    @property
    def error_jobs(self) -> int:
        return left_sum(chunk.error_jobs for chunk in self.chunks)

    @property
    def bound_met_jobs(self) -> int:
        return left_sum(chunk.bound_met_jobs for chunk in self.chunks)

    @property
    def speculative_copies(self) -> int:
        return left_sum(chunk.speculative_copies for chunk in self.chunks)

    @property
    def deadline_accuracy(self) -> OnlineStats:
        return self._merged_stats(lambda chunk: chunk.deadline_accuracy)

    @property
    def error_duration(self) -> OnlineStats:
        return self._merged_stats(lambda chunk: chunk.error_duration)

    @property
    def average_accuracy(self) -> float:
        """Mean accuracy of deadline-bound jobs (0.0 when there are none)."""
        return self.deadline_accuracy.mean

    @property
    def average_duration(self) -> float:
        """Mean duration of error-bound jobs (0.0 when there are none)."""
        return self.error_duration.mean

    @property
    def bound_met_fraction(self) -> float:
        total = self.num_results
        return self.bound_met_jobs / total if total else 0.0

    def accuracy_by_bin(self) -> Dict[str, OnlineStats]:
        return self._merged_by_bin(lambda chunk: chunk.accuracy_by_bin)

    def duration_by_bin(self) -> Dict[str, OnlineStats]:
        return self._merged_by_bin(lambda chunk: chunk.duration_by_bin)

    def _merged_stats(self, pick) -> OnlineStats:
        merged = OnlineStats()
        for chunk in self.chunks:
            merged.merge(pick(chunk))
        return merged

    def _merged_by_bin(self, pick) -> Dict[str, OnlineStats]:
        merged: Dict[str, OnlineStats] = {}
        for chunk in self.chunks:
            for bin_name, stats in pick(chunk).items():
                merged.setdefault(bin_name, OnlineStats()).merge(stats)
        return merged


def chunk_to_wire(chunk: AggregateChunk) -> Dict[str, object]:
    """One aggregate chunk as a plain-JSON dict — the service's delta payload.

    This is the streaming wire format of the replay service: each completed
    (policy, seed, shard) simulation ships exactly one chunk, constant-size
    regardless of how many jobs it simulated, and a client folds received
    chunks back into a :class:`StreamingAggregates` with plain concatenation.
    The rolling result digest travels as hex, so client-side digest
    verification is byte-exact and independent of float formatting.
    """
    return {
        "jobs": chunk.jobs,
        "deadline_jobs": chunk.deadline_jobs,
        "error_jobs": chunk.error_jobs,
        "bound_met_jobs": chunk.bound_met_jobs,
        "speculative_copies": chunk.speculative_copies,
        "deadline_accuracy": chunk.deadline_accuracy.to_wire(),
        "error_duration": chunk.error_duration.to_wire(),
        "accuracy_by_bin": {
            name: stats.to_wire() for name, stats in chunk.accuracy_by_bin.items()
        },
        "duration_by_bin": {
            name: stats.to_wire() for name, stats in chunk.duration_by_bin.items()
        },
        "digest": chunk.digest.hex(),
    }


def chunk_from_wire(wire: Dict[str, object]) -> AggregateChunk:
    """Inverse of :func:`chunk_to_wire` (exact round-trip, digest included)."""
    return AggregateChunk(
        jobs=int(wire["jobs"]),
        deadline_jobs=int(wire["deadline_jobs"]),
        error_jobs=int(wire["error_jobs"]),
        bound_met_jobs=int(wire["bound_met_jobs"]),
        speculative_copies=int(wire["speculative_copies"]),
        deadline_accuracy=OnlineStats.from_wire(wire["deadline_accuracy"]),
        error_duration=OnlineStats.from_wire(wire["error_duration"]),
        accuracy_by_bin={
            name: OnlineStats.from_wire(stats)
            for name, stats in wire["accuracy_by_bin"].items()
        },
        duration_by_bin={
            name: OnlineStats.from_wire(stats)
            for name, stats in wire["duration_by_bin"].items()
        },
        digest=bytes.fromhex(wire["digest"]),
    )


def fold_run_digests(named_parts: Iterable[Tuple[str, Iterable[bytes]]]) -> str:
    """The policy-tagged digest fold shared by every digest consumer.

    ``named_parts`` yields ``(policy_name, per-chunk digests)`` pairs in the
    deterministic (policy, seed, shard) merge order.  The offline
    ``metrics_digest``, the replay service's end-of-plan digest and the
    client-side verification of streamed deltas all call this one function,
    so "streamed aggregates match offline replay" is an equality of inputs,
    never a reimplementation risk.
    """
    outer = hashlib.sha256()
    for name, parts in named_parts:
        outer.update(f"policy:{name}\n".encode("utf-8"))
        for part in parts:
            outer.update(part)
    return outer.hexdigest()


class ResultSink:
    """Destination for a simulation's :class:`JobResult` stream.

    Every sink folds each recorded result into its own
    :class:`AggregateChunk` and a rolling sha256 of the results' canonical
    encodings; subclasses add what else happens to the result — retained,
    spilled, or dropped.  The sink is sealed once (see the module docs):
    the digest is stamped into the chunk, the hasher is dropped, and
    recording refuses to continue (a shipped chunk must never silently
    diverge from its digest).
    """

    #: Whether :attr:`results` retains the raw per-job records.
    retains_results = False

    def __init__(self) -> None:
        self._chunk = AggregateChunk()
        self._hasher: Optional[hashlib._Hash] = hashlib.sha256()

    def record(self, result: JobResult) -> None:
        if self._hasher is None:
            raise RuntimeError(
                f"{type(self).__name__} was sealed; it cannot record further results"
            )
        chunk = self._chunk
        chunk.jobs += 1
        if result.bound.kind is BoundType.DEADLINE:
            chunk.deadline_jobs += 1
            chunk.deadline_accuracy.add(result.accuracy)
            chunk.accuracy_by_bin.setdefault(result.job_bin, OnlineStats()).add(
                result.accuracy
            )
        elif result.bound.kind is BoundType.ERROR:
            chunk.error_jobs += 1
            chunk.error_duration.add(result.duration)
            chunk.duration_by_bin.setdefault(result.job_bin, OnlineStats()).add(
                result.duration
            )
        if result.met_bound:
            chunk.bound_met_jobs += 1
        chunk.speculative_copies += result.speculative_copies
        self._hasher.update(encode_result(result))

    @property
    def results(self) -> Optional[List[JobResult]]:
        """The retained raw results, or ``None`` when the sink drops them."""
        return None

    def finish(self) -> None:
        """Seal the sink: stamp the digest into the chunk, drop the hasher."""
        if self._hasher is not None:
            self._chunk.digest = self._hasher.digest()
            self._hasher = None

    @property
    def aggregates(self) -> StreamingAggregates:
        """This simulation's results as a one-chunk aggregate view (seals)."""
        self.finish()
        return StreamingAggregates(chunks=(self._chunk,))

    def __getstate__(self) -> Dict[str, object]:
        self.finish()
        return self.__dict__


class RetainAllSink(ResultSink):
    """Keep every result — the historical behaviour and the default.

    Figures that slice raw results by per-job workload metadata need this;
    so does any caller that reads ``MetricsCollector.results`` directly.
    """

    retains_results = True

    def __init__(self) -> None:
        super().__init__()
        self._results: List[JobResult] = []

    def record(self, result: JobResult) -> None:
        super().record(result)
        self._results.append(result)

    @property
    def results(self) -> List[JobResult]:
        return self._results


class SealedChunkSink(ResultSink):
    """A sink born sealed around an already-computed aggregate chunk.

    The replay cache's hit path: a restored (policy, seed, shard) chunk
    becomes a collector whose ``aggregates`` view — and therefore digest
    part — is byte-identical to the simulation that produced it.  Recording
    into it raises (a cache hit *is* a finished simulation), and raw per-job
    results are never cached, so ``retains_results`` stays False.
    """

    def __init__(self, chunk: AggregateChunk) -> None:
        self._chunk = chunk
        self._hasher = None


class AggregateSink(ResultSink):
    """Fold results into :class:`StreamingAggregates` and drop them.

    With this sink a replay of an arrival-sorted trace holds zero
    :class:`JobResult` objects: resident memory is fully independent of
    trace length.
    """


class JsonlSpillSink(ResultSink):
    """Stream one JSON row per result to disk; keep aggregates in memory.

    Rows are the canonical digest records (one compact JSON object per
    line), written in arrival order, so offline analysis sees exactly what
    the digest hashed.  ``finish()`` closes the file before sealing, so the
    handle never crosses a pickle boundary: only the path does.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self.path = str(path)
        self._file: Optional[IO[str]] = None

    def record(self, result: JobResult) -> None:
        super().record(result)
        if self._file is None:
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "w", encoding="utf-8")
        self._file.write(encode_result(result).decode("utf-8") + "\n")

    def finish(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        super().finish()


#: CLI names of the sink kinds (``jsonl`` additionally carries a path).
SINK_KINDS = ("retain", "aggregate", "jsonl")


@dataclass(frozen=True)
class SinkFactory:
    """Picklable description of which sink a run should record into.

    A :class:`~repro.experiments.executor.RunRequest` cannot carry a sink
    *instance* (a spill sink holds a file handle; every request needs its
    own), so it carries this factory and the executing process builds the
    sink.  ``tag`` keeps concurrent spill files apart: the runner stamps
    each request's (policy, seed, shard) coordinates into it, so a jsonl
    sink writes ``<dir>/results-<tag>.jsonl`` per request.
    """

    kind: str = "retain"
    jsonl_dir: Optional[str] = None
    tag: str = ""

    def __post_init__(self) -> None:
        if self.kind not in SINK_KINDS:
            raise ValueError(
                f"unknown sink kind {self.kind!r}; expected one of {SINK_KINDS}"
            )
        if (self.kind == "jsonl") != (self.jsonl_dir is not None):
            raise ValueError("jsonl sinks need a directory; other kinds take none")

    def with_tag(self, tag: str) -> "SinkFactory":
        return SinkFactory(kind=self.kind, jsonl_dir=self.jsonl_dir, tag=tag)

    def spill_path(self) -> Optional[Path]:
        if self.kind != "jsonl":
            return None
        name = f"results-{self.tag}.jsonl" if self.tag else "results.jsonl"
        return Path(self.jsonl_dir) / name

    def create(self) -> ResultSink:
        if self.kind == "retain":
            return RetainAllSink()
        if self.kind == "aggregate":
            return AggregateSink()
        return JsonlSpillSink(self.spill_path())


def parse_sink_spec(spec: str) -> SinkFactory:
    """Parse the CLI's ``--sink retain|aggregate|jsonl:PATH`` value."""
    if spec in ("retain", "aggregate"):
        return SinkFactory(kind=spec)
    if spec.startswith("jsonl:"):
        path = spec[len("jsonl:"):]
        if not path:
            raise ValueError("--sink jsonl needs a directory: jsonl:PATH")
        return SinkFactory(kind="jsonl", jsonl_dir=path)
    raise ValueError(
        f"unknown sink {spec!r}; expected retain, aggregate or jsonl:PATH"
    )
