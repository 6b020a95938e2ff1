"""Content-addressed replay result cache: never simulate the same slice twice.

Five PRs made every (policy, seed, shard) unit of replay work
bit-deterministic, gave its result a constant-size wire encoding
(:func:`repro.simulator.sinks.chunk_to_wire`) and made the merge an
associative fold.  That is exactly the precondition for *memoizing* results
instead of recomputing them — the efficiency-over-exactness trade at the
heart of GRASS, applied one level up: repeated load (CI determinism
matrices, figure reruns, multi-tenant serving) becomes O(cache lookup)
instead of O(simulation).

Keying — content-addressed, three ingredients
---------------------------------------------

An entry's key is the sha256 over the canonical JSON of:

* the **plan slice**: every plan field that can change the slice's digest
  (policy, simulation seed, shard coordinates, cluster size, framework,
  bound kind, bound-assignment seed) — and *none* that cannot (``workers``
  and the sink are wall-clock/memory knobs whose digest-invariance the
  replay-determinism matrix locks);
* the **source fingerprint**: sha256 of the trace file's bytes, or the
  canonical dict of a generated tier's config — edit one row of a trace and
  every key under it changes;
* the **engine fingerprint**: sha256 over every ``*.py`` source of the
  ``repro`` package — the engine, the policies and baselines, the utilities
  and the experiment registry and config builders alike — so any edit under
  ``repro`` silently invalidates every entry computed before it (the
  entries become unreachable keys, reclaimed by ``cache clear``).  Entries
  are not scoped per policy yet, so an edit to one policy also invalidates
  every other policy's entries.

The value is the slice's sealed :class:`~repro.simulator.sinks.AggregateChunk`
in its existing wire encoding plus the four collector gauges an entry point
reads (truncated jobs, peak resident jobs, events processed, copies
launched) — enough to restore a
:class:`~repro.simulator.metrics.MetricsCollector` whose aggregates (and
digest part) are byte-identical to the simulation's.

Store layout and concurrency
----------------------------

``<root>/<key[:2]>/<key>.json`` — one JSON file per entry, fanned out over
256 prefix directories.  Writes go to a unique temp file in the same
directory and land with ``os.replace``, so readers never observe a partial
entry and concurrent multi-process writers of the *same* key (which, being
content-addressed, write the same bytes) simply race to an identical
result.  An in-memory LRU of :data:`MEMORY_ENTRIES` slices fronts the
store; the on-disk store is unbounded, and ``cache clear`` reclaims it.

Corrupt, truncated or wrong-version entries are treated as misses with a
one-line :class:`CacheIntegrityWarning` and are deleted (the next store
rewrites them); they never crash a replay.  Neither does a store that fails
on a full or read-only disk: it is warned, counted and skipped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

import repro
from repro.simulator.metrics import MetricsCollector
from repro.simulator.sinks import (
    AggregateChunk,
    SealedChunkSink,
    chunk_from_wire,
    chunk_to_wire,
)
from repro.workload.trace_replay import ClusterTierConfig

#: Bump when the entry payload layout changes; older files become warned
#: misses (satellite contract: never crash, never silently misread).
CACHE_FORMAT_VERSION = 3

#: Slices the in-memory LRU keeps in front of the on-disk store.
MEMORY_ENTRIES = 1024


class CacheIntegrityWarning(UserWarning):
    """A cache entry was corrupt/truncated/wrong-version (treated as a miss)
    or could not be written (the slice stays uncached)."""


class StaleEntryError(RuntimeError):
    """A cache entry cannot be re-verified (source moved or changed)."""


def canonical_json_bytes(payload: object) -> bytes:
    """The one canonical encoding every fingerprint in this module hashes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


# -- fingerprints ------------------------------------------------------------------

#: Engine fingerprints memoized per package root (stable for the process:
#: source files do not change under a running replay).
_ENGINE_FINGERPRINTS: Dict[str, str] = {}

#: Trace-file fingerprints memoized by (path, size, mtime_ns, inode) so the
#: service's repeated-tenant probes pay one file read, then O(stat).
_SOURCE_FINGERPRINTS: Dict[Tuple[str, int, int, int], str] = {}


def engine_fingerprint(root: Optional[Union[str, Path]] = None) -> str:
    """sha256 over every ``*.py`` source of the ``repro`` package.

    A digest can move with any of them: the engine, a baseline, a utility
    such as ``utils/rng.py``, or the experiments package, whose registry and
    config builders decide how a simulation behaves.  So the whole package
    is hashed rather than a hand-kept list of subpackages (see module docs).

    ``root`` is the ``repro`` package directory; it defaults to the
    installed package and exists as a parameter so the invalidation tests
    can fingerprint an edited copy.  Files are folded in sorted
    relative-path order with their paths mixed in, so renames — not just
    edits — change the fingerprint.
    """
    base = Path(root) if root is not None else Path(repro.__file__).resolve().parent
    memo_key = str(base)
    cached = _ENGINE_FINGERPRINTS.get(memo_key)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        hasher.update(path.relative_to(base).as_posix().encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(path.read_bytes())
        hasher.update(b"\x00")
    digest = hasher.hexdigest()
    _ENGINE_FINGERPRINTS[memo_key] = digest
    return digest


def source_fingerprint(source: Union[str, Path, ClusterTierConfig]) -> str:
    """Content fingerprint of a replay source.

    Trace files are hashed by *content* (streamed sha256 — edit one row and
    every cached slice under the trace misses); generated tiers are hashed
    by the canonical dict of every :class:`ClusterTierConfig` field, which
    fully determines the generated jobs.  File fingerprints are memoized by
    ``(path, size, mtime_ns, inode)``.
    """
    if isinstance(source, ClusterTierConfig):
        payload = {"kind": "cluster"}
        payload.update(dataclasses.asdict(source))
        digest = hashlib.sha256(canonical_json_bytes(payload)).hexdigest()
        return f"cluster:sha256:{digest}"
    path = Path(source)
    stat = path.stat()
    memo_key = (str(path.resolve()), stat.st_size, stat.st_mtime_ns, stat.st_ino)
    cached = _SOURCE_FINGERPRINTS.get(memo_key)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(block)
    digest = f"trace:sha256:{hasher.hexdigest()}"
    if len(_SOURCE_FINGERPRINTS) >= 64:
        _SOURCE_FINGERPRINTS.clear()
    _SOURCE_FINGERPRINTS[memo_key] = digest
    return digest


def source_descriptor(source: Union[str, Path, ClusterTierConfig]) -> Dict[str, object]:
    """A re-runnable description of a source, stored beside each entry.

    The fingerprint alone cannot be *executed*; ``cache verify`` needs to
    re-simulate a sampled entry, so entries also carry this descriptor
    (absolute trace path, or the full tier config).
    """
    if isinstance(source, ClusterTierConfig):
        descriptor = {"kind": "cluster"}
        descriptor.update(dataclasses.asdict(source))
        return descriptor
    return {"kind": "trace", "path": str(Path(source).resolve())}


def source_from_descriptor(
    descriptor: Dict[str, object]
) -> Union[str, ClusterTierConfig]:
    """Inverse of :func:`source_descriptor`; raises :class:`StaleEntryError`."""
    kind = descriptor.get("kind")
    if kind == "trace":
        return str(descriptor["path"])
    if kind == "cluster":
        fields = {
            key: value for key, value in descriptor.items() if key != "kind"
        }
        try:
            return ClusterTierConfig(**fields)
        except TypeError as exc:
            raise StaleEntryError(f"unreadable cluster descriptor: {exc}") from None
    raise StaleEntryError(f"unknown source descriptor kind {kind!r}")


# -- cached slices -----------------------------------------------------------------


@dataclass(frozen=True)
class CachedSlice:
    """One (policy, seed, shard) simulation's cacheable result.

    The sealed aggregate chunk plus the collector's four gauges — exactly
    what :meth:`restore` needs to rebuild a collector whose aggregate view
    (and digest part) and gauges equal the original simulation's.  Raw
    per-job results are deliberately *not* cached: GRASS's evaluation is
    aggregate-only, and retaining them would make entries O(trace).
    """

    chunk: AggregateChunk
    truncated_jobs: int = 0
    peak_resident_jobs: int = 0
    events_processed: int = 0
    total_copies_launched: int = 0

    @classmethod
    def from_metrics(cls, metrics: MetricsCollector) -> "CachedSlice":
        chunks = metrics.aggregates.chunks
        if len(chunks) != 1:
            raise ValueError(
                f"a cacheable slice has exactly one aggregate chunk, got {len(chunks)}"
            )
        return cls(
            chunk=chunks[0],
            truncated_jobs=metrics.truncated_jobs,
            peak_resident_jobs=metrics.peak_resident_jobs,
            events_processed=metrics.events_processed,
            total_copies_launched=metrics.total_copies_launched,
        )

    def restore(self) -> MetricsCollector:
        """A collector indistinguishable from the original for aggregate
        consumers: same chunk, same digest part, same gauges; recording into
        it raises and ``retains_results`` is False."""
        return MetricsCollector(
            sink=SealedChunkSink(self.chunk),
            truncated_jobs=self.truncated_jobs,
            peak_resident_jobs=self.peak_resident_jobs,
            events_processed=self.events_processed,
            total_copies_launched=self.total_copies_launched,
        )

    def counters_wire(self) -> Dict[str, object]:
        return {
            "truncated_jobs": self.truncated_jobs,
            "peak_resident_jobs": self.peak_resident_jobs,
            "events_processed": self.events_processed,
            "total_copies_launched": self.total_copies_launched,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CachedSlice":
        counters = payload["counters"]
        return cls(
            chunk=chunk_from_wire(payload["chunk"]),
            truncated_jobs=int(counters["truncated_jobs"]),
            peak_resident_jobs=int(counters["peak_resident_jobs"]),
            events_processed=int(counters["events_processed"]),
            total_copies_launched=int(counters["total_copies_launched"]),
        )


# -- counters ----------------------------------------------------------------------


@dataclass
class CacheCounters:
    """One cache's session counters, surfaced in replay output and in the
    service's ``done`` frame (its ``cache`` object)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Corrupt/truncated/wrong-version entries encountered (each also a miss).
    invalid: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: Stores that failed with an OSError (full or read-only disk); the
    #: slice's result still reached the replay, just not the cache.
    store_failures: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def summary(self) -> str:
        parts = [
            f"{self.hits} hit{'s' if self.hits != 1 else ''}",
            f"{self.misses} miss{'es' if self.misses != 1 else ''}",
            f"{self.stores} stored",
        ]
        if self.invalid:
            parts.append(f"{self.invalid} invalid")
        if self.store_failures:
            parts.append(f"{self.store_failures} failed to store")
        parts.append(f"{self.bytes_read}B read, {self.bytes_written}B written")
        return ", ".join(parts)


@dataclass(frozen=True)
class StoreStats:
    """One scan of the on-disk store (the ``cache stats`` verb's payload)."""

    entries: int = 0
    total_bytes: int = 0
    #: Entries written by a different engine fingerprint — unreachable by
    #: current lookups, reclaimed by ``cache clear``.
    stale_engine_entries: int = 0
    #: Files that do not parse as current-version entries.
    invalid_files: int = 0


# -- the cache ---------------------------------------------------------------------


class ReplayCache:
    """Content-addressed, shard-granular result store (see module docs).

    One instance per process/plan is fine — correctness comes from the
    content-addressed keys and atomic writes, not from sharing the object.
    The replay service holds one long-lived instance so its in-memory LRU
    persists across tenant submissions.
    """

    def __init__(
        self, root: Union[str, Path], engine: Optional[str] = None
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.engine = engine if engine is not None else engine_fingerprint()
        self.counters = CacheCounters()
        self._memory: "OrderedDict[str, CachedSlice]" = OrderedDict()
        self._tmp_sequence = itertools.count()

    # -- keying ----------------------------------------------------------------

    def key_for(self, slice_wire: Dict[str, object]) -> str:
        """The entry key: sha256 over (format version, engine, slice)."""
        material = canonical_json_bytes(
            {
                "version": CACHE_FORMAT_VERSION,
                "engine": self.engine,
                "slice": slice_wire,
            }
        )
        return hashlib.sha256(material).hexdigest()

    def entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- lookup ----------------------------------------------------------------

    def lookup(self, slice_wire: Dict[str, object]) -> Optional[CachedSlice]:
        """The cached slice for this key, or ``None`` (a miss).

        Misses include absent entries and entries that fail validation
        (corrupt JSON, truncated file, wrong format version, key/engine
        mismatch) — the latter warn once, are deleted, and never raise.
        """
        key = self.key_for(slice_wire)
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.counters.hits += 1
            return cached
        path = self.entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.counters.misses += 1
            return None
        cached, reason = self._decode_entry(raw, key)
        if cached is None:
            self.counters.invalid += 1
            self.counters.misses += 1
            warnings.warn(
                f"replay cache: treating {path} as a miss ({reason}); "
                "the entry will be recomputed and overwritten",
                CacheIntegrityWarning,
                stacklevel=2,
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.counters.hits += 1
        self.counters.bytes_read += len(raw)
        self._remember(key, cached)
        return cached

    def _decode_entry(
        self, raw: bytes, key: str
    ) -> Tuple[Optional[CachedSlice], str]:
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            return None, f"corrupt entry: {exc}"
        if not isinstance(payload, dict):
            return None, "corrupt entry: not a JSON object"
        version = payload.get("version")
        if version != CACHE_FORMAT_VERSION:
            return None, (
                f"format version {version!r}, expected {CACHE_FORMAT_VERSION}"
            )
        if payload.get("engine") != self.engine or payload.get("key") != key:
            # The key hashes (engine, slice); a mismatch inside a matching
            # file means the file's content does not belong to its name.
            return None, "entry does not match its content-addressed key"
        try:
            return CachedSlice.from_payload(payload), ""
        except (KeyError, TypeError, ValueError) as exc:
            return None, f"corrupt entry: {exc}"

    # -- store -----------------------------------------------------------------

    def store(
        self,
        slice_wire: Dict[str, object],
        cached: CachedSlice,
        descriptor: Optional[Dict[str, object]] = None,
    ) -> None:
        """Write one entry atomically (tmp + ``os.replace``) and remember it.

        Concurrent writers of the same key write byte-identical payloads
        (the key is content-addressed over everything that determines them),
        so whichever ``os.replace`` lands last changes nothing.

        A write that fails with ``OSError`` (a full or read-only disk) only
        costs the cache its entry: the temp file is removed, a
        :class:`CacheIntegrityWarning` is issued, ``store_failures`` counts
        it and the replay carries on uncached.
        """
        key = self.key_for(slice_wire)
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "engine": self.engine,
            "key": key,
            "slice": slice_wire,
            "source": descriptor or {},
            "chunk": chunk_to_wire(cached.chunk),
            "counters": cached.counters_wire(),
        }
        raw = canonical_json_bytes(payload)
        path = self.entry_path(key)
        tmp = path.parent / f".{key}.{os.getpid()}.{next(self._tmp_sequence)}.tmp"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(raw)
            os.replace(tmp, path)
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            self.counters.store_failures += 1
            warnings.warn(
                f"replay cache: cannot store {path} ({exc}); "
                "continuing without caching this slice",
                CacheIntegrityWarning,
                stacklevel=2,
            )
            return
        self.counters.stores += 1
        self.counters.bytes_written += len(raw)
        self._remember(key, cached)

    def _remember(self, key: str, cached: CachedSlice) -> None:
        self._memory[key] = cached
        self._memory.move_to_end(key)
        if len(self._memory) > MEMORY_ENTRIES:
            self._memory.popitem(last=False)

    # -- maintenance (the ``cache`` CLI verb's backend) ------------------------

    def iter_entries(self) -> Iterator[Tuple[Path, Optional[Dict[str, object]]]]:
        """Every entry file in sorted order with its parsed payload.

        Unparseable files yield ``(path, None)`` so callers can count them
        without this iterator ever raising mid-scan.
        """
        for path in sorted(self.root.glob("??/*.json")):
            try:
                payload = json.loads(path.read_bytes().decode("utf-8"))
            except (OSError, UnicodeDecodeError, ValueError):
                yield path, None
                continue
            yield path, payload if isinstance(payload, dict) else None

    def store_stats(self) -> StoreStats:
        entries = 0
        total_bytes = 0
        stale = 0
        invalid = 0
        for path, payload in self.iter_entries():
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            if payload is None or payload.get("version") != CACHE_FORMAT_VERSION:
                invalid += 1
                continue
            entries += 1
            if payload.get("engine") != self.engine:
                stale += 1
        return StoreStats(
            entries=entries,
            total_bytes=total_bytes,
            stale_engine_entries=stale,
            invalid_files=invalid,
        )

    def clear(self) -> int:
        """Remove every entry file; returns how many were deleted."""
        removed = 0
        for path in sorted(self.root.glob("??/*.json")):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        for path in sorted(self.root.glob("??/.*.tmp")):
            try:
                path.unlink()
            except OSError:
                pass
        self._memory.clear()
        return removed
