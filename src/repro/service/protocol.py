"""JSONL wire protocol of the replay service.

One JSON object per line, UTF-8, ``\\n``-terminated — the same framing the
trace files use, chosen so a session is debuggable with ``nc`` and a pair of
eyes.  Requests carry an ``op`` field, responses an ``event`` field:

Requests (client → server)
    ``{"op": "submit", "tenant": "...", "plan": {...}}``
        Submit a :class:`~repro.experiments.plan.ReplayPlan` (its
        ``to_wire()`` dict).  Answered *immediately* with ``accepted`` or
        ``rejected`` — admission is synchronous, execution is not.
    ``{"op": "ping"}``
        Liveness probe; answered with ``pong``.

Responses (server → client)
    ``{"event": "accepted", "id": N, "tenant": "..."}``
        The plan passed validation and admission; ``id`` tags every later
        message about it.
    ``{"event": "rejected", "code": 400|429, "reason": "..."}``
        400 = the plan itself is invalid (:class:`PlanError` text);
        429 = admission control refused it under overload.  Nothing further
        follows for this submission.
    ``{"event": "delta", "id": N, "policy": p, "seed": s, "shard": k,
    "chunk": {...}}``
        One completed (policy, seed, shard) simulation's aggregate chunk
        (:func:`~repro.simulator.sinks.chunk_to_wire`), streamed as soon as
        the simulation lands.  Exactly ``policies × seeds × shards`` deltas
        precede ``done``.
    ``{"event": "done", "id": N, "digest": "...", "num_jobs": ...,
    "num_shards": ..., "policies": [...], "seeds": [...],
    "truncated_jobs": ..., "elapsed_ms": ...}``
        The plan finished; ``digest`` is the policy-tagged metrics digest
        and ``policies``/``seeds``/``num_shards`` give the deterministic
        merge order, so a client can refold its received deltas and verify
        the digest without trusting the server.  When the plan ran with a
        replay cache the frame also carries a ``cache`` object with the
        hit/miss/bytes counters for the run.
    ``{"event": "error", "id": N, "reason": "..."}``
        The plan was accepted but execution failed (unreadable trace,
        malformed rows, ...); terminal for this submission.
    ``{"event": "pong"}``

Deltas for one submission arrive shard-major: slices restored from the
replay cache first, then simulated slices in request order as the service's
process pool completes them.  That is not the (policy, seed, shard) merge
order, so each delta carries its full coordinates and reassembly is
order-independent.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

#: Hard cap on one JSONL frame.  A delta is a constant-size aggregate chunk
#: (a few KB); anything near this limit is a malformed or hostile line.
MAX_LINE_BYTES = 1_048_576


class ProtocolError(ValueError):
    """A frame violated the wire protocol; ``str(exc)`` is the reason."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """One message as a compact JSONL frame (sorted keys, trailing newline)."""
    return json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Decode one received frame, enforcing the size and shape guards."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(message).__name__}")
    return message


# -- message constructors (single source of field names) ---------------------------


def submit_message(tenant: str, plan_wire: Dict[str, Any]) -> Dict[str, Any]:
    return {"op": "submit", "tenant": tenant, "plan": plan_wire}


def ping_message() -> Dict[str, Any]:
    return {"op": "ping"}


def accepted_message(request_id: int, tenant: str) -> Dict[str, Any]:
    return {"event": "accepted", "id": request_id, "tenant": tenant}


def rejected_message(code: int, reason: str) -> Dict[str, Any]:
    return {"event": "rejected", "code": code, "reason": reason}


def delta_message(
    request_id: int, policy: str, seed: int, shard: int, chunk_wire: Dict[str, Any]
) -> Dict[str, Any]:
    return {
        "event": "delta",
        "id": request_id,
        "policy": policy,
        "seed": seed,
        "shard": shard,
        "chunk": chunk_wire,
    }


def done_message(
    request_id: int,
    digest: str,
    num_jobs: int,
    num_shards: int,
    policies: List[str],
    seeds: List[int],
    truncated_jobs: int,
    elapsed_ms: float,
    cache: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    message = {
        "event": "done",
        "id": request_id,
        "digest": digest,
        "num_jobs": num_jobs,
        "num_shards": num_shards,
        "policies": policies,
        "seeds": seeds,
        "truncated_jobs": truncated_jobs,
        "elapsed_ms": elapsed_ms,
    }
    if cache is not None:
        # Replay-cache counters for the execution (hits/misses/stores/bytes/
        # evictions); only present when the plan ran with a cache.
        message["cache"] = cache
    return message


def error_message(request_id: Optional[int], reason: str) -> Dict[str, Any]:
    return {"event": "error", "id": request_id, "reason": reason}


def pong_message() -> Dict[str, Any]:
    return {"event": "pong"}
