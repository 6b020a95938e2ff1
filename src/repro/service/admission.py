"""Weighted fair-share admission across tenants.

GRASS's fair scheduler divides cluster slots among jobs; the replay service
faces the same problem one level up — dividing a bounded execution pool
among *tenants* — and solves it the same way: virtual-time (stride)
scheduling.  Each tenant owns a bounded FIFO of pending submissions and a
virtual clock; dispatching a submission advances the tenant's clock by
``cost / weight``, and the next dispatch always goes to the backlogged
tenant with the smallest clock.  A tenant with no listed weight weighs 1,
and every weight is a finite number above zero.  A weight-2 tenant's clock
advances half as fast, so it receives twice the dispatch share while
contended — and an idle tenant's clock is clamped forward to the service's
virtual time when it returns, so sleeping never banks credit (the classic
starvation fix).

Overflow is *rejected, never buffered*: a full per-tenant queue or a full
service backlog raises :class:`AdmissionRejected` with an HTTP-flavoured
429 code the wire protocol forwards verbatim.  Under overload the service
therefore degrades by refusing new work with an explicit signal — the
approximation-analytics stance of the paper (bounded resources, explicit
degradation) applied to the control plane.

The scheduler is deliberately synchronous and event-loop-free: submissions
and dispatches happen on the server's single asyncio thread, so plain data
structures suffice and every decision is deterministic given the
submit/dispatch order — which is what the unit tests exercise.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

#: Admission refusal code carried on the wire (HTTP 429 Too Many Requests).
REJECT_OVERLOAD = 429
#: Invalid-plan refusal code carried on the wire (HTTP 400 Bad Request).
REJECT_BAD_PLAN = 400


class AdmissionRejected(Exception):
    """A submission was refused; ``code`` and ``reason`` go on the wire."""

    def __init__(self, code: int, reason: str) -> None:
        super().__init__(reason)
        self.code = code
        self.reason = reason


def check_weight(tenant: str, weight: float) -> None:
    """Raise ``ValueError`` unless ``weight`` is a finite number above zero.

    A NaN weight compares False against every clock and an infinite one
    never advances its tenant's clock, so either turns fair share into
    strict priority.
    """
    if not (math.isfinite(weight) and weight > 0):
        raise ValueError(
            f"weight for tenant {tenant!r} must be a finite number above zero, "
            f"got {weight!r}"
        )


class _TenantState:
    __slots__ = ("weight", "virtual_time", "queue")

    def __init__(self, weight: float) -> None:
        self.weight = weight
        self.virtual_time = 0.0
        # (arrival sequence, item, cost) triples, FIFO per tenant.
        self.queue: Deque[Tuple[int, object, float]] = deque()


class FairShareAdmission:
    """Bounded, weighted fair-share queueing of tenant submissions.

    ``submit`` either enqueues or raises :class:`AdmissionRejected`;
    ``next`` pops the submission the fair share says runs next, or ``None``
    when nothing is pending.  The caller (the service's dispatcher) decides
    *when* to call ``next`` — typically whenever an execution slot frees.
    """

    def __init__(
        self,
        max_pending_per_tenant: int = 4,
        max_pending_total: int = 64,
        weights: Optional[Dict[str, float]] = None,
    ) -> None:
        if max_pending_per_tenant < 1:
            raise ValueError("max_pending_per_tenant must be >= 1")
        if max_pending_total < 1:
            raise ValueError("max_pending_total must be >= 1")
        for tenant, weight in (weights or {}).items():
            check_weight(tenant, weight)
        self._max_pending_per_tenant = max_pending_per_tenant
        self._max_pending_total = max_pending_total
        self._weights = dict(weights or {})
        self._tenants: Dict[str, _TenantState] = {}
        self._pending_total = 0
        #: Monotone arrival counter; breaks virtual-time ties FIFO-fairly.
        self._sequence = 0
        #: Virtual time of the most recent dispatch — the clamp floor for
        #: tenants that went idle (empty queue) and come back.
        self._virtual_clock = 0.0

    # -- introspection ---------------------------------------------------------

    @property
    def pending_total(self) -> int:
        return self._pending_total

    # -- submission ------------------------------------------------------------

    def submit(self, tenant: str, item: object, cost: float = 1.0) -> None:
        """Enqueue ``item`` for ``tenant`` or raise :class:`AdmissionRejected`.

        ``cost`` is the virtual-time charge of the submission (the service
        charges a plan's fan-out size), so a tenant submitting huge plans
        is debited proportionally more than one submitting small ones.
        """
        if cost <= 0:
            raise ValueError("cost must be positive")
        if self._pending_total >= self._max_pending_total:
            raise AdmissionRejected(
                REJECT_OVERLOAD,
                f"service backlog full ({self._pending_total} pending); retry later",
            )
        state = self._tenants.get(tenant)
        if state is None:
            state = _TenantState(self._weights.get(tenant, 1.0))
            self._tenants[tenant] = state
        if len(state.queue) >= self._max_pending_per_tenant:
            raise AdmissionRejected(
                REJECT_OVERLOAD,
                f"tenant {tenant!r} backlog full ({len(state.queue)} pending); "
                "retry later",
            )
        if not state.queue:
            # Returning from idle: forfeit unused share instead of banking it.
            state.virtual_time = max(state.virtual_time, self._virtual_clock)
        state.queue.append((self._sequence, item, cost))
        self._sequence += 1
        self._pending_total += 1

    # -- dispatch --------------------------------------------------------------

    def next(self) -> Optional[Tuple[str, object]]:
        """Pop the (tenant, item) the fair share dispatches next, if any."""
        best: Optional[str] = None
        best_key: Optional[Tuple[float, int]] = None
        for tenant, state in self._tenants.items():
            if not state.queue:
                continue
            key = (state.virtual_time, state.queue[0][0])
            if best_key is None or key < best_key:
                best, best_key = tenant, key
        if best is None:
            return None
        state = self._tenants[best]
        _seq, item, cost = state.queue.popleft()
        self._pending_total -= 1
        self._virtual_clock = state.virtual_time
        state.virtual_time += cost / state.weight
        return best, item

    # -- release (client disconnects) ------------------------------------------

    def refund(self, tenant: str, cost: float) -> None:
        """Return a dispatched submission's virtual-time debit to ``tenant``.

        Used when a client disconnects after its submission was dispatched
        but before it finished: the results go nowhere, and without the
        refund the tenant's clock would stay advanced by ``cost / weight``
        — a fair-share penalty for work the service threw away.  The clock
        is floored at zero, and the idle clamp in :meth:`submit` already
        prevents a refund from banking credit below the service's virtual
        clock, so the net effect is "as if the dispatch never happened".
        """
        if cost <= 0:
            raise ValueError("cost must be positive")
        state = self._tenants.get(tenant)
        if state is None:
            return
        state.virtual_time = max(0.0, state.virtual_time - cost / state.weight)

    def cancel_where(
        self, predicate: Callable[[object], bool]
    ) -> List[Tuple[str, object]]:
        """Drop every *pending* item matching ``predicate``; return them.

        Pending items were never dispatched, so no virtual time was charged
        — cancellation only frees their backlog slots (per-tenant and
        service-wide).  Tenants are scanned in sorted order so the returned
        list is deterministic given the queue contents.
        """
        removed: List[Tuple[str, object]] = []
        for tenant in sorted(self._tenants):
            state = self._tenants[tenant]
            kept: Deque[Tuple[int, object, float]] = deque()
            for entry in state.queue:
                if predicate(entry[1]):
                    removed.append((tenant, entry[1]))
                else:
                    kept.append(entry)
            state.queue = kept
        self._pending_total -= len(removed)
        return removed
