"""Event queue for the discrete-event simulator.

Events are ordered by time, then by kind, then by a deterministic sequence
number, so two runs with the same seed replay the exact same schedule (ties
are common: several copies can finish at the same instant when durations are
integers).

An event is a plain tuple ``(time, kind, job_id, task_id, copy_id)``.  The
heap holds ``(time, kind, sequence)`` — plain tuple comparisons are what
CPython's ``heapq`` C accelerator is optimised for — and the live table maps
each sequence number to its event.  ``push`` returns the sequence number as
the cancel handle.  Cancellation is a dict deletion: a heap entry whose
sequence is no longer live is discarded in passing by ``pop``/``peek_time``.
"""

from __future__ import annotations

import heapq
from enum import IntEnum
from typing import Dict, List, Optional, Tuple


class EventKind(IntEnum):
    """The kinds of events the engine reacts to.

    The values are the tie-break order of events scheduled at the same
    instant.  Copy completions are applied before arrivals, so freed slots
    are visible to the new job, and before deadlines, so a task finishing
    exactly at the deadline still counts.
    """

    COPY_FINISH = 0
    JOB_ARRIVAL = 1
    JOB_DEADLINE = 2


#: ``(time, kind, job_id, task_id, copy_id)``; the ids a kind does not use
#: are -1.
EventTuple = Tuple[float, EventKind, int, int, int]


class EventQueue:
    """A deterministic min-heap of events with lazy cancellation.

    ``cancel`` removes the event from the live table without touching the
    heap; stale heap entries are skipped (and physically removed) by
    ``pop``/``peek_time``.  ``len`` and ``bool`` count only live events, so
    callers can treat a queue whose remaining entries are all cancelled as
    empty.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, EventKind, int]] = []
        self._live: Dict[int, EventTuple] = {}
        self._next_sequence = 0

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def push(
        self,
        time: float,
        kind: EventKind,
        job_id: int,
        task_id: int = -1,
        copy_id: int = -1,
    ) -> int:
        """Schedule an event and return its sequence number (the cancel handle)."""
        if time < 0:
            raise ValueError("event time must be non-negative")
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        heapq.heappush(self._heap, (time, kind, sequence))
        self._live[sequence] = (time, kind, job_id, task_id, copy_id)
        return sequence

    def cancel(self, sequence: int) -> None:
        """Lazily cancel an event: it will be skipped when popped.

        Cancelling an event that was already popped (or cancelled) is a
        no-op, so callers don't need to track whether a handle already fired.
        """
        self._live.pop(sequence, None)

    def pop(self) -> Optional[EventTuple]:
        """Pop the earliest non-cancelled event, or None if the queue is empty."""
        heap = self._heap
        live = self._live
        while heap:
            event = live.pop(heapq.heappop(heap)[2], None)
            if event is not None:
                return event
        return None

    def pop_at_or_before(self, time: float) -> Optional[EventTuple]:
        """Pop the earliest live event no later than ``time``, else None.

        This is the engine's same-instant cohort drain in one heap
        inspection: an event strictly after ``time`` is left queued.
        """
        heap = self._heap
        live = self._live
        while heap:
            head = heap[0]
            if head[2] not in live:
                heapq.heappop(heap)
                continue
            if head[0] > time:
                return None
            heapq.heappop(heap)
            return live.pop(head[2])
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest non-cancelled event without removing it."""
        heap = self._heap
        live = self._live
        while heap and heap[0][2] not in live:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        self._heap.clear()
        self._live.clear()
