"""Property tests pinning the :class:`EventQueue` ordering contract.

An event is a ``(time, kind, job_id, task_id, copy_id)`` tuple and its
handle the sequence number ``push`` returns.  These tests lock the
externally observable contract in place:

* pop order is ``(time, kind value, sequence)`` — time first, then the
  kind tie-break (COPY_FINISH < JOB_ARRIVAL < JOB_DEADLINE), then insertion
  order;
* cancellation is lazy and idempotent: a cancelled event is never popped,
  cancelling an already-popped or already-cancelled handle is a no-op, and
  ``len``/``bool`` count live events only;
* ``peek_time`` agrees with the next ``pop`` even across cancellations, which
  is what the engine's same-instant cohort drain relies on.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.events import EventKind, EventQueue

KINDS = list(EventKind)

#: A pushed event: (time, kind); times are coarse floats so ties are common.
event_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8).map(lambda t: t / 2.0),
        st.sampled_from(KINDS),
    ),
    min_size=1,
    max_size=40,
)


class TestPopOrdering:
    @given(specs=event_specs)
    @settings(max_examples=200, deadline=None)
    def test_pop_order_is_time_then_kind_priority_then_sequence(self, specs):
        queue = EventQueue()
        handles = [queue.push(time, kind, i) for i, (time, kind) in enumerate(specs)]
        expected = sorted(
            range(len(specs)),
            key=lambda i: (specs[i][0], int(specs[i][1]), handles[i]),
        )
        popped = []
        while queue:
            popped.append(queue.pop())
        assert [event[2] for event in popped] == expected
        assert popped == [(*specs[i], i, -1, -1) for i in expected]
        assert queue.pop() is None

    @given(specs=event_specs)
    @settings(max_examples=100, deadline=None)
    def test_sequence_numbers_are_strictly_increasing(self, specs):
        queue = EventQueue()
        handles = [queue.push(time, kind, 0) for time, kind in specs]
        assert all(type(handle) is int for handle in handles)
        assert handles == sorted(handles)
        assert len(set(handles)) == len(handles)

    def test_same_instant_kind_priority(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.JOB_DEADLINE, 1)
        queue.push(1.0, EventKind.JOB_ARRIVAL, 2)
        queue.push(1.0, EventKind.COPY_FINISH, 3, 4, 5)
        order = [queue.pop() for _ in range(3)]
        assert order == [
            (1.0, EventKind.COPY_FINISH, 3, 4, 5),
            (1.0, EventKind.JOB_ARRIVAL, 2, -1, -1),
            (1.0, EventKind.JOB_DEADLINE, 1, -1, -1),
        ]

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(-0.5, EventKind.COPY_FINISH, 0)
        assert len(queue) == 0


class TestCancellation:
    @given(specs=event_specs, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_cancelled_events_never_pop_and_len_counts_live(self, specs, data):
        queue = EventQueue()
        handles = [queue.push(time, kind, i) for i, (time, kind) in enumerate(specs)]
        to_cancel = data.draw(st.sets(st.sampled_from(range(len(handles)))))
        for index in to_cancel:
            queue.cancel(handles[index])
            queue.cancel(handles[index])  # idempotent
        live = [i for i in range(len(handles)) if i not in to_cancel]
        assert len(queue) == len(live)
        assert bool(queue) == bool(live)
        expected = sorted(
            live, key=lambda i: (specs[i][0], int(specs[i][1]), handles[i])
        )
        popped = []
        while queue:
            popped.append(queue.pop())
        assert [event[2] for event in popped] == expected

    def test_cancel_after_pop_is_noop(self):
        queue = EventQueue()
        first = queue.push(1.0, EventKind.COPY_FINISH, 1)
        queue.push(2.0, EventKind.COPY_FINISH, 2)
        assert queue.pop()[2] == 1
        queue.cancel(first)  # already fired: must not affect the live event
        assert len(queue) == 1
        assert queue.pop()[2] == 2

    def test_clear_empties_everything(self):
        queue = EventQueue()
        handle = queue.push(1.0, EventKind.COPY_FINISH, 0)
        queue.push(2.0, EventKind.JOB_ARRIVAL, 1)
        queue.cancel(handle)
        queue.clear()
        assert len(queue) == 0
        assert not queue
        assert queue.pop() is None
        assert queue.peek_time() is None


class TestPeekAndCohortDrain:
    @given(specs=event_specs, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_peek_time_matches_next_pop(self, specs, data):
        queue = EventQueue()
        handles = [queue.push(time, kind, 0) for time, kind in specs]
        for index in data.draw(st.sets(st.sampled_from(range(len(handles))))):
            queue.cancel(handles[index])
        while True:
            peeked = queue.peek_time()
            event = queue.pop()
            if event is None:
                assert peeked is None
                break
            assert peeked == event[0]

    @given(specs=event_specs)
    @settings(max_examples=100, deadline=None)
    def test_same_instant_cohort_drains_completely(self, specs):
        """The engine's cohort drain: pop one event, then drain its instant."""
        queue = EventQueue()
        for time, kind in specs:
            queue.push(time, kind, 0)
        cohorts = []
        while queue:
            event = queue.pop()
            cohort = [event]
            while queue.peek_time() == event[0]:
                cohort.append(queue.pop())
            cohorts.append(cohort)
        times = [cohort[0][0] for cohort in cohorts]
        assert times == sorted(times)
        assert len(set(times)) == len(times), "each instant drains in one cohort"
        assert sum(len(c) for c in cohorts) == len(specs)
