"""Property tests for EventQueue cancellation and its use by the engine.

The engine now cancels ``COPY_FINISH`` events of killed copies and the
``JOB_DEADLINE`` event of jobs that finish early, instead of popping dead
events and discarding them.  These tests pin down the queue semantics the
engine relies on: cancelled events are invisible to ``pop`` and
``pop_at_or_before``, ``len`` counts only live events, and cancelling popped
events is a no-op.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import NoSpeculationPolicy
from repro.core.bounds import ApproximationBound
from repro.core.policies import GreedySpeculative
from repro.simulator.engine import Simulation
from repro.simulator.events import EventKind, EventQueue
from repro.simulator.stragglers import StragglerConfig

from tests.conftest import make_job_spec, make_simulation_config


class TestQueueCancellation:
    def test_cancelled_event_skipped_by_pop(self):
        queue = EventQueue()
        drop = queue.push(1.0, EventKind.COPY_FINISH, 1, 0, 10)
        queue.push(2.0, EventKind.COPY_FINISH, 2, 0, 20)
        queue.cancel(drop)
        assert queue.pop() == (2.0, EventKind.COPY_FINISH, 2, 0, 20)
        assert queue.pop() is None

    def test_len_counts_only_live_events(self):
        queue = EventQueue()
        first = queue.push(1.0, EventKind.COPY_FINISH, 0)
        queue.push(2.0, EventKind.COPY_FINISH, 0)
        assert len(queue) == 2
        queue.cancel(first)
        assert len(queue) == 1
        assert bool(queue)

    def test_queue_of_only_cancelled_events_is_falsy(self):
        queue = EventQueue()
        event = queue.push(1.0, EventKind.COPY_FINISH, 0)
        queue.cancel(event)
        assert len(queue) == 0
        assert not queue
        assert queue.pop_at_or_before(1.0) is None
        assert queue.pop() is None

    def test_cancel_after_pop_is_a_noop(self):
        queue = EventQueue()
        event = queue.push(1.0, EventKind.COPY_FINISH, 1)
        queue.push(2.0, EventKind.COPY_FINISH, 2)
        assert queue.pop()[2] == 1
        queue.cancel(event)  # already fired: must not poison the queue
        assert len(queue) == 1
        assert queue.pop()[2] == 2

    def test_double_cancel_is_a_noop(self):
        queue = EventQueue()
        event = queue.push(1.0, EventKind.COPY_FINISH, 0)
        queue.push(2.0, EventKind.COPY_FINISH, 0)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 1

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.booleans(),  # cancel this event later?
            ),
            min_size=0,
            max_size=40,
        ),
        st.integers(min_value=0, max_value=40),  # pops interleaved at the end
    )
    @settings(max_examples=200, deadline=None)
    def test_queue_matches_reference_model(self, pushes, pops):
        """pop_at_or_before() and pop() return exactly the non-cancelled
        events in (time, seq) order, and len() tracks the model throughout."""
        queue = EventQueue()
        live = []
        for index, (time, cancel_later) in enumerate(pushes):
            sequence = queue.push(time, EventKind.COPY_FINISH, index)
            if cancel_later:
                queue.cancel(sequence)
            else:
                live.append((time, sequence, index))
        assert len(queue) == len(live)
        expected = [
            (time, EventKind.COPY_FINISH, index, -1, -1)
            for time, _, index in sorted(live)
        ]
        for expected_event in expected[:pops]:
            assert queue.pop_at_or_before(expected_event[0]) == expected_event
        assert len(queue) == max(0, len(live) - pops)
        remaining = expected[pops:]
        assert [queue.pop() for _ in remaining] == remaining
        assert queue.pop() is None


class TestEngineCancellation:
    def test_deadline_event_cancelled_when_job_finishes_early(self):
        # The job finishes its 2 tasks at t=5 while its deadline is t=100;
        # with cancellation the queue must be fully drained at the end
        # (no dead JOB_DEADLINE left to pop) and simulated time stays at 5.
        spec = make_job_spec([5.0] * 2, ApproximationBound.with_deadline(100.0), max_slots=2)
        simulation = Simulation(make_simulation_config(machines=4), NoSpeculationPolicy(), [spec])
        metrics = simulation.run()
        assert len(simulation._events) == 0
        assert simulation._now == 5.0
        assert metrics.results[0].completed_input_tasks == 2

    def test_killed_copy_events_cancelled(self):
        # Speculation kills loser copies; their COPY_FINISH events must be
        # cancelled rather than fire into a finished task (the engine now
        # asserts on stale completions instead of silently skipping them).
        spec = make_job_spec([5.0] * 6, ApproximationBound.exact(), max_slots=3)
        config = make_simulation_config(
            machines=6, stragglers=StragglerConfig(shape=1.05, cap=20.0, jitter=0.0), seed=11
        )
        simulation = Simulation(config, GreedySpeculative(), [spec])
        metrics = simulation.run()
        assert metrics.results[0].accuracy == 1.0
        assert len(simulation._events) == 0
        assert not simulation._copy_finish_events
        assert not simulation._deadline_events

    def test_events_processed_counter(self):
        spec = make_job_spec([2.0] * 4, ApproximationBound.exact(), max_slots=2)
        simulation = Simulation(make_simulation_config(), NoSpeculationPolicy(), [spec])
        simulation.run()
        # 1 arrival + 4 copy completions, no dead events.
        assert simulation.events_processed == 5
