"""Unit tests for the baseline policies: no-spec, LATE, Mantri, oracle."""

import pytest

from repro.baselines import LatePolicy, MantriPolicy, NoSpeculationPolicy, OraclePolicy
from repro.core.bounds import ApproximationBound

from tests.test_policies import make_view

DEADLINE = ApproximationBound.with_deadline(100.0)
ERROR = ApproximationBound.with_error(0.2)


class TestNoSpeculation:
    def test_schedules_pending_in_task_order(self):
        policy = NoSpeculationPolicy()
        view = make_view(
            [(10.0, False, 9.0, 9.0, 0), (10.0, False, 3.0, 3.0, 0)],
            DEADLINE,
            remaining_deadline=50.0,
        )
        assert policy.choose_task(view).task.task_id == 0

    def test_never_speculates(self):
        policy = NoSpeculationPolicy()
        view = make_view([(10.0, True, 50.0, 5.0, 1)], DEADLINE, remaining_deadline=50.0)
        assert policy.choose_task(view) is None


class TestLate:
    def test_pending_tasks_take_priority(self):
        policy = LatePolicy()
        view = make_view(
            [(10.0, True, 50.0, 5.0, 1), (10.0, False, 10.0, 10.0, 0)],
            DEADLINE,
            remaining_deadline=50.0,
        )
        snap = policy.choose_task(view)
        assert snap.task.task_id == 1 and not snap.running

    def test_speculates_slowest_task_when_no_pending(self):
        policy = LatePolicy(min_runtime_before_speculation=0.0)
        view = make_view(
            [(10.0, True, 50.0, 10.0, 1), (10.0, True, 5.0, 10.0, 1)],
            DEADLINE,
            remaining_deadline=100.0,
        )
        snap = policy.choose_task(view)
        assert snap is not None
        assert snap.running
        assert snap.task.task_id == 0

    def test_respects_speculative_cap(self):
        policy = LatePolicy(speculative_cap=0.1, min_runtime_before_speculation=0.0)
        # One duplicate already running; wave width 4 -> budget max(1, 0.4)=1.
        view = make_view(
            [(10.0, True, 50.0, 10.0, 2), (10.0, True, 40.0, 10.0, 1)],
            DEADLINE,
            remaining_deadline=100.0,
            wave_width=4,
        )
        assert policy.choose_task(view) is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LatePolicy(slow_task_percentile=0.0)
        with pytest.raises(ValueError):
            LatePolicy(speculative_cap=0.0)
        with pytest.raises(ValueError):
            LatePolicy(min_runtime_before_speculation=-1.0)


class TestMantri:
    def test_duplicates_when_remaining_exceeds_twice_new(self):
        policy = MantriPolicy(min_runtime_before_speculation=0.0)
        view = make_view(
            [(10.0, True, 25.0, 10.0, 1), (10.0, False, 10.0, 10.0, 0)],
            DEADLINE,
            remaining_deadline=100.0,
        )
        snap = policy.choose_task(view)
        assert snap.task.task_id == 0 and snap.running

    def test_prefers_pending_when_no_task_qualifies(self):
        policy = MantriPolicy(min_runtime_before_speculation=0.0)
        view = make_view(
            [(10.0, True, 15.0, 10.0, 1), (10.0, False, 10.0, 10.0, 0)],
            DEADLINE,
            remaining_deadline=100.0,
        )
        snap = policy.choose_task(view)
        assert snap.task.task_id == 1 and not snap.running

    def test_caps_copies_at_two(self):
        policy = MantriPolicy(min_runtime_before_speculation=0.0)
        view = make_view(
            [(10.0, True, 50.0, 10.0, 2)], DEADLINE, remaining_deadline=100.0
        )
        assert policy.choose_task(view) is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MantriPolicy(duplicate_threshold=1.0)
        with pytest.raises(ValueError):
            MantriPolicy(max_copies_per_task=1)


class TestOracle:
    def test_uses_ras_when_many_waves_remain(self):
        policy = OraclePolicy()
        # 20 pending tasks of tnew 10, wave width 2, deadline 200 -> ~20 waves.
        tasks = [(10.0, False, 10.0, 10.0, 0) for _ in range(20)]
        tasks.append((10.0, True, 15.0, 10.0, 1))  # duplicate not beneficial for RAS
        view = make_view(tasks, DEADLINE, remaining_deadline=200.0, wave_width=2)
        snap = policy.choose_task(view)
        assert not snap.running

    def test_uses_gs_in_final_waves(self):
        policy = OraclePolicy()
        # Remaining deadline of one median task -> final wave -> GS semantics:
        # a duplicate that merely beats the running copy is accepted.
        view = make_view(
            [(10.0, True, 9.0, 5.0, 1)], DEADLINE, remaining_deadline=10.0, wave_width=2
        )
        snap = policy.choose_task(view)
        assert snap is not None and snap.running

    def test_error_bound_waves_from_required_tasks(self):
        policy = OraclePolicy()
        tasks = [(10.0, False, 10.0, 10.0, 0) for _ in range(6)]
        view = make_view(tasks, ERROR, remaining_required=6, wave_width=2)
        assert policy._remaining_waves(view) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            OraclePolicy(switch_waves=0.0)
