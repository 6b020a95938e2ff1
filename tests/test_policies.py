"""Unit tests for the GS and RAS policies (Pseudocode 1 and 2)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bounds import ApproximationBound
from repro.core.job import Job
from repro.core.policies.base import ExactIndex, SchedulingView
from repro.core.policies.gs import GreedySpeculative
from repro.core.policies.ras import ResourceAwareSpeculative
from repro.core.task import TaskCopy

from tests.conftest import make_job_spec


def make_view(task_specs, bound, remaining_deadline=None, remaining_required=None, wave_width=4):
    """Build a SchedulingView from (work, running, trem, tnew, copies) tuples.

    The view is served from an :class:`ExactIndex` whose true durations are
    the table's ``tnew`` and ``trem``; a pending task's ``trem`` is its
    ``tnew``, whatever the table says.
    """
    works = [entry[0] for entry in task_specs]
    job = Job(make_job_spec(works, bound))
    job.start(0.0)
    for task_id, (_work, running, trem, _tnew, copies) in enumerate(task_specs):
        task = job.tasks[task_id]
        if running:
            for copy_index in range(copies):
                task.add_copy(
                    TaskCopy(
                        copy_id=copy_index,
                        task_id=task_id,
                        machine_id=0,
                        start_time=0.0,
                        duration=max(trem, 1.0) + 1.0,
                    )
                )
    sched = ExactIndex(
        job,
        tnew_of=lambda task: task_specs[task.task_id][3],
        trem_of=lambda task, now: task_specs[task.task_id][2],
    )
    assert sched.prepare(0.0)
    required = remaining_required
    if required is None:
        required = bound.required_tasks(len(task_specs))
    return SchedulingView(
        now=0.0,
        job=job,
        sched=sched,
        bound=bound,
        remaining_deadline=remaining_deadline,
        remaining_required_tasks=required,
        wave_width=wave_width,
        cluster_utilization=0.5,
        estimator_accuracy=0.8,
    )


def chosen(policy, view):
    """``(task_id, speculative)`` of the policy's choice, or None."""
    snap = policy.choose_task(view)
    if snap is None:
        return None
    return snap.task.task_id, snap.running


DEADLINE = ApproximationBound.with_deadline(100.0)
ERROR = ApproximationBound.with_error(0.2)


class TestPruning:
    def test_deadline_prunes_tasks_that_cannot_finish(self):
        # RAS: the duplicate saves resources (40 - 2 * 15 > 0) but cannot
        # finish in 10 s, so the pending task is chosen instead.
        ras_table = [(10.0, True, 40.0, 15.0, 1), (10.0, False, 5.0, 5.0, 0)]
        ras = ResourceAwareSpeculative()
        assert chosen(ras, make_view(ras_table, DEADLINE, remaining_deadline=10.0)) == (1, False)
        assert chosen(ras, make_view(ras_table, DEADLINE, remaining_deadline=50.0)) == (0, True)
        # GS: both tasks are pruned at 10 s, so the fallback takes the
        # pending task although the duplicate has the lower tnew.
        gs_table = [(10.0, True, 20.0, 12.0, 1), (10.0, False, 15.0, 15.0, 0)]
        gs = GreedySpeculative()
        assert chosen(gs, make_view(gs_table, DEADLINE, remaining_deadline=10.0)) == (1, False)
        assert chosen(gs, make_view(gs_table, DEADLINE, remaining_deadline=50.0)) == (0, True)

    def test_deadline_gs_keeps_running_only_if_tnew_below_trem(self):
        policy = GreedySpeculative()
        # Task 1 has the lower tnew, but its copy would not beat the running
        # one (8 > 6), so GS duplicates task 0 instead.
        view = make_view(
            [(10.0, True, 20.0, 9.0, 1), (10.0, True, 6.0, 8.0, 1)],
            DEADLINE,
            remaining_deadline=50.0,
        )
        assert chosen(policy, view) == (0, True)
        # tnew == trem is no speedup either; with nothing else, GS idles.
        view = make_view([(10.0, True, 8.0, 8.0, 1)], DEADLINE, remaining_deadline=50.0)
        assert chosen(policy, view) is None

    def test_deadline_ras_requires_positive_saving(self):
        # saving = c * trem - (c + 1) * tnew: 12 - 16 < 0 and 16 - 16 == 0,
        # so RAS takes the pending default where GS would duplicate.
        for trem in (12.0, 16.0):
            table = [(10.0, True, trem, 8.0, 1), (10.0, False, 9.0, 9.0, 0)]
            view = make_view(table, DEADLINE, remaining_deadline=50.0)
            assert chosen(ResourceAwareSpeculative(), view) == (1, False)
            assert chosen(GreedySpeculative(), view) == (0, True)
        view = make_view(
            [(10.0, True, 20.0, 8.0, 1), (10.0, False, 9.0, 9.0, 0)],
            DEADLINE,
            remaining_deadline=50.0,
        )
        assert chosen(ResourceAwareSpeculative(), view) == (0, True)

    def test_error_keeps_only_earliest_contributors(self):
        # Two tasks are needed: the window is tasks 1 and 2 (tnew 2 and 5),
        # so longest-first picks task 2, never the slower task 0.
        view = make_view(
            [
                (10.0, False, 10.0, 10.0, 0),
                (10.0, False, 2.0, 2.0, 0),
                (10.0, False, 5.0, 5.0, 0),
            ],
            ERROR,
            remaining_required=2,
        )
        assert chosen(GreedySpeculative(), view) == (2, False)
        assert chosen(ResourceAwareSpeculative(), view) == (2, False)
        # A running task is ranked by min(trem, tnew): 3 puts it in the
        # window ahead of task 2, and its saving (30 - 2 * 3) is positive.
        view = make_view(
            [
                (10.0, True, 30.0, 3.0, 1),
                (10.0, False, 2.0, 2.0, 0),
                (10.0, False, 5.0, 5.0, 0),
            ],
            ERROR,
            remaining_required=2,
        )
        assert chosen(GreedySpeculative(), view) == (0, True)
        assert chosen(ResourceAwareSpeculative(), view) == (0, True)

    def test_error_with_zero_required_keeps_all(self):
        table = [(10.0, False, 10.0, 10.0, 0), (10.0, False, 2.0, 2.0, 0)]
        for policy in (GreedySpeculative(), ResourceAwareSpeculative()):
            assert chosen(policy, make_view(table, ERROR, remaining_required=0)) == (0, False)
            assert chosen(policy, make_view(table, ERROR, remaining_required=1)) == (1, False)


class TestGreedySpeculative:
    def test_deadline_picks_smallest_tnew(self):
        policy = GreedySpeculative()
        view = make_view(
            [(10.0, False, 9.0, 9.0, 0), (10.0, False, 4.0, 4.0, 0), (10.0, False, 6.0, 6.0, 0)],
            DEADLINE,
            remaining_deadline=50.0,
        )
        snap = policy.choose_task(view)
        assert snap.task.task_id == 1
        assert not snap.running

    def test_deadline_speculates_when_duplicate_is_fastest(self):
        policy = GreedySpeculative()
        view = make_view(
            [(10.0, True, 20.0, 3.0, 1), (10.0, False, 8.0, 8.0, 0)],
            DEADLINE,
            remaining_deadline=50.0,
        )
        snap = policy.choose_task(view)
        assert snap.task.task_id == 0
        assert snap.running

    def test_deadline_tie_prefers_original_over_duplicate(self):
        policy = GreedySpeculative()
        view = make_view(
            [(10.0, True, 20.0, 8.0, 1), (10.0, False, 8.0, 8.0, 0)],
            DEADLINE,
            remaining_deadline=50.0,
        )
        assert policy.choose_task(view).task.task_id == 1

    def test_deadline_falls_back_to_pending_when_everything_pruned(self):
        # The deadline filter drops every task, but leaving the slot idle is
        # never better than trying the shortest pending task (durations are
        # stochastic), so the policy falls back instead of returning None.
        policy = GreedySpeculative()
        view = make_view(
            [(10.0, False, 30.0, 30.0, 0)], DEADLINE, remaining_deadline=5.0
        )
        snap = policy.choose_task(view)
        assert snap is not None and not snap.running

    def test_error_picks_largest_remaining(self):
        policy = GreedySpeculative()
        view = make_view(
            [(10.0, True, 30.0, 10.0, 1), (10.0, False, 10.0, 10.0, 0)],
            ERROR,
            remaining_required=2,
        )
        snap = policy.choose_task(view)
        assert snap.task.task_id == 0 and snap.running

    def test_copy_cap_blocks_further_duplicates(self):
        policy = GreedySpeculative(max_copies_per_task=2)
        view = make_view(
            [(10.0, True, 30.0, 3.0, 2)], DEADLINE, remaining_deadline=50.0
        )
        assert policy.choose_task(view) is None

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            GreedySpeculative(max_copies_per_task=0)


class TestResourceAwareSpeculative:
    def test_prefers_positive_saving_duplicate_over_pending(self):
        policy = ResourceAwareSpeculative()
        view = make_view(
            [(10.0, True, 20.0, 4.0, 1), (10.0, False, 2.0, 2.0, 0)],
            DEADLINE,
            remaining_deadline=50.0,
        )
        snap = policy.choose_task(view)
        assert snap.task.task_id == 0 and snap.running

    def test_falls_back_to_sjf_without_savings(self):
        policy = ResourceAwareSpeculative()
        view = make_view(
            [(10.0, True, 10.0, 8.0, 1), (10.0, False, 2.0, 2.0, 0), (10.0, False, 6.0, 6.0, 0)],
            DEADLINE,
            remaining_deadline=50.0,
        )
        snap = policy.choose_task(view)
        assert snap.task.task_id == 1 and not snap.running

    def test_picks_highest_saving_among_duplicates(self):
        policy = ResourceAwareSpeculative()
        view = make_view(
            [(10.0, True, 20.0, 4.0, 1), (10.0, True, 40.0, 4.0, 1)],
            DEADLINE,
            remaining_deadline=50.0,
        )
        assert policy.choose_task(view).task.task_id == 1

    def test_error_bound_default_is_ljf(self):
        policy = ResourceAwareSpeculative()
        view = make_view(
            [(10.0, False, 4.0, 4.0, 0), (10.0, False, 9.0, 9.0, 0)],
            ERROR,
            remaining_required=2,
        )
        assert policy.choose_task(view).task.task_id == 1

    def test_error_bound_ignores_low_saving_straggler(self):
        policy = ResourceAwareSpeculative()
        view = make_view(
            [(10.0, True, 12.0, 8.0, 1), (10.0, False, 9.0, 9.0, 0)],
            ERROR,
            remaining_required=2,
        )
        snap = policy.choose_task(view)
        assert snap.task.task_id == 1 and not snap.running

    def test_falls_back_to_beneficial_duplicate_when_everything_pruned(self):
        policy = ResourceAwareSpeculative()
        view = make_view(
            [(10.0, True, 10.0, 8.0, 1)], DEADLINE, remaining_deadline=5.0
        )
        snap = policy.choose_task(view)
        assert snap is not None and snap.running

    def test_returns_none_when_no_useful_fallback_exists(self):
        policy = ResourceAwareSpeculative()
        # The only task's duplicate would be slower than its running copy, so
        # even the fallback has nothing worth launching.
        view = make_view(
            [(10.0, True, 5.0, 8.0, 1)], DEADLINE, remaining_deadline=3.0
        )
        assert policy.choose_task(view) is None

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            ResourceAwareSpeculative(max_copies_per_task=0)


# -- the index selection against a brute-force Pseudocode 1-2 ---------------------


def _saving(snap) -> float:
    return snap.copies * snap.trem - (snap.copies + 1) * snap.tnew


def _speculation_passes(snap, resource_aware: bool) -> bool:
    """RAS's positive saving, or GS's ``tnew < trem``."""
    if resource_aware:
        return _saving(snap) > 0
    return snap.tnew < snap.trem


def reference_choice(view, resource_aware: bool, cap: int):
    """GS (``resource_aware=False``) or RAS over the materialised snapshot list.

    A plain pruning stage then a selection stage, with no index structures:
    the list-based code the index selection replaced.
    """
    tasks = view.tasks

    def admissible(snap) -> bool:
        return not snap.running or (
            snap.copies < cap and _speculation_passes(snap, resource_aware)
        )

    if view.bound.is_deadline:
        remaining = view.remaining_deadline
        candidates = [
            snap
            for snap in tasks
            if admissible(snap) and (remaining is None or snap.tnew <= remaining)
        ]
        if not candidates:
            # Fallback: the shortest pending task, else the shortest
            # duplicate that beats its running copy.
            pending = [snap for snap in tasks if not snap.running]
            if pending:
                return min(pending, key=lambda snap: (snap.tnew, snap.task_id))
            beneficial = [
                snap
                for snap in tasks
                if snap.running and snap.tnew < snap.trem and snap.copies < cap
            ]
            if beneficial:
                return min(beneficial, key=lambda snap: (snap.tnew, snap.task_id))
            return None
        if not resource_aware:
            return min(candidates, key=lambda snap: (snap.tnew, snap.running, snap.task_id))
        speculative = [snap for snap in candidates if snap.running]
        if speculative:
            return min(speculative, key=lambda snap: (-_saving(snap), snap.task_id))
        return min(candidates, key=lambda snap: (snap.tnew, snap.task_id))
    needed = view.remaining_required_tasks
    if needed <= 0:
        needed = len(tasks)

    def effective(snap) -> float:
        return min(snap.trem, snap.tnew) if snap.running else snap.tnew

    earliest = sorted(tasks, key=lambda snap: (effective(snap), snap.task_id))[:needed]
    candidates = [snap for snap in earliest if admissible(snap)]
    if not candidates:
        return None
    if not resource_aware:
        return min(
            candidates,
            key=lambda snap: (
                -(snap.trem if snap.running else snap.tnew),
                snap.running,
                snap.task_id,
            ),
        )
    speculative = [snap for snap in candidates if snap.running]
    if speculative:
        return min(speculative, key=lambda snap: (-_saving(snap), snap.task_id))
    return min(candidates, key=lambda snap: (-snap.tnew, snap.task_id))


#: A coarse duration grid, so equal keys (and the tie-breaks) are common.
_GRID = st.sampled_from([1.0, 2.0, 4.0])


@st.composite
def selection_cases(draw):
    # An all-running table is the only way to reach the deadline fallback's
    # duplicate branch, so it gets drawn on purpose.
    all_running = draw(st.booleans())

    def row():
        tnew = draw(_GRID)
        if all_running or draw(st.booleans()):
            copies = draw(st.integers(min_value=1, max_value=4))
            return (10.0, True, draw(_GRID), tnew, copies)
        return (10.0, False, tnew, tnew, 0)

    # Repeating rows from a small palette makes whole-key ties common, so
    # every id tie-break is exercised.
    palette = [row() for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    rows = [
        draw(st.sampled_from(palette)) if draw(st.booleans()) else row()
        for _ in range(draw(st.integers(min_value=1, max_value=12)))
    ]
    if draw(st.booleans()):
        bound = DEADLINE
        remaining = draw(st.one_of(st.none(), st.just(0.0), _GRID))
        fields = {"remaining_deadline": remaining}
    else:
        bound = ERROR
        fields = {"remaining_required": draw(st.integers(min_value=0, max_value=len(rows) + 1))}
    cap = draw(st.integers(min_value=1, max_value=4))
    return rows, bound, fields, cap


_PENDING_2 = (10.0, False, 2.0, 2.0, 0)
_PENDING_4 = (10.0, False, 4.0, 4.0, 0)
#: One running copy with trem 4 and tnew 2.
_RUNNING_4_2 = (10.0, True, 4.0, 2.0, 1)


@settings(max_examples=500, deadline=None)
@given(case=selection_cases())
# One pinned table per id or running-flag tie-break of the index selection.
# Deadline: a pending task and a duplicate with equal tnew (the original
# wins); two fallback duplicates with equal tnew (the lower id wins).
@example(case=([_RUNNING_4_2, _PENDING_2], DEADLINE, {}, 4))
@example(case=([_RUNNING_4_2] * 2, DEADLINE, {"remaining_deadline": 0.0}, 4))
# Error: equal window keys of a pending and a running task (the pending one
# ranks first); equal tnew at the window's pending tail (the lower id); a
# duplicate whose trem equals a pending tnew (the original); two equal
# savings (the lower id).
@example(case=([_PENDING_2, _RUNNING_4_2], ERROR, {"remaining_required": 1}, 4))
@example(case=([_PENDING_2, _PENDING_4, _PENDING_4], ERROR, {"remaining_required": 3}, 4))
@example(case=([(10.0, True, 2.0, 1.0, 1), _PENDING_2], ERROR, {"remaining_required": 2}, 4))
@example(case=([(10.0, True, 4.0, 1.0, 1)] * 2, ERROR, {"remaining_required": 2}, 4))
def test_index_selection_matches_the_list_reference(case):
    rows, bound, fields, cap = case
    view = make_view(rows, bound, **fields)
    for policy_cls, resource_aware in (
        (GreedySpeculative, False),
        (ResourceAwareSpeculative, True),
    ):
        got = policy_cls(max_copies_per_task=cap).choose_task(view)
        expected = reference_choice(view, resource_aware, cap)
        assert got is expected, (policy_cls.name, got, expected)
