"""Unit tests for approximation bounds (deadline / error / exact)."""

import pytest

from repro.core.bounds import ApproximationBound, BoundType


class TestConstruction:
    def test_deadline_bound_fields(self):
        bound = ApproximationBound.with_deadline(12.5)
        assert bound.kind is BoundType.DEADLINE
        assert bound.deadline == 12.5
        assert bound.is_deadline and not bound.is_error

    def test_error_bound_fields(self):
        bound = ApproximationBound.with_error(0.25)
        assert bound.kind is BoundType.ERROR
        assert bound.error == 0.25
        assert bound.is_error and not bound.is_deadline

    def test_exact_is_zero_error(self):
        bound = ApproximationBound.exact()
        assert bound.is_error
        assert bound.error == 0.0
        assert bound.required_tasks(100) == 100

    def test_error_bound_is_not_exact_when_positive(self):
        assert ApproximationBound.with_error(0.05).required_tasks(100) == 95

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError):
            ApproximationBound.with_deadline(0.0)
        with pytest.raises(ValueError):
            ApproximationBound.with_deadline(-3.0)

    def test_error_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            ApproximationBound.with_error(1.0)
        with pytest.raises(ValueError):
            ApproximationBound.with_error(-0.1)

    def test_deadline_bound_rejects_error_field(self):
        with pytest.raises(ValueError):
            ApproximationBound(kind=BoundType.DEADLINE, deadline=5.0, error=0.1)

    def test_error_bound_rejects_deadline_field(self):
        with pytest.raises(ValueError):
            ApproximationBound(kind=BoundType.ERROR, error=0.1, deadline=5.0)


class TestRequiredTasks:
    def test_error_bound_required_tasks_rounds_up(self):
        bound = ApproximationBound.with_error(0.25)
        assert bound.required_tasks(10) == 8  # ceil(7.5)

    def test_exact_requires_all_tasks(self):
        assert ApproximationBound.exact().required_tasks(17) == 17

    def test_deadline_required_is_total(self):
        assert ApproximationBound.with_deadline(5.0).required_tasks(9) == 9

    def test_required_tasks_zero_total(self):
        assert ApproximationBound.with_error(0.3).required_tasks(0) == 0

    def test_required_tasks_negative_total_rejected(self):
        with pytest.raises(ValueError):
            ApproximationBound.with_error(0.3).required_tasks(-1)

    @pytest.mark.parametrize(
        "error,total,expected",
        [(0.0, 5, 5), (0.5, 5, 3), (0.9, 10, 1), (0.05, 100, 95), (0.3, 1, 1)],
    )
    def test_required_tasks_table(self, error, total, expected):
        assert ApproximationBound.with_error(error).required_tasks(total) == expected
