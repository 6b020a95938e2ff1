"""Unit tests for the reactive model (Appendix A) and the Hill estimator."""

import pytest

from repro.model.hill import estimate_tail_index, hill_estimates
from repro.model.reactive import (
    ReactiveModelConfig,
    gs_omega,
    omega_grid,
    ras_omega,
    reactive_response_time,
    response_time_ratio_curve,
)
from repro.utils.rng import RngStream


class TestHillEstimator:
    def test_recovers_pareto_tail_index(self):
        rng = RngStream(1)
        samples = [rng.pareto(1.3, 1.0) for _ in range(8000)]
        estimate = estimate_tail_index(samples)
        assert estimate == pytest.approx(1.3, rel=0.15)

    def test_hill_estimates_are_positive(self):
        rng = RngStream(2)
        samples = [rng.pareto(2.0, 1.0) for _ in range(1000)]
        for _, beta in hill_estimates(samples):
            assert beta > 0

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            hill_estimates([1.0, 2.0, 3.0])

    def test_rejects_bad_fraction(self):
        rng = RngStream(3)
        samples = [rng.pareto(2.0, 1.0) for _ in range(100)]
        with pytest.raises(ValueError):
            hill_estimates(samples, max_fraction=0.0)


class TestReactiveModel:
    CONFIG = ReactiveModelConfig(shape=1.259, scale=1.0, slots=8, trials=40, seed=1)

    def test_omega_closed_forms(self):
        assert gs_omega(1.259, 1.0) == pytest.approx(1.259)
        assert ras_omega(1.259, 1.0) == pytest.approx(2.518)
        with pytest.raises(ValueError):
            gs_omega(1.0)

    def test_response_time_positive_and_reproducible(self):
        first = reactive_response_time(1.0, waves=2, config=self.CONFIG)
        second = reactive_response_time(1.0, waves=2, config=self.CONFIG)
        assert first > 0
        assert first == second

    def test_more_waves_take_longer(self):
        short = reactive_response_time(1.0, waves=1, config=self.CONFIG)
        long = reactive_response_time(1.0, waves=4, config=self.CONFIG)
        assert long > short

    def test_speculation_beats_never_speculating_for_heavy_tails(self):
        never = reactive_response_time(1e6, waves=2, config=self.CONFIG)
        with_speculation = reactive_response_time(ras_omega(1.259), waves=2, config=self.CONFIG)
        assert with_speculation < never

    def test_ratio_curve_normalised_to_best(self):
        curves = response_time_ratio_curve([0.0, 1.0, 3.0], [1, 3], self.CONFIG)
        for curve in curves.values():
            ratios = [ratio for _, ratio in curve]
            assert min(ratios) == pytest.approx(1.0)
            assert all(ratio >= 1.0 - 1e-9 for ratio in ratios)

    def test_omega_grid_spans_range(self):
        grid = omega_grid(1.259, points=5, span=5.0)
        assert grid[0] == 0.0
        assert len(grid) == 5
        assert grid[-1] == pytest.approx(5.0 * 1.259)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReactiveModelConfig(shape=1.0)
        with pytest.raises(ValueError):
            ReactiveModelConfig(trials=0)
