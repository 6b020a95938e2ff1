"""Unit and property-based tests for the utility layer (RNG streams, stats)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import RngStream
from repro.utils.stats import (
    OnlineStats,
    clamp,
    left_sum,
    mean,
    median,
    percentile,
)


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(7, "x")
        b = RngStream(7, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_spawn_is_deterministic_and_independent(self):
        root1 = RngStream(3)
        root2 = RngStream(3)
        child1 = root1.spawn("a")
        child2 = root2.spawn("a")
        other = root1.spawn("b")
        seq1 = [child1.random() for _ in range(4)]
        assert seq1 == [child2.random() for _ in range(4)]
        assert seq1 != [other.random() for _ in range(4)]

    def test_negative_seed_is_rejected(self):
        # ``random.Random`` seeds with ``abs(seed)``: -3 would replay 3's draws.
        with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
            RngStream(-3, "x")

    def test_pareto_respects_scale(self):
        rng = RngStream(1)
        samples = [rng.pareto(1.5, 2.0) for _ in range(200)]
        assert all(sample >= 2.0 for sample in samples)

    def test_bounded_pareto_respects_cap(self):
        rng = RngStream(1)
        samples = [rng.bounded_pareto(1.1, 1.0, 5.0) for _ in range(500)]
        assert all(1.0 <= sample <= 5.0 for sample in samples)

    def test_bounded_pareto_requires_cap_above_scale(self):
        with pytest.raises(ValueError):
            RngStream(0).bounded_pareto(1.1, 2.0, 2.0)

    def test_bernoulli_bounds(self):
        rng = RngStream(2)
        assert not any(rng.bernoulli(0.0) for _ in range(50))
        assert all(rng.bernoulli(1.0) for _ in range(50))
        with pytest.raises(ValueError):
            rng.bernoulli(1.5)

    def test_weighted_choice_prefers_heavy_weight(self):
        rng = RngStream(3)
        picks = [rng.weighted_choice(["a", "b"], [0.99, 0.01]) for _ in range(300)]
        assert picks.count("a") > 250

    def test_weighted_choice_validates(self):
        rng = RngStream(0)
        with pytest.raises(ValueError):
            rng.weighted_choice(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            rng.weighted_choice([], [])

    def test_truncated_gauss_within_bounds(self):
        rng = RngStream(4)
        samples = [rng.truncated_gauss(1.0, 0.5, low=0.5, high=1.5) for _ in range(200)]
        assert all(0.5 <= sample <= 1.5 for sample in samples)

    def test_pareto_rejects_bad_parameters(self):
        rng = RngStream(0)
        with pytest.raises(ValueError):
            rng.pareto(0.0)
        with pytest.raises(ValueError):
            rng.pareto(1.0, 0.0)


class TestStatsHelpers:
    def test_clamp(self):
        assert clamp(5.0, 0.0, 3.0) == 3.0
        assert clamp(-1.0, 0.0, 3.0) == 0.0
        assert clamp(2.0, 0.0, 3.0) == 2.0
        with pytest.raises(ValueError):
            clamp(1.0, 3.0, 0.0)

    def test_mean_median(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        with pytest.raises(ValueError):
            mean([])
        with pytest.raises(ValueError):
            median([])

    def test_left_sum_adds_left_to_right(self):
        # (1e16 + 1.0) rounds back to 1e16, so a strict left-to-right fold
        # ends at 0.0; CPython 3.12's compensated built-in sum returns 1.0.
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        assert left_sum([0.1] * 10) == 0.9999999999999999
        total = left_sum(iter([3, 4, 5]))
        assert total == 12 and type(total) is int
        assert left_sum([]) == 0

    def test_percentile(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0
        assert percentile(values, 50) == 3.0
        with pytest.raises(ValueError):
            percentile(values, 101)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_online_stats(self):
        stats = OnlineStats()
        for value in [2.0, 4.0, 6.0]:
            stats.add(value)
        assert stats.mean == pytest.approx(4.0)
        assert stats.count == 3

    def test_online_stats_empty(self):
        stats = OnlineStats()
        assert stats.mean == 0.0 and stats.count == 0


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_online_stats_matches_batch_mean(self, values):
        stats = OnlineStats()
        for value in values:
            stats.add(value)
        assert stats.mean == pytest.approx(sum(values) / len(values), rel=1e-6, abs=1e-6)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_median_is_between_min_and_max(self, values):
        result = median(values)
        assert min(values) <= result <= max(values)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=1, max_size=30),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_percentile_monotone_in_q(self, values, q):
        lower = percentile(values, max(0.0, q - 10.0))
        upper = percentile(values, min(100.0, q + 10.0))
        assert lower <= upper + 1e-9

    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_rng_streams_reproducible(self, seed, name):
        a = RngStream(seed).spawn(name)
        b = RngStream(seed).spawn(name)
        assert a.random() == b.random()

    @given(
        st.floats(min_value=1.05, max_value=3.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_pareto_samples_at_least_scale(self, shape, scale):
        rng = RngStream(11)
        assert rng.pareto(shape, scale) >= scale
