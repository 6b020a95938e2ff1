"""Unit tests for the simulator substrate: events, machines, cluster, stragglers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.events import EventKind, EventQueue
from repro.simulator.machine import Machine
from repro.simulator.stragglers import StragglerConfig, StragglerModel
from repro.utils.rng import RngStream


class TestEventQueue:
    def test_pop_returns_events_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, EventKind.COPY_FINISH, 3)
        queue.push(1.0, EventKind.JOB_ARRIVAL, 1)
        queue.push(2.0, EventKind.JOB_DEADLINE, 2)
        assert [queue.pop()[2] for _ in range(3)] == [1, 2, 3]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.COPY_FINISH, 0, 0, 1)
        queue.push(1.0, EventKind.COPY_FINISH, 0, 0, 2)
        assert queue.pop()[4] == 1
        assert queue.pop()[4] == 2

    def test_cancel_skips_event(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.COPY_FINISH, 1)
        drop = queue.push(0.5, EventKind.COPY_FINISH, 2)
        queue.cancel(drop)
        assert queue.pop()[2] == 1

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        drop = queue.push(0.5, EventKind.COPY_FINISH, 0)
        queue.push(2.0, EventKind.COPY_FINISH, 0)
        queue.cancel(drop)
        assert queue.peek_time() == 2.0

    def test_len_and_clear(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.COPY_FINISH, 0)
        assert len(queue) == 1 and bool(queue)
        queue.clear()
        assert len(queue) == 0 and not queue

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, EventKind.COPY_FINISH, 0)


class TestMachine:
    def test_occupy_release_cycle(self):
        machine = Machine(machine_id=0, num_slots=2)
        machine.occupy(1, 1, 1)
        assert machine.busy_slots == 1 and machine.free_slots == 1
        machine.release(1, 1, 1)
        assert machine.busy_slots == 0

    def test_occupy_beyond_capacity_raises(self):
        machine = Machine(machine_id=0, num_slots=1)
        machine.occupy(1, 1, 1)
        with pytest.raises(RuntimeError):
            machine.occupy(1, 2, 2)

    def test_release_unknown_copy_raises(self):
        machine = Machine(machine_id=0, num_slots=1)
        with pytest.raises(RuntimeError):
            machine.release(1, 1, 1)

    def test_double_occupy_same_copy_raises(self):
        machine = Machine(machine_id=0, num_slots=3)
        machine.occupy(1, 1, 1)
        with pytest.raises(RuntimeError):
            machine.occupy(1, 1, 1)

    def test_duration_scaling(self):
        machine = Machine(machine_id=0, num_slots=1, speed_factor=1.5)
        assert machine.duration_on_machine(10.0) == 15.0
        with pytest.raises(ValueError):
            machine.duration_on_machine(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Machine(machine_id=0, num_slots=0)
        with pytest.raises(ValueError):
            Machine(machine_id=0, num_slots=1, speed_factor=0.0)


class TestCluster:
    def test_total_and_free_slots(self):
        cluster = Cluster(ClusterConfig(num_machines=5, slots_per_machine=2, heterogeneity=0.0))
        assert cluster.total_slots == 10
        assert cluster.free_slots == 10
        assert cluster.utilization() == 0.0

    def test_occupy_updates_utilization(self):
        cluster = Cluster(ClusterConfig(num_machines=4, heterogeneity=0.0))
        machine = cluster.pick_machine()
        cluster.occupy(machine.machine_id, 0, 0, 0)
        assert cluster.busy_slots == 1
        assert cluster.utilization() == pytest.approx(0.25)

    def test_pick_machine_prefers_least_loaded(self):
        cluster = Cluster(ClusterConfig(num_machines=2, slots_per_machine=2, heterogeneity=0.0))
        cluster.occupy(0, 0, 0, 0)
        # Machine 1 is strictly less loaded, so it must be chosen.
        assert cluster.pick_machine().machine_id == 1

    def test_pick_machine_none_when_full(self):
        cluster = Cluster(ClusterConfig(num_machines=1, heterogeneity=0.0))
        cluster.occupy(0, 0, 0, 0)
        assert cluster.pick_machine() is None

    def test_heterogeneity_bounds_speed_factors(self):
        cluster = Cluster(ClusterConfig(num_machines=50, heterogeneity=0.2, seed=1))
        speeds = [machine.speed_factor for machine in cluster.machines]
        assert all(0.8 <= speed <= 1.4 for speed in speeds)
        assert len(set(speeds)) > 1

    def test_negative_seed_is_rejected(self):
        # Machine speeds come straight from the seed's stream, so seed -3
        # would build seed 3's cluster.
        with pytest.raises(ValueError, match="seed must be non-negative"):
            Cluster(ClusterConfig(num_machines=4, seed=-3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_machines=0)
        with pytest.raises(ValueError):
            ClusterConfig(num_machines=1, heterogeneity=1.0)


class TestFairShare:
    def make_cluster(self, slots: int = 10) -> Cluster:
        return Cluster(ClusterConfig(num_machines=slots, heterogeneity=0.0))

    def test_single_job_gets_its_demand(self):
        cluster = self.make_cluster()
        allocations = cluster.fair_share([1], {1: 4})
        assert allocations == {1: 4}

    def test_equal_split_between_two_jobs(self):
        cluster = self.make_cluster()
        allocations = cluster.fair_share([1, 2], {1: 10, 2: 10})
        assert allocations[1] + allocations[2] == 10
        assert abs(allocations[1] - allocations[2]) <= 1

    def test_unused_share_is_redistributed(self):
        cluster = self.make_cluster()
        allocations = cluster.fair_share([1, 2], {1: 2, 2: 10})
        assert allocations[1] == 2
        assert allocations[2] == 8

    def test_caps_are_respected(self):
        cluster = self.make_cluster()
        allocations = cluster.fair_share([1, 2], {1: 10, 2: 10}, caps={1: 3, 2: None})
        assert allocations[1] == 3
        assert allocations[2] == 7

    def test_capacity_override(self):
        cluster = self.make_cluster()
        allocations = cluster.fair_share([1, 2], {1: 10, 2: 10}, capacity=4)
        assert allocations[1] + allocations[2] == 4

    def test_no_jobs(self):
        cluster = self.make_cluster()
        assert cluster.fair_share([], {}) == {}

    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_fair_share_never_exceeds_capacity_or_demand(self, slots, demands):
        cluster = Cluster(ClusterConfig(num_machines=slots, heterogeneity=0.0))
        job_ids = list(range(len(demands)))
        allocations = cluster.fair_share(job_ids, dict(zip(job_ids, demands, strict=True)))
        assert sum(allocations.values()) <= cluster.total_slots
        for job_id, demand in zip(job_ids, demands, strict=True):
            assert 0 <= allocations[job_id] <= demand


class TestStragglerModel:
    def test_multiplier_is_deterministic(self):
        model_a = StragglerModel(StragglerConfig(), seed=5)
        model_b = StragglerModel(StragglerConfig(), seed=5)
        for copy_index in range(5):
            assert model_a.multiplier(1, 2, copy_index) == model_b.multiplier(1, 2, copy_index)

    def test_different_copies_differ(self):
        model = StragglerModel(StragglerConfig(), seed=5)
        values = {round(model.multiplier(0, 0, i), 6) for i in range(10)}
        assert len(values) > 1

    def test_multiplier_within_cap(self):
        config = StragglerConfig(shape=1.1, cap=8.0)
        model = StragglerModel(config, seed=1)
        samples = [model.multiplier(0, t, 0) for t in range(300)]
        assert max(samples) <= 8.0 * 1.3  # cap times the maximum jitter
        assert min(samples) > 0.0

    def test_heavy_tail_produces_stragglers(self):
        model = StragglerModel(StragglerConfig(), seed=2)
        samples = [model.multiplier(0, t, 0) for t in range(500)]
        samples.sort()
        median = samples[len(samples) // 2]
        assert max(samples) / median > 4.0

    @pytest.mark.parametrize(
        "config", [StragglerConfig(), StragglerConfig.light(), StragglerConfig.severe()]
    )
    @pytest.mark.parametrize("seed", [0, 7, 123456])
    def test_multiplier_draws_from_the_copys_own_stream(self, config, seed):
        # The flattened hot path equals the readable derivation: every copy
        # draws a bounded Pareto and a truncated jitter from its own stream,
        # spawned off the seed's straggler root by (job, task, copy).
        model = StragglerModel(config, seed)
        root = RngStream(seed, "straggler-root")
        for job_id in (0, 1, 29):
            for task_id in (0, 3, 250):
                for copy_index in (0, 1, 2):
                    stream = root.spawn(f"{job_id}/{task_id}/{copy_index}")
                    expected = max(
                        0.05,
                        stream.bounded_pareto(config.shape, config.scale, config.cap)
                        * stream.truncated_gauss(1.0, config.jitter, low=0.7, high=1.3),
                    )
                    assert model.multiplier(job_id, task_id, copy_index) == expected

    def test_none_config_is_nearly_deterministic(self):
        model = StragglerModel(StragglerConfig.none(), seed=3)
        samples = [model.multiplier(0, t, 0) for t in range(100)]
        assert all(abs(sample - 1.0) < 0.05 for sample in samples)

    def test_copy_duration_combines_factors(self):
        model = StragglerModel(StragglerConfig.none(), seed=3)
        duration = model.copy_duration(10.0, 1.2, 0, 0, 0)
        assert duration == pytest.approx(12.0, rel=0.05)

    def test_copy_duration_validation(self):
        model = StragglerModel(StragglerConfig.none(), seed=3)
        with pytest.raises(ValueError):
            model.copy_duration(0.0, 1.0, 0, 0, 0)
        with pytest.raises(ValueError):
            model.copy_duration(1.0, 0.0, 0, 0, 0)

    def test_mean_multiplier_analytic_close_to_empirical(self):
        config = StragglerConfig()
        model = StragglerModel(config, seed=7)
        samples = [model.multiplier(0, t, 0) for t in range(4000)]
        empirical = sum(samples) / len(samples)
        assert empirical == pytest.approx(config.mean_multiplier(), rel=0.15)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StragglerConfig(shape=0.0)
        with pytest.raises(ValueError):
            StragglerConfig(cap=0.5, median=1.0)
        with pytest.raises(ValueError):
            StragglerConfig(jitter=-1.0)
