"""Property-based tests on core invariants of the simulator and the policies.

These are the "does the whole machine hold together" checks: for arbitrary
small workloads and any policy, the simulator must conserve slots, never
complete more tasks than exist, respect bounds, and stay deterministic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LatePolicy, MantriPolicy, NoSpeculationPolicy
from repro.core.bounds import ApproximationBound
from repro.core.policies import Grass, GrassConfig, GreedySpeculative, ResourceAwareSpeculative
from repro.simulator.engine import Simulation
from repro.simulator.stragglers import StragglerConfig

from tests.conftest import make_job_spec, make_simulation_config

POLICY_FACTORIES = [
    NoSpeculationPolicy,
    LatePolicy,
    MantriPolicy,
    GreedySpeculative,
    ResourceAwareSpeculative,
    lambda: Grass(GrassConfig(seed=0)),
]


def _policy_strategy():
    return st.sampled_from(POLICY_FACTORIES)


@st.composite
def error_jobs(draw):
    num_tasks = draw(st.integers(min_value=2, max_value=20))
    work = draw(st.floats(min_value=1.0, max_value=20.0))
    error = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]))
    slots = draw(st.integers(min_value=1, max_value=8))
    return make_job_spec(
        [work] * num_tasks, ApproximationBound.with_error(error), max_slots=slots
    )


@st.composite
def deadline_jobs(draw):
    num_tasks = draw(st.integers(min_value=2, max_value=20))
    work = draw(st.floats(min_value=1.0, max_value=10.0))
    slots = draw(st.integers(min_value=1, max_value=8))
    slack = draw(st.floats(min_value=1.05, max_value=2.0))
    waves = -(-num_tasks // slots)
    deadline = waves * work * slack
    return make_job_spec(
        [work] * num_tasks, ApproximationBound.with_deadline(deadline), max_slots=slots
    )


class TestSimulatorInvariants:
    @given(error_jobs(), _policy_strategy(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_error_jobs_meet_their_bound(self, spec, policy_factory, seed):
        config = make_simulation_config(machines=10, stragglers=StragglerConfig(), seed=seed)
        metrics = Simulation(config, policy_factory(), [spec]).run()
        result = metrics.results[0]
        assert result.met_bound
        assert result.completed_input_tasks >= spec.bound.required_tasks(spec.num_input_tasks)
        assert result.completed_input_tasks <= spec.num_input_tasks
        assert result.duration >= 0.0

    @given(deadline_jobs(), _policy_strategy(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_deadline_jobs_respect_the_deadline(self, spec, policy_factory, seed):
        config = make_simulation_config(machines=10, stragglers=StragglerConfig(), seed=seed)
        metrics = Simulation(config, policy_factory(), [spec]).run()
        result = metrics.results[0]
        assert 0.0 <= result.accuracy <= 1.0
        assert result.duration <= spec.bound.deadline + 1e-6
        # Tasks completed never exceed what exists.
        assert result.completed_input_tasks <= spec.num_input_tasks

    @given(error_jobs(), _policy_strategy())
    @settings(max_examples=25, deadline=None)
    def test_same_seed_is_deterministic(self, spec, policy_factory):
        config = make_simulation_config(machines=10, stragglers=StragglerConfig(), seed=7)
        first = Simulation(config, policy_factory(), [spec]).run().results[0]
        second = Simulation(config, policy_factory(), [spec]).run().results[0]
        assert first.duration == second.duration
        assert first.completed_input_tasks == second.completed_input_tasks

    @given(error_jobs(), _policy_strategy(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_all_slots_released_at_the_end(self, spec, policy_factory, seed):
        config = make_simulation_config(machines=10, stragglers=StragglerConfig(), seed=seed)
        simulation = Simulation(config, policy_factory(), [spec])
        simulation.run()
        assert simulation.cluster._busy_count == 0

    @given(error_jobs(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_speculation_never_loses_completions(self, spec, seed):
        # Any speculation policy must still satisfy the error bound; the
        # completed count can never be lower than the bound requires.
        config = make_simulation_config(machines=10, stragglers=StragglerConfig(), seed=seed)
        for policy in (GreedySpeculative(), ResourceAwareSpeculative()):
            result = Simulation(config, policy, [spec]).run().results[0]
            assert result.completed_input_tasks >= spec.bound.required_tasks(spec.num_input_tasks)

    @given(
        st.lists(error_jobs(), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_multi_job_workloads_all_finish(self, specs, seed):
        specs = [
            make_job_spec(
                list(spec.input_phase.task_works),
                spec.bound,
                job_id=index,
                arrival=float(index),
                max_slots=spec.max_slots,
            )
            for index, spec in enumerate(specs)
        ]
        config = make_simulation_config(machines=12, stragglers=StragglerConfig(), seed=seed)
        metrics = Simulation(config, LatePolicy(), specs).run()
        assert len(metrics.results) == len(specs)
        assert all(result.duration >= 0.0 for result in metrics.results)
