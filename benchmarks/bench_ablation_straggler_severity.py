"""Ablation: GRASS's gains as a function of straggler-tail severity.

Guideline 1 says speculation only pays off when task durations are heavy
tailed (β < 2).  This ablation sweeps the straggler tail from light to severe
and reports GRASS's error-bound speedup over LATE; the gain should grow with
tail heaviness.
"""

from benchmarks.conftest import bench_scale
from repro.baselines import LatePolicy
from repro.core.policies import Grass, GrassConfig
from repro.experiments.runner import build_simulation_config, improvement_in_duration
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.stragglers import StragglerConfig
from repro.utils.stats import mean
from repro.workload.synthetic import WorkloadConfig, generate_workload

TAILS = {
    "light (beta=1.8)": StragglerConfig.light(),
    "production (beta=1.259)": StragglerConfig(),
    "severe (beta=1.1)": StragglerConfig.severe(),
}


def _run_ablation():
    scale = bench_scale()
    workload = generate_workload(
        WorkloadConfig(
            bound_kind="error",
            num_jobs=scale.num_jobs,
            size_scale=scale.size_scale,
            max_tasks_per_job=scale.max_tasks_per_job,
            seed=32,
        )
    )
    base = build_simulation_config(workload, scale, seed=2)
    rows = []
    for label, stragglers in TAILS.items():
        config = SimulationConfig(
            cluster=base.cluster,
            stragglers=stragglers,
            estimator=base.estimator,
            seed=base.seed,
        )
        late = Simulation(config, LatePolicy(), workload.specs()).run()
        grass = Simulation(config, Grass(GrassConfig(seed=2)), workload.specs()).run()
        late_duration = mean([r.duration for r in late.error_results()])
        grass_duration = mean([r.duration for r in grass.error_results()])
        rows.append(
            {
                "tail": label,
                "late": late_duration,
                "grass": grass_duration,
                "speedup (%)": improvement_in_duration(late_duration, grass_duration),
            }
        )
    return rows


def test_ablation_straggler_severity(benchmark):
    rows = benchmark.pedantic(_run_ablation, rounds=1, iterations=1)
    print()
    for row in rows:
        print(
            f"tail={row['tail']:<26} late={row['late']:8.1f}s grass={row['grass']:8.1f}s "
            f"speedup={row['speedup (%)']:6.1f}%"
        )
    assert len(rows) == 3
