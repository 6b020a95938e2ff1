"""Ablation: how estimator accuracy affects RAS/GRASS gains (DESIGN.md §5).

The paper's prototypes achieve ~72 % / 76 % estimator accuracy (§5.1) and
GRASS uses the realised accuracy as a switching factor.  This ablation runs
the same workload with a perfect, a default and a heavily degraded estimator
and reports the error-bound speedup over LATE for each, showing how much of
the gain survives bad estimates.
"""

from benchmarks.conftest import bench_scale
from repro.core.estimators import EstimatorConfig
from repro.core.policies import ResourceAwareSpeculative
from repro.baselines import LatePolicy
from repro.experiments.runner import build_simulation_config, improvement_in_duration
from repro.simulator.engine import Simulation, SimulationConfig
from repro.utils.stats import mean
from repro.workload.synthetic import WorkloadConfig, generate_workload

ESTIMATORS = {
    "perfect": EstimatorConfig.perfect(),
    "default": EstimatorConfig(),
    "degraded-4x": EstimatorConfig.degraded(4.0),
}


def _run_ablation():
    scale = bench_scale()
    workload = generate_workload(
        WorkloadConfig(
            bound_kind="error",
            num_jobs=scale.num_jobs,
            size_scale=scale.size_scale,
            max_tasks_per_job=scale.max_tasks_per_job,
            seed=31,
        )
    )
    rows = []
    base_config = build_simulation_config(workload, scale, seed=1)
    late = Simulation(base_config, LatePolicy(), workload.specs()).run()
    late_duration = mean([r.duration for r in late.error_results()])
    for label, estimator in ESTIMATORS.items():
        config = SimulationConfig(
            cluster=base_config.cluster,
            stragglers=base_config.stragglers,
            estimator=estimator,
            seed=base_config.seed,
        )
        metrics = Simulation(config, ResourceAwareSpeculative(), workload.specs()).run()
        duration = mean([r.duration for r in metrics.error_results()])
        rows.append(
            {
                "estimator": label,
                "avg duration": duration,
                "speedup vs late (%)": improvement_in_duration(late_duration, duration),
            }
        )
    return rows


def test_ablation_estimator_accuracy(benchmark):
    rows = benchmark.pedantic(_run_ablation, rounds=1, iterations=1)
    print()
    for row in rows:
        print(
            f"estimator={row['estimator']:<12} avg_duration={row['avg duration']:8.1f}s "
            f"speedup_vs_late={row['speedup vs late (%)']:6.1f}%"
        )
    perfect = next(r for r in rows if r["estimator"] == "perfect")
    degraded = next(r for r in rows if r["estimator"] == "degraded-4x")
    # Better estimates must never make speculation slower in aggregate.
    assert perfect["avg duration"] <= degraded["avg duration"] * 1.15
