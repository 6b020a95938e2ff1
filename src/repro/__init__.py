"""GRASS reproduction: trimming stragglers in approximation analytics.

A faithful, simulator-backed reproduction of *GRASS: Trimming Stragglers in
Approximation Analytics* (NSDI 2014).  The public API re-exports the pieces a
downstream user typically needs:

* job/task modelling and approximation bounds (:mod:`repro.core`),
* the GS / RAS / GRASS speculation policies (:mod:`repro.core.policies`),
* the LATE / Mantri / oracle baselines (:mod:`repro.baselines`),
* the discrete-event cluster simulator (:mod:`repro.simulator`),
* synthetic workload generation (:mod:`repro.workload`),
* the Hill estimator and Appendix A's reactive ω-policy model behind
  Figures 3–4 (:mod:`repro.model`),
* the experiment harness regenerating every figure (:mod:`repro.experiments`).

Quick start::

    from repro import (
        ApproximationBound, GrassConfig, Grass, Simulation, SimulationConfig,
        WorkloadConfig, generate_workload,
    )

    workload = generate_workload(WorkloadConfig(num_jobs=50, seed=1))
    metrics = Simulation(SimulationConfig(), Grass(), workload.specs()).run()
    print(metrics.summary())
"""

from repro.baselines import LatePolicy, MantriPolicy, NoSpeculationPolicy, OraclePolicy
from repro.core.bounds import ApproximationBound, BoundType
from repro.core.estimators import EstimatorConfig, TaskEstimator
from repro.core.job import Job, JobPhaseSpec, JobResult, JobSpec, job_bin_label
from repro.core.policies import (
    Grass,
    GrassConfig,
    GreedySpeculative,
    ResourceAwareSpeculative,
    SampleStore,
    SchedulingView,
    SpeculationPolicy,
    TaskSnapshot,
)
from repro.core.task import CopyState, Task, TaskCopy, TaskSpec, TaskState
from repro.simulator import (
    Cluster,
    ClusterConfig,
    MetricsCollector,
    Simulation,
    SimulationConfig,
    StragglerConfig,
    StragglerModel,
)
from repro.workload.synthetic import (
    GeneratedWorkload,
    SyntheticWorkloadGenerator,
    WorkloadConfig,
    generate_workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # bounds and jobs
    "ApproximationBound",
    "BoundType",
    "Job",
    "JobSpec",
    "JobPhaseSpec",
    "JobResult",
    "job_bin_label",
    "Task",
    "TaskSpec",
    "TaskCopy",
    "TaskState",
    "CopyState",
    # estimators
    "EstimatorConfig",
    "TaskEstimator",
    # policies
    "SpeculationPolicy",
    "SchedulingView",
    "TaskSnapshot",
    "GreedySpeculative",
    "ResourceAwareSpeculative",
    "Grass",
    "GrassConfig",
    "SampleStore",
    # baselines
    "LatePolicy",
    "MantriPolicy",
    "NoSpeculationPolicy",
    "OraclePolicy",
    # simulator
    "Cluster",
    "ClusterConfig",
    "Simulation",
    "SimulationConfig",
    "StragglerConfig",
    "StragglerModel",
    "MetricsCollector",
    # workload
    "WorkloadConfig",
    "SyntheticWorkloadGenerator",
    "GeneratedWorkload",
    "generate_workload",
]
