"""Discrete-event cluster simulator substrate.

This package replaces the paper's 200-node EC2 deployment: it provides the
machines, slots, straggler behaviour and event loop on which the speculation
policies (GS, RAS, GRASS and the baselines) are exercised.
"""

from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.events import EventKind, EventQueue
from repro.simulator.machine import Machine
from repro.simulator.metrics import MetricsCollector
from repro.simulator.sinks import (
    AggregateSink,
    JsonlSpillSink,
    ResultSink,
    RetainAllSink,
    SinkFactory,
    StreamingAggregates,
)
from repro.simulator.stragglers import StragglerConfig, StragglerModel

__all__ = [
    "AggregateSink",
    "Cluster",
    "ClusterConfig",
    "EventKind",
    "EventQueue",
    "JsonlSpillSink",
    "Machine",
    "MetricsCollector",
    "ResultSink",
    "RetainAllSink",
    "Simulation",
    "SimulationConfig",
    "SinkFactory",
    "StragglerConfig",
    "StragglerModel",
    "StreamingAggregates",
]
