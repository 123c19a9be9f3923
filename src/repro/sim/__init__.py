"""Simulation harness: event loop, daemons, and whole-cluster builder."""

from repro.sim.cluster import DaemonConfig, FicusHost, FicusSystem, HostConfig
from repro.sim.daemons import (
    GraftPruneDaemon,
    PropagationDaemon,
    PropagationStats,
    ReconciliationDaemon,
    ReconStats,
)
from repro.sim.events import EventLoop
from repro.sim.topology import (
    TOPOLOGIES,
    FullMeshTopology,
    GossipTopology,
    Topology,
    make_topology,
)

__all__ = [
    "DaemonConfig",
    "EventLoop",
    "FicusHost",
    "FicusSystem",
    "FullMeshTopology",
    "GossipTopology",
    "GraftPruneDaemon",
    "HostConfig",
    "PropagationDaemon",
    "PropagationStats",
    "ReconStats",
    "ReconciliationDaemon",
    "TOPOLOGIES",
    "Topology",
    "make_topology",
]
