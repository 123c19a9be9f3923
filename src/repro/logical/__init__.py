"""The Ficus logical layer: single-copy abstraction over replicas."""

from repro.logical.attr_cache import CacheStats, VersionVectorCache
from repro.logical.fabric import PHYSICAL_SERVICE, Fabric
from repro.logical.layer import (
    FicusLogicalLayer,
    FileReplicaView,
    ReplicaView,
)
from repro.logical.locks import LockManager
from repro.logical.vnodes import LogicalDirVnode, LogicalFileVnode

__all__ = [
    "CacheStats",
    "Fabric",
    "FicusLogicalLayer",
    "FileReplicaView",
    "LockManager",
    "LogicalDirVnode",
    "LogicalFileVnode",
    "PHYSICAL_SERVICE",
    "ReplicaView",
    "VersionVectorCache",
]
