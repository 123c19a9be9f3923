"""Stateless NFS transport: server exporting a vnode layer, client layer."""

from repro.nfs.client import NfsClientConfig, NfsClientLayer, NfsClientVnode
from repro.nfs.protocol import DROPPED_OPERATIONS, LookupReply, NfsHandle
from repro.nfs.server import NfsServer

__all__ = [
    "DROPPED_OPERATIONS",
    "LookupReply",
    "NfsClientConfig",
    "NfsClientLayer",
    "NfsClientVnode",
    "NfsHandle",
    "NfsServer",
]
