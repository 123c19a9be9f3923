"""The development methodology of paper Section 5.

"The vnode interface normally accessible only inside the kernel has been
'exposed' to the application level ... we customized a copy of the NFS
server daemon code to run outside of the kernel as the interface to the
Ficus layers. ... Today, Ficus layers may be compiled for application
level or kernel resident execution merely by setting a switch."

The analogue here: any vnode layer can run *in-process* ("kernel
resident") or behind an NFS server in a separate simulated address space
("application level"), chosen by one switch.  The returned stacks are
interchangeable — which is the whole point — and
:func:`measure_crossing_penalty` quantifies the address-space-crossing
cost the paper says "complicates performance measurements and analysis".
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.net import Network
from repro.nfs import NfsClientConfig, NfsClientLayer, NfsServer
from repro.vnode.interface import FileSystemLayer

#: Address suffixes for the two simulated address spaces.
_KERNEL_SIDE = "-kernel"
_USER_SIDE = "-user"


def externalize(
    layer: FileSystemLayer,
    network: Network,
    name: str = "devlayer",
) -> NfsClientLayer:
    """Run ``layer`` at "application level": export it through an NFS
    server in its own simulated address space and return an equivalent
    layer reached through the NFS client.

    The caller's code cannot tell the difference (same vnode interface),
    except for the crossing cost — exactly the Section 5 setup.
    """
    server_addr = f"{name}{_USER_SIDE}"
    client_addr = f"{name}{_KERNEL_SIDE}"
    if not network.has_host(server_addr):
        network.add_host(server_addr)
    if not network.has_host(client_addr):
        network.add_host(client_addr)
    NfsServer(network, server_addr, layer, service=f"devel.{name}")
    return NfsClientLayer(
        network,
        client_addr,
        server_addr,
        service=f"devel.{name}",
        config=NfsClientConfig(cache_ttl=0),
    )


def build_switchable(
    layer_factory,
    user_level: bool,
    network: Network | None = None,
    name: str = "devlayer",
) -> FileSystemLayer:
    """The paper's 'switch': the same layer, in-kernel or at user level.

    ``layer_factory`` builds the layer under test; with ``user_level``
    False it is returned as-is (kernel resident), with True it is placed
    behind an out-of-kernel NFS server.
    """
    layer = layer_factory()
    if not user_level:
        return layer
    return externalize(layer, network or Network(), name=name)


@dataclass
class CrossingPenalty:
    """Measured cost of moving a layer out of the kernel."""

    kernel_seconds_per_op: float
    user_seconds_per_op: float

    @property
    def factor(self) -> float:
        if self.kernel_seconds_per_op == 0:
            return float("inf")
        return self.user_seconds_per_op / self.kernel_seconds_per_op


def measure_crossing_penalty(layer_factory, ops: int = 2000) -> CrossingPenalty:
    """Time the same getattr workload against both execution modes."""

    def time_mode(user_level: bool) -> float:
        layer = build_switchable(layer_factory, user_level, name=f"bench{int(user_level)}")
        root = layer.root()
        probe = root.create("probe")
        probe.write(0, b"x")
        target = root.lookup("probe")
        start = time.perf_counter()
        for _ in range(ops):
            target.getattr()
        return (time.perf_counter() - start) / ops

    return CrossingPenalty(
        kernel_seconds_per_op=time_mode(False),
        user_seconds_per_op=time_mode(True),
    )
