"""Peer-selection topologies: full-mesh and gossip anti-entropy.

The paper's reconciliation daemon "periodically reconciles each hosted
volume replica against one remote peer, rotating around the replica
ring" (Section 3.3).  That pairwise primitive is exactly what epidemic
anti-entropy scales: *which* peer(s) a host talks to each round is a
policy separate from *how* a pairwise round works.  This module is that
policy layer — a :class:`Topology` answers "which of my peers do I
consider this tick?" for both background daemons:

* :class:`FullMeshTopology` — every peer is considered every tick and
  the daemon picks one by rotating its ring cursor.  This is the
  historical behavior, byte-identical, and remains the default; at n
  hosts a convergence sweep costs O(n) pairwise rounds per host.
* :class:`GossipTopology` — a deterministic per-``(seed, host, tick)``
  sample of ``O(log n)`` peers per tick.  Rumor-style doubling converges
  a divergent replica set in O(log n) rounds at O(log n) per-host load
  per round — the combination that makes 500-host clusters simulable
  (and, in the real world, deployable).

Every selection is a pure function of ``(seed, host, tick)`` — no
process-salted hashes, no shared RNG state — so a seeded chaos run or
benchmark replays its whole peer schedule byte-identically.
"""

from __future__ import annotations

import math
import random
import zlib
from collections.abc import Sequence

__all__ = [
    "FullMeshTopology",
    "GossipTopology",
    "TOPOLOGIES",
    "Topology",
    "make_topology",
]


def _stable_rng(seed: int, host: str, tick: int) -> random.Random:
    """A PRNG keyed only by ``(seed, host, tick)``.

    ``hash(str)`` is salted per process, which would make every run draw
    a different gossip schedule; CRC32 of the formatted key is stable
    across processes and platforms, which is what lets a chaos seed
    replay its peer schedule exactly.
    """
    return random.Random(zlib.crc32(f"{seed}|{host}|{tick}".encode()))


def log_fanout(peer_count: int) -> int:
    """The O(log n) gossip fanout for ``peer_count`` candidate peers."""
    if peer_count <= 0:
        return 0
    return min(peer_count, max(1, math.ceil(math.log2(peer_count + 1))))


class Topology:
    """Which peers a daemon considers on a given tick.

    ``select`` returns *indices* into the caller's peer list, in the
    order the daemon should try them.  ``reconcile_selected`` says what
    the reconciliation daemon does with the selection: reconcile every
    usable selected peer (gossip — the selection *is* the round's
    fanout) or only the first usable one (full mesh, where the selection
    is "everyone" and the daemon's rotating cursor provides fairness).
    """

    name = "abstract"
    #: full-mesh keeps the legacy one-peer-per-tick cursor scan
    is_full_mesh = False
    #: reconcile every usable selected peer, not just the first
    reconcile_selected = True

    def __init__(self, seed: int = 0):
        self.seed = seed

    def fanout(self, peer_count: int) -> int:
        """How many peers one tick considers out of ``peer_count``."""
        raise NotImplementedError

    def select(self, host: str, peer_hosts: Sequence[str], tick: int) -> list[int]:
        """Indices into ``peer_hosts`` to consider on ``tick``, in order."""
        raise NotImplementedError

    def sweep_ticks(self, peer_count: int) -> int:
        """Daemon ticks per host that make up one convergence round."""
        return 1

    def default_rounds(self, host_count: int) -> int:
        """Convergence-sweep rounds that suffice for ``host_count`` hosts."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seed={self.seed})"


class FullMeshTopology(Topology):
    """Every peer every tick; the daemon's ring cursor picks one.

    The historical (and default) behavior: O(n) candidate scans per tick
    and, via :meth:`sweep_ticks`, O(n) pairwise rounds per host per
    convergence sweep.  Cheap at paper scale, quadratic at cluster scale.
    """

    name = "full_mesh"
    is_full_mesh = True
    reconcile_selected = False

    def fanout(self, peer_count: int) -> int:
        return peer_count

    def select(self, host: str, peer_hosts: Sequence[str], tick: int) -> list[int]:
        return list(range(len(peer_hosts)))

    def sweep_ticks(self, peer_count: int) -> int:
        return peer_count

    def default_rounds(self, host_count: int) -> int:
        return max(2, host_count)


class GossipTopology(Topology):
    """O(log n) peers per tick, sampled deterministically per host/tick.

    Epidemic anti-entropy: each tick a host syncs a small random subset
    of its peers, and hosts that have already pulled an update become
    sources for the next tick, so coverage doubles per round.  The
    sample is drawn from a PRNG keyed by ``(seed, host, tick)`` — same
    seed, same schedule, every process.
    """

    name = "gossip"

    def fanout(self, peer_count: int) -> int:
        return log_fanout(peer_count)

    def select(self, host: str, peer_hosts: Sequence[str], tick: int) -> list[int]:
        n = len(peer_hosts)
        k = self.fanout(n)
        if not k:
            return []
        return _stable_rng(self.seed, host, tick).sample(range(n), k)

    def default_rounds(self, host_count: int) -> int:
        # c * log2(n) with headroom for unlucky samples at tiny n
        return max(4, 3 * math.ceil(math.log2(host_count + 1)))


TOPOLOGIES: dict[str, type[Topology]] = {
    FullMeshTopology.name: FullMeshTopology,
    GossipTopology.name: GossipTopology,
}


def make_topology(spec: "str | Topology | None", seed: int = 0) -> Topology:
    """Coerce a strategy name (or ``None``/instance) into a topology."""
    if spec is None:
        return FullMeshTopology(seed)
    if isinstance(spec, Topology):
        return spec
    try:
        cls = TOPOLOGIES[spec]
    except KeyError:
        raise ValueError(
            f"unknown topology {spec!r} (choose from {sorted(TOPOLOGIES)})"
        ) from None
    return cls(seed)
