"""Volumes, graft points and autografting (paper Section 4).

The Ficus name space is a DAG of volumes.  A *graft point* is a special
replicated directory that says "volume V belongs here" and lists, as
ordinary directory entries, the ⟨volume replica, storage site⟩ pairs where
V's replicas live.  Because those location records are plain directory
entries, "implicit use of the Ficus directory reconciliation mechanism"
keeps them consistent — no special code.

Autografting (Section 4.4): when pathname translation hits a graft point,
the logical layer checks whether a suitable volume replica is already
grafted; if not it uses the graft point's location entries to find and
graft one.  Grafts are dynamic — "a graft that is no longer needed is
quietly pruned at a later time."

What a host knows of a volume's replicas lives in one place, its
:class:`GraftTable`: seeded with the root volume, taught every volume the
host stores a replica of when the replica is placed, and every volume
whose graft point it crosses.  The grafter binds from it; the logical
layer's replica selection and update notification and the reconciliation
daemon's peer set read it, and none keeps a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AllReplicasUnavailable, InvalidArgument
from repro.net import Network
from repro.physical.wire import DirectoryEntry, EntryType
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.util import VolumeId, VolumeReplicaId

#: Name prefix of a location entry inside a graft point.
LOCATION_PREFIX = "rep:"


@dataclass(frozen=True)
class ReplicaLocation:
    """One ⟨volume replica, storage site⟩ pair."""

    volrep: VolumeReplicaId
    host: str


def _replica_order(location: ReplicaLocation) -> int:
    return location.volrep.replica_id


def location_entry_name(replica_id: int) -> str:
    return f"{LOCATION_PREFIX}{replica_id}"


def locations_from_entries(
    volume: VolumeId, entries: list[DirectoryEntry]
) -> list[ReplicaLocation]:
    """Extract volume-replica locations from graft-point entries."""
    out = []
    for entry in entries:
        if not entry.live or entry.etype != EntryType.LOCATION:
            continue
        if not entry.name.startswith(LOCATION_PREFIX):
            continue
        try:
            replica_id = int(entry.name[len(LOCATION_PREFIX) :])
        except ValueError:
            continue
        out.append(ReplicaLocation(VolumeReplicaId(volume, replica_id), entry.data))
    return sorted(out, key=_replica_order)


@dataclass
class GraftState:
    """One grafted volume: which replica is bound, and usage for pruning."""

    volume: VolumeId
    bound: ReplicaLocation
    grafted_at: float
    last_used: float
    uses: int = 0

    def touch(self, now: float) -> None:
        self.last_used = now
        self.uses += 1


class GraftTable:
    """Per-host volume location knowledge: the host's one record of which
    replicas each volume has.

    Bootstraps the root volume ("Ficus does not require a replicated
    volume location database" — only the root volume's locations need
    seeding).  A host learns every other volume it stores a replica of
    when the replica is placed, and any volume by crossing its graft
    point.  Replica selection, update notification, grafting and the
    reconciliation daemon's peer set all read this record.

    Each volume's locations are kept as a tuple sorted by replica id and
    a second tuple in this host's preference order (local replicas
    first), both built once per :meth:`learn` and returned uncopied.
    """

    def __init__(self, host_addr: str) -> None:
        self.host_addr = host_addr
        self._locations: dict[VolumeId, tuple[ReplicaLocation, ...]] = {}
        self._candidates: dict[VolumeId, tuple[ReplicaLocation, ...]] = {}

    def learn(self, volume: VolumeId, locations: list[ReplicaLocation]) -> None:
        """Add (or move) replica locations of a volume.

        A location replaces the one known under its volume replica id;
        the others stay — a host never forgets a replica because one
        source named fewer.
        """
        if not locations:
            raise InvalidArgument(f"no locations given for {volume}")
        known = {loc.volrep: loc for loc in self._locations.get(volume, ())}
        known.update((loc.volrep, loc) for loc in locations)
        ordered = tuple(sorted(known.values(), key=_replica_order))
        self._locations[volume] = ordered
        # a stable sort keeps replica order within the local and remote runs
        self._candidates[volume] = tuple(sorted(ordered, key=lambda loc: loc.host != self.host_addr))

    def locations(self, volume: VolumeId) -> tuple[ReplicaLocation, ...]:
        """The known replicas of ``volume`` by replica id (empty if unknown)."""
        return self._locations.get(volume, ())

    def candidates(self, volume: VolumeId) -> tuple[ReplicaLocation, ...]:
        """The known replicas of ``volume``, this host's first."""
        return self._candidates.get(volume, ())

    def peers(self, volrep: VolumeReplicaId) -> tuple[ReplicaLocation, ...]:
        """The other known replicas of ``volrep``'s volume, by replica id."""
        return tuple(loc for loc in self.locations(volrep.volume) if loc.volrep != volrep)

    def knows(self, volume: VolumeId) -> bool:
        return volume in self._locations

    def volumes(self) -> list[VolumeId]:
        return sorted(self._locations)


class Grafter:
    """The autograft cache of one logical layer."""

    def __init__(self, network: Network, table: GraftTable, telemetry: Telemetry | None = None):
        self.network = network
        self.host_addr = table.host_addr
        self.table = table
        self._grafts: dict[VolumeId, GraftState] = {}
        self.grafts_performed = 0
        self.grafts_pruned = 0
        (telemetry or NULL_TELEMETRY).metrics.add_source(
            "graft",
            lambda: {"performed": self.grafts_performed, "pruned": self.grafts_pruned},
        )

    def current(self, volume: VolumeId) -> GraftState | None:
        return self._grafts.get(volume)

    def graft(self, volume: VolumeId) -> GraftState:
        """Bind a reachable replica of ``volume``, reusing a live graft.

        An existing graft is kept while its bound replica stays reachable;
        otherwise the graft is re-bound (the paper's dynamic regrafting)
        to the first reachable replica the graft table offers.
        """
        now = self.network.clock.now()
        state = self._grafts.get(volume)
        if state is not None and self.network.reachable(self.host_addr, state.bound.host):
            state.touch(now)
            return state
        for candidate in self.table.candidates(volume):
            if self.network.reachable(self.host_addr, candidate.host):
                state = GraftState(volume=volume, bound=candidate, grafted_at=now, last_used=now)
                state.touch(now)
                self._grafts[volume] = state
                self.grafts_performed += 1
                return state
        raise AllReplicasUnavailable(f"no reachable replica of {volume}")

    def ungraft(self, volume: VolumeId) -> None:
        if self._grafts.pop(volume, None) is not None:
            self.grafts_pruned += 1

    def prune(self, idle_timeout: float) -> int:
        """Quietly drop grafts unused for ``idle_timeout`` seconds."""
        now = self.network.clock.now()
        stale = [
            volume
            for volume, state in self._grafts.items()
            if now - state.last_used >= idle_timeout
        ]
        for volume in stale:
            del self._grafts[volume]
        self.grafts_pruned += len(stale)
        return len(stale)

    @property
    def active_grafts(self) -> int:
        return len(self._grafts)
