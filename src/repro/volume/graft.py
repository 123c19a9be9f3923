"""Volumes, graft points and autografting (paper Section 4).

The Ficus name space is a DAG of volumes.  A *graft point* is a special
replicated directory that says "volume V belongs here" and lists, as
ordinary directory entries, the ⟨volume replica, storage site⟩ pairs where
V's replicas live.  Because those location records are plain directory
entries, "implicit use of the Ficus directory reconciliation mechanism"
keeps them consistent — no special code.

Autografting (Section 4.4): when pathname translation hits a graft point,
the logical layer reads the graft point's location entries into the
host's graft table, and the first access that needs a replica of the
volume grafts it.  A graft is the root of a volume replica that the
host's :class:`~repro.logical.fabric.Fabric` keeps.  Grafts are dynamic —
"a graft that is no longer needed is quietly pruned at a later time":
the fabric drops a root nobody asked for lately and fetches it again on
demand.

What a host knows of a volume's replicas lives in one place, its
:class:`GraftTable`: seeded with the root volume, taught every volume the
host stores a replica of when the replica is placed, and every volume
whose graft point it crosses.  The logical layer's replica selection and
update notification and the reconciliation daemon's peer set read it,
and none keeps a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidArgument
from repro.physical.wire import DirectoryEntry, EntryType
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


class GraftTable:
    """Per-host volume location knowledge: the host's one record of which
    replicas each volume has.

    Bootstraps the root volume ("Ficus does not require a replicated
    volume location database" — only the root volume's locations need
    seeding).  A host learns every other volume it stores a replica of
    when the replica is placed, and any volume by crossing its graft
    point.  Replica selection, update notification, autografting and the
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
