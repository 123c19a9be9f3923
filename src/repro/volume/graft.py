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
    return sorted(out, key=lambda loc: loc.volrep.replica_id)


@dataclass
class GraftState:
    """One grafted volume: which replica is bound, and usage for pruning."""

    volume: VolumeId
    bound: ReplicaLocation
    locations: list[ReplicaLocation]
    grafted_at: float
    last_used: float
    uses: int = 0

    def touch(self, now: float) -> None:
        self.last_used = now
        self.uses += 1


class GraftTable:
    """Per-host volume location knowledge.

    Bootstraps the root volume ("Ficus does not require a replicated
    volume location database" — only the root volume's locations need
    seeding; everything else is discovered through graft points).
    """

    def __init__(self) -> None:
        self._locations: dict[VolumeId, list[ReplicaLocation]] = {}

    def learn(self, volume: VolumeId, locations: list[ReplicaLocation]) -> None:
        """Record (or refresh) the replica locations of a volume."""
        if not locations:
            raise InvalidArgument(f"no locations given for {volume}")
        self._locations[volume] = sorted(locations, key=lambda loc: loc.volrep.replica_id)

    def locations(self, volume: VolumeId) -> list[ReplicaLocation]:
        return list(self._locations.get(volume, []))

    def knows(self, volume: VolumeId) -> bool:
        return volume in self._locations

    def volumes(self) -> list[VolumeId]:
        return sorted(self._locations)


class Grafter:
    """The autograft cache of one logical layer."""

    def __init__(
        self,
        network: Network,
        host_addr: str,
        prefer_local: bool = True,
        telemetry: Telemetry | None = None,
    ):
        self.network = network
        self.host_addr = host_addr
        self.prefer_local = prefer_local
        self._grafts: dict[VolumeId, GraftState] = {}
        self.grafts_performed = 0
        self.grafts_pruned = 0
        (telemetry or NULL_TELEMETRY).metrics.add_source(
            "graft",
            lambda: {"performed": self.grafts_performed, "pruned": self.grafts_pruned},
        )

    def candidate_order(self, locations: list[ReplicaLocation]) -> list[ReplicaLocation]:
        """Deterministic preference order: local replicas first."""
        if not self.prefer_local:
            return list(locations)
        local = [loc for loc in locations if loc.host == self.host_addr]
        remote = [loc for loc in locations if loc.host != self.host_addr]
        return local + remote

    def current(self, volume: VolumeId) -> GraftState | None:
        return self._grafts.get(volume)

    def graft(self, volume: VolumeId, locations: list[ReplicaLocation]) -> GraftState:
        """Bind a reachable replica of ``volume``, reusing a live graft.

        An existing graft is kept while its bound replica stays reachable;
        otherwise the graft is re-bound (the paper's dynamic regrafting).
        """
        now = self.network.clock.now()
        state = self._grafts.get(volume)
        if state is not None:
            state.locations = list(locations) or state.locations
            if self.network.reachable(self.host_addr, state.bound.host):
                state.touch(now)
                return state
        for candidate in self.candidate_order(locations):
            if self.network.reachable(self.host_addr, candidate.host):
                state = GraftState(
                    volume=volume,
                    bound=candidate,
                    locations=list(locations),
                    grafted_at=now,
                    last_used=now,
                )
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
