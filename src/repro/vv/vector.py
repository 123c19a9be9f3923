"""Version vectors (Parker et al., IEEE TSE 1983; paper Section 3.1).

"Associated with each file replica is a version vector which encodes the
update history of the replica.  Version vectors are used to support
concurrent, unsynchronized updates to file replicas managed by
non-communicating physical layers."

A version vector maps a replica-id to the count of updates that replica has
originated.  Comparing two vectors classifies the replicas' histories:

* ``EQUAL``      — same history; nothing to do.
* ``DOMINATES``  — ours strictly includes theirs; they should pull from us.
* ``DOMINATED``  — theirs strictly includes ours; we should pull from them.
* ``CONCURRENT`` — neither includes the other: a conflicting update pair.
  For regular files this is reported to the owner; for directories Ficus
  repairs it automatically (paper Sections 1, 3.3).
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Mapping

from repro.errors import InvalidArgument


class Ordering(enum.Enum):
    """Result of comparing two version vectors (a partial order)."""

    EQUAL = "equal"
    DOMINATES = "dominates"
    DOMINATED = "dominated"
    CONCURRENT = "concurrent"


class VersionVector(Mapping[int, int]):
    """An immutable mapping replica-id -> update count.

    Zero entries are normalized away so that vectors compare by value
    regardless of which replicas happen to be mentioned explicitly.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[int, int] | None = None):
        cleaned: dict[int, int] = {}
        for rid, count in (counts or {}).items():
            if count < 0:
                raise InvalidArgument(f"negative count {count} for replica {rid}")
            if count:
                cleaned[int(rid)] = int(count)
        self._counts = cleaned

    # -- Mapping protocol --

    def __getitem__(self, rid: int) -> int:
        return self._counts.get(rid, 0)

    def __iter__(self) -> Iterator[int]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, rid: object) -> bool:
        return rid in self._counts

    # -- value semantics --

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VersionVector):
            return self._counts == other._counts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:
        inner = ",".join(f"{r}:{c}" for r, c in sorted(self._counts.items()))
        return f"vv<{inner}>"

    # -- algebra --

    def bump(self, replica_id: int, by: int = 1) -> "VersionVector":
        """Record ``by`` more updates originated at ``replica_id``."""
        if by < 0:
            raise InvalidArgument("bump must be non-negative")
        fresh = dict(self._counts)
        fresh[replica_id] = fresh.get(replica_id, 0) + by
        return VersionVector(fresh)

    def merge(self, other: "VersionVector") -> "VersionVector":
        """Pointwise maximum — the least upper bound of two histories."""
        fresh = dict(self._counts)
        for rid, count in other._counts.items():
            if count > fresh.get(rid, 0):
                fresh[rid] = count
        return VersionVector(fresh)

    def compare(self, other: "VersionVector") -> Ordering:
        """Classify the relationship of two update histories."""
        # zero counts are normalized away, so equal histories are equal
        # dicts: the common case, answered by one comparison
        if self._counts == other._counts:
            return Ordering.EQUAL
        self_ge = all(self[rid] >= count for rid, count in other._counts.items())
        other_ge = all(other[rid] >= count for rid, count in self._counts.items())
        if self_ge:
            return Ordering.DOMINATES
        if other_ge:
            return Ordering.DOMINATED
        return Ordering.CONCURRENT

    def dominates(self, other: "VersionVector") -> bool:
        """True when this history includes the other (>= pointwise)."""
        return self.compare(other) in (Ordering.EQUAL, Ordering.DOMINATES)

    def strictly_dominates(self, other: "VersionVector") -> bool:
        return self.compare(other) is Ordering.DOMINATES

    def concurrent_with(self, other: "VersionVector") -> bool:
        return self.compare(other) is Ordering.CONCURRENT

    @property
    def total_updates(self) -> int:
        """Total updates across all replicas (a coarse recency measure)."""
        return sum(self._counts.values())

    # -- serialization (stored in the auxiliary attribute file) --

    def encode(self) -> str:
        return ",".join(f"{rid}:{count}" for rid, count in sorted(self._counts.items()))

    @classmethod
    def decode(cls, text: str) -> "VersionVector":
        if not text:
            return cls()
        counts: dict[int, int] = {}
        for item in text.split(","):
            rid, _, count = item.partition(":")
            try:
                counts[int(rid)] = int(count)
            except ValueError as exc:
                raise InvalidArgument(f"bad version vector text {text!r}") from exc
        return cls(counts)
