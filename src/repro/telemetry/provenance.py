"""The provenance plane: per-host version ledgers and the cross-replica DAG.

The flight recorder answers "what did this host just do"; this module
answers the paper's harder operational question — *which replica's update
produced this version, and what conflicted with it?*  Every event that
mints or installs a file version (a write bumping the version vector, a
resolver merge, a manual resolution, a propagation pull) appends one
bounded-ring entry to the host's :class:`ProvenanceLedger`.  The ledgers
of several hosts compose on demand into a :class:`VersionDAG`:

* **nodes** are minted versions, keyed by ``(fh, version vector)`` —
  the version vector *is* the identity of a version, so two hosts that
  committed the same resolver merge contribute the same node;
* **edges** are causal parents — the vv the write replaced, the two
  inputs of a merge, the local vv a pull superseded (with the sync
  origin host annotated on the pull event).

Invariants the test suite holds the plane to:

* every live ``(fh, vv)`` pair in a store has a ledger node (while the
  minting event is within ring retention);
* merge/resolve nodes have >= 2 distinct parents;
* the DAG is a pure function of the event *set* — composing the same
  ledgers in any order yields the same graph.

Directory version vectors are deliberately excluded: directories converge
by entry-set algebra (insert/delete replay), not by version lineage, so
their vvs carry no per-version provenance.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.vv import VersionVector

#: ring capacity of the per-host provenance ledger
PROVENANCE_RING_CAPACITY = 1024

#: event kinds that mint a version (as opposed to installing an existing one)
MINT_KINDS = frozenset({"create", "write", "merge", "resolve"})


@dataclass(frozen=True)
class ProvEvent:
    """One provenance ledger entry: a version minted or installed."""

    at: float
    host: str
    #: "create" | "write" | "merge" | "resolve" | "pull"
    kind: str
    #: logical file handle, hex
    fh: str
    #: encoded version vector AFTER the event ("" = the genesis version)
    vv: str
    #: encoded parent version vectors (prior vv; merge inputs)
    parents: tuple[str, ...] = ()
    #: sync origin host for pulls ("" otherwise)
    origin: str = ""
    #: free-form annotation: op name, resolver tag, ...
    detail: str = ""
    #: "trace_id:span_id" of the originating operation, when traced
    trace: str = ""

    def to_dict(self) -> dict:
        out = {
            "at": self.at,
            "host": self.host,
            "kind": self.kind,
            "fh": self.fh,
            "vv": self.vv,
            "parents": list(self.parents),
        }
        if self.origin:
            out["origin"] = self.origin
        if self.detail:
            out["detail"] = self.detail
        if self.trace:
            out["trace"] = self.trace
        return out

    @classmethod
    def from_dict(cls, rec: dict) -> "ProvEvent":
        return cls(
            at=float(rec.get("at", 0.0)),
            host=rec.get("host", ""),
            kind=rec.get("kind", ""),
            fh=rec.get("fh", ""),
            vv=rec.get("vv", ""),
            parents=tuple(rec.get("parents", ())),
            origin=rec.get("origin", ""),
            detail=rec.get("detail", ""),
            trace=rec.get("trace", ""),
        )


class ProvenanceLedger:
    """Always-on bounded ring of version events for one host.

    ``record`` runs on the version-vector hot path (every write bump), so
    an entry is one plain-tuple deque append: the file handle, version
    vector, and parents may arrive as the raw **immutable** objects and
    are hex/string-encoded lazily when a query materializes
    :class:`ProvEvent`\\ s.
    """

    def __init__(
        self,
        host: str,
        capacity: int = PROVENANCE_RING_CAPACITY,
        clock: Callable[[], float] | None = None,
    ):
        self.host = host
        self.capacity = capacity
        self._clock = clock
        #: raw (at, kind, fh, vv, parents, origin, detail, trace) tuples;
        #: fh/vv/parents are encoded strings OR the immutable originals
        self.ring: deque[tuple] = deque(maxlen=capacity)
        #: events evicted from the ring since boot (coverage accounting)
        self.evicted = 0

    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def record(
        self,
        kind: str,
        fh,
        vv,
        parents: tuple = (),
        origin: str = "",
        detail: str = "",
        trace: str = "",
    ) -> None:
        """Ledger one version event.

        ``fh`` is a hex string or an id object with ``to_hex``; ``vv``
        and each parent are encoded strings or ``VersionVector``\\ s.
        Raw objects are preferred on hot paths — they defer the string
        work to query time.
        """
        if len(self.ring) == self.capacity:
            self.evicted += 1
        self.ring.append((self.now(), kind, fh, vv, parents, origin, detail, trace))

    @staticmethod
    def _hex(fh) -> str:
        return fh if isinstance(fh, str) else fh.to_hex()

    @staticmethod
    def _enc(vv) -> str:
        return vv if isinstance(vv, str) else vv.encode()

    def _materialize(self, raw: tuple) -> ProvEvent:
        at, kind, fh, vv, parents, origin, detail, trace = raw
        return ProvEvent(
            at=at,
            host=self.host,
            kind=kind,
            fh=self._hex(fh),
            vv=self._enc(vv),
            parents=tuple(self._enc(p) for p in parents),
            origin=origin,
            detail=detail,
            trace=trace,
        )

    def events(self, fh: str | None = None) -> list[ProvEvent]:
        out = [self._materialize(raw) for raw in self.ring]
        if fh is not None:
            out = [event for event in out if event.fh == fh]
        return out

    def snapshot(self) -> list[dict]:
        """The ring as plain dicts (for flight dumps and fingerprints)."""
        return [event.to_dict() for event in self.events()]


@dataclass
class VersionNode:
    """One minted version in the composed DAG."""

    fh: str
    vv: str
    #: encoded parent vvs (union over all events naming this version)
    parents: set[str] = field(default_factory=set)
    #: hosts that minted or installed this version
    hosts: set[str] = field(default_factory=set)
    #: every ledger event that named this version
    events: list[ProvEvent] = field(default_factory=list)

    @property
    def kinds(self) -> set[str]:
        return {event.kind for event in self.events}

    @property
    def is_merge(self) -> bool:
        return bool(self.kinds & {"merge", "resolve"})

    def minted_by(self) -> list[tuple[str, float, str]]:
        """(host, at, kind) for events that *minted* this version."""
        return [
            (event.host, event.at, event.kind)
            for event in self.events
            if event.kind in MINT_KINDS
        ]

    def to_dict(self) -> dict:
        return {
            "fh": self.fh,
            "vv": self.vv,
            "parents": sorted(self.parents),
            "hosts": sorted(self.hosts),
            "kinds": sorted(self.kinds),
            "events": [event.to_dict() for event in self.events],
        }


def _vv_glb(a: VersionVector, b: VersionVector) -> VersionVector:
    """Pointwise minimum — the greatest lower bound of two histories."""
    return VersionVector({rid: min(a[rid], b[rid]) for rid in a if rid in b})


class VersionDAG:
    """The cross-replica version DAG composed from per-host ledgers.

    Purely derived state: feed it any iterable of events (live ledgers,
    flight-dump ``prov`` records, a mix of both) and query.  Composition
    is order-independent — nodes are keyed by ``(fh, vv)`` and events
    accumulate into them.
    """

    def __init__(self):
        self.nodes: dict[tuple[str, str], VersionNode] = {}

    # -- composition -------------------------------------------------------

    def add_event(self, event: ProvEvent) -> None:
        node = self.nodes.get((event.fh, event.vv))
        if node is None:
            node = VersionNode(fh=event.fh, vv=event.vv)
            self.nodes[(event.fh, event.vv)] = node
        node.parents.update(p for p in event.parents if p != event.vv)
        node.hosts.add(event.host)
        node.events.append(event)
        # parents are versions too, even if their minting event was never
        # seen (evicted ring, foreign host not dumped): materialize stubs
        # so lineage walks terminate at a real node
        for parent in event.parents:
            if parent != event.vv and (event.fh, parent) not in self.nodes:
                self.nodes[(event.fh, parent)] = VersionNode(fh=event.fh, vv=parent)

    def add_events(self, events: Iterable[ProvEvent]) -> "VersionDAG":
        for event in events:
            self.add_event(event)
        return self

    @classmethod
    def compose(cls, ledgers: Iterable[ProvenanceLedger]) -> "VersionDAG":
        dag = cls()
        for ledger in ledgers:
            dag.add_events(ledger.events())
        return dag

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "VersionDAG":
        """Build from plain dicts (flight-dump ``prov`` lines)."""
        return cls().add_events(ProvEvent.from_dict(rec) for rec in records)

    # -- basic queries -----------------------------------------------------

    def file_handles(self) -> list[str]:
        return sorted({fh for fh, _ in self.nodes})

    def nodes_for(self, fh: str) -> list[VersionNode]:
        """All versions of one file, oldest history first.

        The sort key (total update count, encoded vv) is a linear
        extension of the vv partial order, so parents always precede
        children.
        """
        nodes = [node for (node_fh, _), node in self.nodes.items() if node_fh == fh]
        return sorted(
            nodes, key=lambda n: (VersionVector.decode(n.vv).total_updates, n.vv)
        )

    def node(self, fh: str, vv: str) -> VersionNode | None:
        return self.nodes.get((fh, vv))

    def heads(self, fh: str) -> list[VersionNode]:
        """Versions of ``fh`` that no other version descends from."""
        parents: set[str] = set()
        nodes = self.nodes_for(fh)
        for node in nodes:
            parents.update(node.parents)
        return [node for node in nodes if node.vv not in parents]

    # -- the three operator queries ---------------------------------------

    def lineage(self, fh: str) -> list[VersionNode]:
        """The full version history of one file, oldest first."""
        return self.nodes_for(fh)

    def who_wrote(self, fh: str, vv: str) -> list[tuple[str, float, str]]:
        """(host, at, kind) of the events that minted version ``vv``."""
        node = self.nodes.get((fh, vv))
        return node.minted_by() if node is not None else []

    def feeds_of_conflict(self, fh: str) -> dict[str, list[ProvEvent]]:
        """The exact cross-host write set feeding each conflict branch.

        The branches are the concurrent heads of ``fh`` — or, when the
        conflict was already auto-resolved (a single merge head), the
        merge node's parents.  For each branch B the feed set is every
        minting event ``e`` with ``e.vv <= B`` and *not* ``e.vv <= glb``
        (the branches' greatest lower bound): the writes that distinguish
        the branch from the last common ancestor.  Returns
        ``{branch vv: [events]}``; empty when the file has no conflict.
        """
        heads = self.heads(fh)
        branches: list[str] = []
        if len(heads) >= 2:
            branches = [head.vv for head in heads]
        elif len(heads) == 1 and heads[0].is_merge and len(heads[0].parents) >= 2:
            branches = sorted(heads[0].parents)
        if len(branches) < 2:
            return {}
        decoded = [VersionVector.decode(b) for b in branches]
        glb = decoded[0]
        for other in decoded[1:]:
            glb = _vv_glb(glb, other)
        feeds: dict[str, list[ProvEvent]] = {}
        mint_events = [
            event
            for node in self.nodes_for(fh)
            for event in node.events
            if event.kind in MINT_KINDS
        ]
        for branch, branch_vv in zip(branches, decoded):
            feeds[branch] = [
                event
                for event in mint_events
                if branch_vv.dominates(VersionVector.decode(event.vv))
                and not glb.dominates(VersionVector.decode(event.vv))
            ]
        return feeds

    # -- export ------------------------------------------------------------

    def to_jsonl(self, fh: str | None = None) -> list[str]:
        """One JSON object per node, lineage order."""
        handles = [fh] if fh is not None else self.file_handles()
        return [
            json.dumps(node.to_dict())
            for handle in handles
            for node in self.nodes_for(handle)
        ]

    def to_dot(self, fh: str | None = None) -> str:
        """Graphviz rendering: boxes are versions, edges point at parents."""
        handles = [fh] if fh is not None else self.file_handles()
        lines = ["digraph provenance {", "  rankdir=BT;", '  node [shape=box, fontsize=10];']
        for handle in handles:
            for node in self.nodes_for(handle):
                name = f'"{node.fh}@{node.vv or "genesis"}"'
                kinds = ",".join(sorted(node.kinds)) or "?"
                hosts = ",".join(sorted(node.hosts)) or "?"
                shape = ', style=filled, fillcolor="khaki"' if node.is_merge else ""
                lines.append(
                    f'  {name} [label="{node.vv or "genesis"}\\n{kinds} @ {hosts}"{shape}];'
                )
                for parent in sorted(node.parents):
                    lines.append(f'  {name} -> "{node.fh}@{parent or "genesis"}";')
        lines.append("}")
        return "\n".join(lines)


def compose_system_dag(system) -> VersionDAG:
    """The cluster-wide DAG of a live :class:`~repro.sim.FicusSystem`."""
    ledgers = []
    for name in sorted(system.hosts):
        plane = system.host(name).health_plane
        if plane is not None:
            ledgers.append(plane.provenance)
    return VersionDAG.compose(ledgers)
