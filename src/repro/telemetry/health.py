"""The consistency observability plane: health gauges and a flight recorder.

One-copy availability means replicas *will* silently diverge during
partitions (paper Section 2.4); reconciliation eventually repairs them,
but between the partition and the repair an operator has no live answer
to "how stale is this replica right now, and is anything wrong?"  This
module maintains that answer per host:

* **Divergence suspicion** — keyed by ``(volume, peer host)``.  Raised
  the moment an update notification cannot reach a replica-storing host
  (the updating side *knows* that peer missed the write) and when a
  reconciliation attempt against a peer aborts; cleared when a
  reconciliation round with that peer completes.  A completed round
  turns unknown divergence into known state: either the replicas agree
  or a conflict is on record in the conflict log.
* **Staleness ticks** — per peer, recon-daemon ticks since the last
  completed round with that peer.  Grows under partition, resets to
  zero on the first successful round after heal.
* **Notes pending** — the new-version cache depth: updates heard about
  but not yet pulled.
* **Peer health** — one :class:`PeerHealth` per host: the peers that
  keep failing while reachable, which both daemons and replica selection
  route around, and which every rendering of the host's health names.

All state lives in plain Python (the plane works with telemetry
disabled); the deployment's :class:`~repro.telemetry.Telemetry` hub views
the same numbers as gauges named ``health.divergence_suspected.<host>``,
``health.notes_pending.<host>`` and ``health.staleness_ticks.<host>.<peer>``.

The :class:`FlightRecorder` is the always-on black box: a bounded ring
of recent vnode operations (with their trace ids) that snapshots itself
— ring, the host's :class:`HostHealth` record, metrics, provenance
ledger — whenever an anomaly fires (conflict detected, ambiguous
non-idempotent timeout, pull digest mismatch, fsck violation,
chaos-oracle failure), turning "seed 23 diverged" into a replayable
evidence bundle.
"""

from __future__ import annotations

import json
import os
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field

from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.provenance import ProvenanceLedger
from repro.telemetry.trace import TraceContext

#: ring capacity of the per-host flight recorder
FLIGHT_RING_CAPACITY = 256
#: anomaly snapshots retained in memory per host
MAX_RETAINED_DUMPS = 8
#: recon outcomes retained for dumps and the facade
MAX_RECON_OUTCOMES = 8
#: the most consecutive considerations a degraded peer is skipped for
MAX_SKIPS = 4


@dataclass
class HostHealth:
    """Structured result of :meth:`repro.sim.FicusHost.health`."""

    host: str
    up: bool = True
    #: the peer-selection strategy this host's daemons run
    topology: str = "full_mesh"
    #: new-version cache depth: updates heard about but not yet pulled
    notes_pending: int = 0
    #: peer -> recon ticks since the last completed round with it
    staleness_ticks: dict[str, int] = field(default_factory=dict)
    #: peer -> virtual seconds since the last completed round with it —
    #: the wall-clock staleness SLO signal ("no replica serves data older
    #: than T seconds after heal")
    staleness_seconds: dict[str, float] = field(default_factory=dict)
    #: volume (hex) -> peers suspected of holding diverged state
    suspected: dict[str, list[str]] = field(default_factory=dict)
    #: peers the daemons and replica selection currently route around
    #: (flapping)
    degraded_peers: list[str] = field(default_factory=list)
    #: anomaly kind -> times fired since boot
    anomalies: dict[str, int] = field(default_factory=dict)
    #: most recent reconciliation outcomes, oldest first
    last_recon: list[dict] = field(default_factory=list)
    #: conflicts this host merged automatically since boot
    resolver_auto_resolved: int = 0
    #: conflicts a resolver covered but had to hand to the owner
    resolver_fallback_manual: int = 0

    @property
    def divergence_suspected(self) -> bool:
        return bool(self.suspected)

    def suspected_volumes(self) -> list[str]:
        return sorted(self.suspected)

    @property
    def max_staleness(self) -> int:
        return max(self.staleness_ticks.values(), default=0)

    @property
    def max_staleness_seconds(self) -> float:
        return max(self.staleness_seconds.values(), default=0.0)


class PeerHealth:
    """Consecutive-failure tracking for flapping peers: one per host, on
    its :class:`HealthPlane`, shared by both daemons and replica selection.

    A peer that keeps failing *while reachable* (transient RPC faults, a
    lossy link) is marked degraded: the next ``min(2^(failures-1),
    MAX_SKIPS)`` considerations of that peer are skipped, so a periodic
    round routes around it instead of stalling on retries every tick.
    Partitioned or crashed peers are NOT penalized — unreachability is
    detected for free and is the normal state reconciliation exists for.
    The skip budget is tick-based, not wall-clock-based, so a quiescent
    system converges after a bounded number of rounds regardless of how
    virtual time advances.
    """

    def __init__(self):
        self._failures: dict[str, int] = {}
        self._skips_left: dict[str, int] = {}
        #: bumped wherever :meth:`is_degraded` may flip for some host, so a
        #: replica selection made at one epoch holds while it does
        self.epoch = 0

    def record_failure(self, host: str) -> None:
        failures = self._failures.get(host, 0) + 1
        self._failures[host] = failures
        self._skips_left[host] = min(MAX_SKIPS, 2 ** (failures - 1))
        self.epoch += 1

    def record_success(self, host: str) -> None:
        self._failures.pop(host, None)
        if self._skips_left.pop(host, 0) > 0:
            self.epoch += 1

    def should_skip(self, host: str) -> bool:
        """Consume one skip credit for ``host`` if any remain."""
        left = self._skips_left.get(host, 0)
        if left <= 0:
            return False
        self._skips_left[host] = left - 1
        if left == 1:
            self.epoch += 1
        return True

    def is_degraded(self, host: str) -> bool:
        return self._skips_left.get(host, 0) > 0

    def degraded_hosts(self) -> list[str]:
        return [host for host, left in self._skips_left.items() if left > 0]

    def reset(self) -> None:
        """Forget all history (e.g. after faults are known to have ceased)."""
        self._failures.clear()
        self._skips_left.clear()
        self.epoch += 1


class FlightRecorder:
    """Bounded ring of recent operations plus anomaly snapshots.

    ``record`` must stay cheap — it runs on every vnode operation — so a
    ring entry is one small tuple ``(at, op, target, trace)``.  Like the
    provenance ledger, ``target`` may be the raw **immutable** object —
    a file handle, or a ``(src, handle)`` pair for a heard notification —
    and is rendered to its string only when a snapshot freezes the ring.
    When an anomaly fires the whole ring is frozen into a snapshot dict
    together with whatever ``context`` supplies (the health record,
    metrics, the provenance ledger); snapshots are retained in memory and,
    when ``dump_dir`` is set, written as JSONL files an offline
    ``ficus_top`` can render.
    """

    def __init__(
        self,
        host: str,
        capacity: int = FLIGHT_RING_CAPACITY,
        clock: Callable[[], float] | None = None,
        context: Callable[[], dict] | None = None,
    ):
        self.host = host
        self.capacity = capacity
        self._clock = clock
        self._context = context
        self.ring: deque[tuple[float, str, object, str | None]] = deque(maxlen=capacity)
        self.dumps: deque[dict] = deque(maxlen=MAX_RETAINED_DUMPS)
        #: when set, every anomaly also writes a JSONL file here
        self.dump_dir: str | None = None
        self.dump_paths: list[str] = []
        self._seq = 0

    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def record(self, op: str, target: object = "", trace: str | None = None) -> None:
        self.ring.append((self.now(), op, target, trace))

    def anomaly(self, kind: str, detail: dict | None = None) -> dict:
        """Freeze the ring into a snapshot; returns (and retains) it."""
        self._seq += 1
        snapshot = {
            "host": self.host,
            "seq": self._seq,
            "kind": kind,
            "at": self.now(),
            "detail": dict(detail or {}),
            "ops": [[at, op, _label(target), trace] for at, op, target, trace in self.ring],
        }
        if self._context is not None:
            snapshot.update(self._context())
        self.dumps.append(snapshot)
        if self.dump_dir is not None:
            path = os.path.join(
                self.dump_dir, f"ficus_flight_{self.host}_{self._seq}.jsonl"
            )
            self.dump_paths.append(self.write_dump(snapshot, path))
        return snapshot

    def write_dump(self, snapshot: dict, path: str) -> str:
        """Write one snapshot as a JSONL evidence bundle; returns ``path``."""
        with open(path, "w", encoding="utf-8") as fp:
            for line in snapshot_to_jsonl(snapshot):
                fp.write(line + "\n")
        return path


def _label(target) -> str:
    """A ring target as a dump shows it: a handle as its hex form, a
    ``(src, handle)`` pair (a plain tuple; a handle is a named one) as
    ``"<src>:<hex>"``."""
    if isinstance(target, str):
        return target
    if type(target) is tuple:
        src, fh = target
        return f"{src}:{fh.to_hex()}"
    return target.to_hex()


def snapshot_to_jsonl(snapshot: dict) -> list[str]:
    """One JSON object per line: anomaly, ops, health, prov, metrics."""
    lines = [
        json.dumps(
            {
                "type": "anomaly",
                "host": snapshot.get("host"),
                "seq": snapshot.get("seq"),
                "kind": snapshot.get("kind"),
                "at": snapshot.get("at"),
                "detail": snapshot.get("detail", {}),
            }
        )
    ]
    for at, op, target, trace in snapshot.get("ops", []):
        lines.append(
            json.dumps({"type": "op", "at": at, "op": op, "target": target, "trace": trace})
        )
    if "health" in snapshot:
        lines.append(json.dumps({"type": "health", **snapshot["health"]}))
    for event in snapshot.get("prov", []):
        lines.append(json.dumps({"type": "prov", **event}))
    if snapshot.get("metrics"):
        lines.append(json.dumps({"type": "metrics", "values": snapshot["metrics"]}))
    return lines


def load_dump(path: str) -> dict:
    """Rebuild a snapshot dict from a JSONL flight-recorder dump."""
    snapshot: dict = {"ops": [], "health": {}, "metrics": {}, "prov": []}
    with open(path, encoding="utf-8") as fp:
        for raw in fp:
            raw = raw.strip()
            if not raw:
                continue
            record = json.loads(raw)
            kind = record.pop("type", None)
            if kind == "anomaly":
                snapshot.update(record)
            elif kind == "op":
                snapshot["ops"].append(
                    [record.get("at"), record.get("op"), record.get("target"), record.get("trace")]
                )
            elif kind == "health":
                snapshot["health"] = record
            elif kind == "prov":
                snapshot["prov"].append(record)
            elif kind == "metrics":
                snapshot["metrics"] = record.get("values", {})
    return snapshot


class HealthPlane:
    """Per-host consistency health: suspicion, staleness, anomalies.

    Always on: the physical layer builds one (a :class:`~repro.sim.FicusHost`
    keeps its first across reboots), and the logical layer, the daemons,
    reconciliation, the NFS client, and ``pull_file`` consult it.
    ``FicusHost.health()`` renders it as a :class:`HostHealth`.
    """

    def __init__(
        self,
        host: str,
        clock: Callable[[], float] | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.host = host
        self._clock = clock
        self.telemetry = telemetry or NULL_TELEMETRY
        #: the peer-selection strategy the host's daemons run (stamped by
        #: the cluster builder so offline dumps name it)
        self.topology = "full_mesh"
        #: (volume, peer host) -> why divergence is suspected
        self._suspected: dict[tuple[object, str], str] = {}
        #: peer host -> recon ticks since the last completed round
        self._staleness: dict[str, int] = {}
        #: peer host -> virtual time of the last completed round (or the
        #: moment we first started tracking the peer): the wall-clock
        #: staleness SLO is ``now - this``
        self._fresh_since: dict[str, float] = {}
        #: the host's live physical layer, whose new-version cache is
        #: ``notes_pending`` and whose network says whether the host is up
        #: (set by the host, and pointed at the rebuilt layer by a reboot;
        #: a plane without one reports a host that is up, nothing pending)
        self.physical = None
        #: the host's one record of flapping peers; like the plane it
        #: outlives a crash, so a reboot resets it
        self.peer_health = PeerHealth()
        #: the always-on per-host version-provenance ledger (see
        #: :mod:`repro.telemetry.provenance`); like the flight recorder it
        #: survives crashes — the plane plays the black box
        self.provenance = ProvenanceLedger(host, clock=clock)
        self.last_recon: deque[dict] = deque(maxlen=MAX_RECON_OUTCOMES)
        self.anomaly_counts: dict[str, int] = {}
        self.resolver_auto_resolved = 0
        self.resolver_fallback_manual = 0
        self.recorder = FlightRecorder(host, clock=clock, context=self._dump_context)
        metrics = self.telemetry.metrics
        metrics.add_source("health", self._gauges, kind="gauge")
        metrics.add_source("health.anomaly", self.anomaly_counts)
        metrics.add_source("resolver", self._resolver_counts)

    def _gauges(self) -> dict[str, int]:
        gauges = {
            f"divergence_suspected.{self.host}": len(self._suspected),
            f"notes_pending.{self.host}": self._notes_pending(),
        }
        for peer, ticks in self._staleness.items():
            gauges[f"staleness_ticks.{self.host}.{peer}"] = ticks
        return gauges

    def _resolver_counts(self) -> dict[str, int]:
        return {
            "auto_resolved": self.resolver_auto_resolved,
            "fallback_manual": self.resolver_fallback_manual,
        }

    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # -- the op ring -------------------------------------------------------

    def record_op(self, op: str, target: object = "", ctx=None) -> None:
        """Append one vnode operation to the flight ring (hot path)."""
        trace = None
        if ctx is not None and isinstance(ctx.trace, TraceContext):
            trace = ctx.trace.label()
        self.recorder.record(op, target, trace)

    # -- the provenance ledger ---------------------------------------------

    def record_version(self, kind: str, fh, vv, parents=(), origin: str = "", detail: str = "") -> None:
        """Ledger one minted or installed file version: the ledger's one
        writer.  ``fh`` is a handle, ``vv`` and each parent a
        ``VersionVector``; the event carries the live trace context.

        Hot path (every vv bump lands here): one ring append of raw
        immutable references — the ledger encodes lazily at query time.
        """
        tc = self.telemetry.tracer.current_context()
        trace = tc.label() if tc is not None else ""
        self.provenance.record(kind, fh, vv, parents, origin, detail, trace)

    # -- divergence suspicion ---------------------------------------------

    def suspect(self, volume, peer: str, reason: str) -> None:
        key = (volume, peer)
        if key in self._suspected:
            return
        self._suspected[key] = reason

    def clear_suspicion(self, volume, peer: str) -> None:
        self._suspected.pop((volume, peer), None)

    def note_missed_notification(self, volume, peer: str) -> None:
        """An update notification could not reach ``peer``: it missed a write."""
        self.suspect(volume, peer, "missed-notification")

    def divergence_suspected(self, volume=None) -> bool:
        if volume is None:
            return bool(self._suspected)
        return any(key[0] == volume for key in self._suspected)

    def suspected_by_volume(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for volume, peer in self._suspected:
            out.setdefault(volume.to_hex(), []).append(peer)
        return {volume: sorted(peers) for volume, peers in out.items()}

    # -- recon / propagation hooks ----------------------------------------

    def recon_tick(self, volume, peer_hosts: Iterable[str]) -> None:
        """One recon-daemon tick considered these peers: staleness grows."""
        for peer in peer_hosts:
            self._staleness[peer] = self._staleness.get(peer, 0) + 1
            # a peer becomes SLO-tracked the first time a round considers
            # it; until a round completes, its staleness clock runs from
            # this moment
            self._fresh_since.setdefault(peer, self.now())

    def recon_result(self, volume, peer: str, ok: bool, conflicts: int = 0) -> None:
        """A reconciliation round with ``peer`` finished (or aborted)."""
        self.last_recon.append(
            {
                "at": self.now(),
                "volume": volume.to_hex(),
                "peer": peer,
                "ok": bool(ok),
                "conflicts": conflicts,
            }
        )
        if ok:
            # the round completed: divergence with this peer is no longer
            # *suspected* — either the replicas now agree or a conflict is
            # on record in the conflict log (and fired an anomaly)
            self._staleness[peer] = 0
            self._fresh_since[peer] = self.now()
            self.clear_suspicion(volume, peer)
        else:
            self.suspect(volume, peer, "recon-aborted")

    def staleness_seconds(self) -> dict[str, float]:
        """Per peer: virtual seconds since the last completed round.

        Zero for a peer whose round just completed; grows while partitions
        (or a broken daemon) keep rounds from finishing — the signal the
        wall-clock staleness SLO gates on.
        """
        now = self.now()
        return {
            peer: max(0.0, now - self._fresh_since.get(peer, now))
            for peer in self._staleness
        }

    # -- automatic conflict resolution ------------------------------------

    def resolution_applied(self, name: str, fh, tag: str, local_vv, remote_vv, resolved_vv) -> None:
        """A resolver merged a conflict and the result was committed.

        The ledger's ``merge`` event is the one record of it: the minted
        version's parents are exactly the two concurrent inputs — the
        >= 2-parent merge node of the DAG.
        """
        self.resolver_auto_resolved += 1
        self.record_version(
            "merge", fh, resolved_vv, parents=(local_vv, remote_vv), detail=f"{name}[{tag}]"
        )

    def resolution_fallback(self, name: str, tag: str, reason: str) -> None:
        """A covered conflict could not be merged; it goes to the owner."""
        self.resolver_fallback_manual += 1
        self.recorder.record("conflict_resolver_fallback", f"{name}[{tag}] {reason}")

    # -- anomalies ---------------------------------------------------------

    def anomaly(self, kind: str, **detail) -> dict:
        """An anomaly fired: count it and freeze a flight-recorder snapshot."""
        self.anomaly_counts[kind] = self.anomaly_counts.get(kind, 0) + 1
        return self.recorder.anomaly(kind, detail)

    # -- rendering ---------------------------------------------------------

    def _notes_pending(self) -> int:
        return 0 if self.physical is None else self.physical.new_version_cache_size

    def host_health(self) -> HostHealth:
        """The host's health as it is now: every field read live."""
        network = None if self.physical is None else self.physical.network
        return HostHealth(
            host=self.host,
            up=network is None or network.host_is_up(self.host),
            topology=self.topology,
            notes_pending=self._notes_pending(),
            staleness_ticks=dict(self._staleness),
            staleness_seconds=self.staleness_seconds(),
            suspected=self.suspected_by_volume(),
            degraded_peers=sorted(self.peer_health.degraded_hosts()),
            anomalies=dict(self.anomaly_counts),
            last_recon=list(self.last_recon),
            resolver_auto_resolved=self.resolver_auto_resolved,
            resolver_fallback_manual=self.resolver_fallback_manual,
        )

    def _dump_context(self) -> dict:
        return {
            # the one rendering of the host's health, last recon outcomes
            # included; ficus_top rebuilds it with ``HostHealth(**health)``
            "health": asdict(self.host_health()),
            "metrics": self.telemetry.metrics.snapshot(),
            # the provenance ring rides along in every anomaly dump, so an
            # offline ficus_prov can rebuild the version DAG of an incident
            "prov": self.provenance.snapshot(),
        }
