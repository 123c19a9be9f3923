"""Simulated internetwork: hosts, partitions, RPC, multicast datagrams.

A large-scale system "will never be fully operational at any given time"
(paper Section 1) — partial operation is the normal state.  This module
models exactly the communication properties Ficus depends on:

* **Partitions** — the host set can be split into disjoint groups; hosts in
  different groups (or downed hosts) cannot exchange messages.
* **Synchronous RPC** — what NFS runs over; raises
  :class:`~repro.errors.HostUnreachable` when the peer cannot be contacted.
* **Asynchronous multicast datagrams** — best-effort, unacknowledged; used
  by the logical layer for update notification ("an asynchronous multicast
  datagram is sent to all available replicas", Section 2.5).  Recipients
  that are unreachable simply miss the datagram; reconciliation exists
  precisely because notification is lossy.

All delivery is deterministic so experiments replay exactly — including
injected faults: the :class:`FaultPlane` draws every fault decision from a
seeded PRNG in call order, so a run with the same seed and the same
workload injects byte-identical fault schedules.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.errors import HostUnreachable, InvalidArgument, RpcTimeout, ServiceUnavailable
from repro.telemetry import NULL_TELEMETRY, Histogram, Telemetry
from repro.util import VirtualClock

RpcHandler = Callable[..., object]
DatagramHandler = Callable[[str, object], None]


@dataclass
class PeerStats:
    """Per (src, dst) RPC accounting: latency and byte volumes."""

    rpcs: int = 0
    failures: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    latency_seconds: float = 0.0


def _payload_bytes(values: Iterable[object]) -> int:
    """Approximate wire volume: the bytes-valued arguments only (handles
    and small scalars are noise next to read/write payloads)."""
    return sum(len(v) for v in values if isinstance(v, (bytes, bytearray)))


@dataclass
class NetworkStats:
    """Traffic accounting for benchmarks.

    The five aggregate counters are plain ints (cheap, always on) and
    per-peer detail lands in :attr:`per_peer`; the deployment's
    :class:`~repro.telemetry.MetricsRegistry` views both under ``net.*``
    names.  The latency distribution has no plain-int form, so it lives in
    the registry's histogram the network binds here (a no-op without one).
    """

    rpcs_sent: int = 0
    rpcs_failed: int = 0
    datagrams_sent: int = 0
    datagrams_delivered: int = 0
    datagrams_lost: int = 0
    per_peer: dict[tuple[str, str], PeerStats] = field(default_factory=dict, repr=False)
    rpc_latency: Histogram = field(
        default=NULL_TELEMETRY.metrics.histogram("net.rpc_latency_seconds"), repr=False
    )

    def peer(self, src: str, dst: str) -> PeerStats:
        stats = self.per_peer.get((src, dst))
        if stats is None:
            stats = self.per_peer[(src, dst)] = PeerStats()
        return stats

    def record_rpc(
        self,
        src: str,
        dst: str,
        *,
        ok: bool,
        latency: float = 0.0,
        bytes_out: int = 0,
        bytes_in: int = 0,
    ) -> None:
        self.rpcs_sent += 1
        peer = self.peer(src, dst)
        peer.rpcs += 1
        peer.bytes_sent += bytes_out
        peer.bytes_received += bytes_in
        peer.latency_seconds += latency
        if not ok:
            self.rpcs_failed += 1
            peer.failures += 1
        self.rpc_latency.observe(latency)

    def record_datagram(self, delivered: bool) -> None:
        self.datagrams_sent += 1
        if delivered:
            self.datagrams_delivered += 1
        else:
            self.datagrams_lost += 1

    def rpcs_by_host(self) -> dict[str, int]:
        """Total RPCs issued per source host, folded from the per-peer
        detail — the per-host load signal the scale-out benchmarks gate."""
        out: dict[str, int] = {}
        for (src, _dst), peer in self.per_peer.items():
            out[src] = out.get(src, 0) + peer.rpcs
        return out

    def rpc_bytes(self) -> dict[str, int]:
        """RPC payload bytes moved in each direction, over every peer pair."""
        peers = self.per_peer.values()
        return {
            "rpc_bytes_sent": sum(p.bytes_sent for p in peers),
            "rpc_bytes_received": sum(p.bytes_received for p in peers),
        }

    def bytes_by_host(self) -> dict[str, int]:
        """Total RPC payload bytes moved per source host (both directions)."""
        out: dict[str, int] = {}
        for (src, _dst), peer in self.per_peer.items():
            out[src] = out.get(src, 0) + peer.bytes_sent + peer.bytes_received
        return out

    def snapshot(self) -> "NetworkStats":
        return NetworkStats(
            self.rpcs_sent,
            self.rpcs_failed,
            self.datagrams_sent,
            self.datagrams_delivered,
            self.datagrams_lost,
        )


@dataclass(frozen=True)
class LinkFaults:
    """Per-link fault probabilities, each in ``[0, 1]``.

    Datagram faults model a lossy unacknowledged transport; the RPC faults
    model the two transient failures a synchronous caller cannot tell
    apart: the request never arrived (``rpc_timeout``) and the server
    executed but the reply was lost (``reply_lost``).  The distinction is
    what makes blind retry of non-idempotent operations unsafe.
    """

    #: datagram silently lost
    drop: float = 0.0
    #: datagram delivered twice
    duplicate: float = 0.0
    #: datagram delayed behind the next one on the same link
    reorder: float = 0.0
    #: RPC fails before the server sees the request
    rpc_timeout: float = 0.0
    #: server executes the request, the reply never returns
    reply_lost: float = 0.0
    #: a block payload in a ``read_blocks`` reply is flipped in flight
    #: (checksum-detected by the delta pull's digest verification)
    corrupt_block: float = 0.0

    @property
    def any_datagram(self) -> bool:
        return bool(self.drop or self.duplicate or self.reorder)

    @property
    def any_rpc(self) -> bool:
        return bool(self.rpc_timeout or self.reply_lost)


#: verdicts :meth:`FaultPlane.rpc_verdict` can hand back
RPC_OK = "ok"
RPC_TIMEOUT = "timeout"
RPC_REPLY_LOST = "reply_lost"

#: verdicts :meth:`FaultPlane.datagram_verdict` can hand back
DG_DELIVER = "deliver"
DG_DROP = "drop"
DG_DUPLICATE = "duplicate"
DG_REORDER = "reorder"


class FaultPlane:
    """Deterministic, seeded fault injection for the simulated network.

    Two driving modes compose:

    * **Probabilistic** — per-link (or default) :class:`LinkFaults`
      probabilities, sampled from one seeded PRNG in call order, so a
      fixed seed plus a fixed workload replays the exact fault schedule.
    * **Scripted** — :meth:`schedule_rpc` queues explicit per-call
      verdicts for one link (e.g. ``["timeout", "ok", "reply_lost"]``),
      consumed before any probability draw.  This is how tests pin a
      single fault at an exact protocol step.

    The plane is attached to every :class:`Network` but starts inert:
    with no faults configured, ``rpc``/``multicast`` behave (and count)
    exactly as they would without it.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self._default = LinkFaults()
        self._links: dict[tuple[str, str], LinkFaults] = {}
        self._rpc_scripts: dict[tuple[str, str], deque[str]] = {}
        self._block_scripts: dict[tuple[str, str], int] = {}
        self.enabled = True
        #: faults injected so far, by kind
        self.injected: dict[str, int] = {}

    # -- configuration ----------------------------------------------------

    def reseed(self, seed: int) -> None:
        """Restart the PRNG; the next run replays exactly from here."""
        self.seed = seed
        self._rng = random.Random(seed)

    def set_default(self, faults: LinkFaults) -> None:
        """Fault profile for every link without a specific override."""
        self._default = faults

    def set_link(self, src: str, dst: str, faults: LinkFaults, symmetric: bool = True) -> None:
        """Fault profile for one link (both directions when ``symmetric``)."""
        self._links[(src, dst)] = faults
        if symmetric:
            self._links[(dst, src)] = faults

    def schedule_rpc(self, src: str, dst: str, verdicts: Iterable[str]) -> None:
        """Script the next RPCs ``src -> dst``: one verdict consumed per call.

        Verdicts are ``"ok"``, ``"timeout"``, or ``"reply_lost"``; when the
        script runs dry the link falls back to its probabilities.
        """
        queue = self._rpc_scripts.setdefault((src, dst), deque())
        for verdict in verdicts:
            if verdict not in (RPC_OK, RPC_TIMEOUT, RPC_REPLY_LOST):
                raise InvalidArgument(f"unknown RPC fault verdict {verdict!r}")
            queue.append(verdict)

    def schedule_block_corruption(self, src: str, dst: str, blocks: int = 1) -> None:
        """Corrupt the next ``blocks`` block payloads pulled ``src -> dst``.

        ``src``/``dst`` follow the RPC direction (the puller is ``src``),
        matching :meth:`schedule_rpc`.  Corruption flips one byte of the
        payload, so the delta pull's digest verification must catch it.
        """
        self._block_scripts[(src, dst)] = self._block_scripts.get((src, dst), 0) + blocks

    def clear(self) -> None:
        """Drop all configured faults and scripts (the PRNG keeps its state)."""
        self._default = LinkFaults()
        self._links.clear()
        self._rpc_scripts.clear()
        self._block_scripts.clear()

    @property
    def active(self) -> bool:
        """Cheap guard for the network's hot paths."""
        return self.enabled and bool(
            self._links
            or self._rpc_scripts
            or self._block_scripts
            or self._default != LinkFaults()
        )

    # -- verdicts ---------------------------------------------------------

    def _faults_for(self, src: str, dst: str) -> LinkFaults:
        return self._links.get((src, dst), self._default)

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def rpc_verdict(self, src: str, dst: str) -> str:
        """Fate of one RPC on the link: scripted first, then probabilistic."""
        script = self._rpc_scripts.get((src, dst))
        if script:
            verdict = script.popleft()
            if verdict != RPC_OK:
                self._count(f"rpc_{verdict}" if verdict == RPC_TIMEOUT else verdict)
            return verdict
        faults = self._faults_for(src, dst)
        if not faults.any_rpc:
            return RPC_OK
        draw = self._rng.random()
        if draw < faults.rpc_timeout:
            self._count("rpc_timeout")
            return RPC_TIMEOUT
        if draw < faults.rpc_timeout + faults.reply_lost:
            self._count("reply_lost")
            return RPC_REPLY_LOST
        return RPC_OK

    def block_verdict(self, src: str, dst: str) -> bool:
        """Should the next block payload on this link be corrupted?"""
        remaining = self._block_scripts.get((src, dst), 0)
        if remaining > 0:
            if remaining == 1:
                del self._block_scripts[(src, dst)]
            else:
                self._block_scripts[(src, dst)] = remaining - 1
            self._count("block_corrupt")
            return True
        faults = self._faults_for(src, dst)
        if not faults.corrupt_block:
            return False
        if self._rng.random() < faults.corrupt_block:
            self._count("block_corrupt")
            return True
        return False

    def maybe_corrupt_block(self, src: str, dst: str, data: bytes) -> bytes:
        """Flip one byte of ``data`` when the link's verdict says so."""
        if not data or not self.block_verdict(src, dst):
            return data
        return bytes([data[0] ^ 0xFF]) + data[1:]

    def datagram_verdict(self, src: str, dst: str) -> str:
        """Fate of one datagram on the link."""
        faults = self._faults_for(src, dst)
        if not faults.any_datagram:
            return DG_DELIVER
        draw = self._rng.random()
        if draw < faults.drop:
            self._count("drop")
            return DG_DROP
        if draw < faults.drop + faults.duplicate:
            self._count("duplicate")
            return DG_DUPLICATE
        if draw < faults.drop + faults.duplicate + faults.reorder:
            self._count("reorder")
            return DG_REORDER
        return DG_DELIVER


@dataclass
class _HostState:
    up: bool = True
    rpc_services: dict[str, RpcHandler] = field(default_factory=dict)
    datagram_handlers: list[DatagramHandler] = field(default_factory=list)


class Network:
    """The simulated internetwork connecting Ficus hosts."""

    def __init__(
        self,
        clock: VirtualClock | None = None,
        rpc_latency: float = 0.001,
        telemetry: Telemetry | None = None,
        fault_plane: FaultPlane | None = None,
    ):
        self.clock = clock or VirtualClock()
        self.rpc_latency = rpc_latency
        self.telemetry = telemetry or NULL_TELEMETRY
        metrics = self.telemetry.metrics
        self.stats = NetworkStats(rpc_latency=metrics.histogram("net.rpc_latency_seconds"))
        self.faults = fault_plane or FaultPlane()
        metrics.add_source("net", self.stats)
        metrics.add_source("net", self.stats.rpc_bytes)
        metrics.add_source("net.faults", self.faults.injected)
        self._hosts: dict[str, _HostState] = {}
        #: reordered datagrams awaiting delivery, per destination host
        self._deferred_datagrams: dict[str, list[tuple[str, object]]] = {}
        #: Current partition: list of disjoint host groups.  Empty list
        #: means fully connected.
        self._groups: list[frozenset[str]] = []

    # -- host management --------------------------------------------------

    def add_host(self, addr: str) -> None:
        if addr in self._hosts:
            raise InvalidArgument(f"host {addr!r} already exists")
        self._hosts[addr] = _HostState()

    def has_host(self, addr: str) -> bool:
        return addr in self._hosts

    @property
    def hosts(self) -> list[str]:
        return sorted(self._hosts)

    def _host(self, addr: str) -> _HostState:
        try:
            return self._hosts[addr]
        except KeyError:
            raise InvalidArgument(f"unknown host {addr!r}") from None

    def set_host_up(self, addr: str, up: bool) -> None:
        """Crash (``up=False``) or restart a host."""
        self._host(addr).up = up

    def host_is_up(self, addr: str) -> bool:
        return self._host(addr).up

    # -- partitions ----------------------------------------------------------

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the network into disjoint groups of hosts.

        Hosts not named in any group are isolated (a singleton group each).
        """
        seen: set[str] = set()
        frozen: list[frozenset[str]] = []
        for group in groups:
            fz = frozenset(group)
            for host in fz:
                self._host(host)  # validate
                if host in seen:
                    raise InvalidArgument(f"host {host!r} in two partition groups")
                seen.add(host)
            frozen.append(fz)
        self._groups = frozen

    def heal(self) -> None:
        """Remove all partitions: everyone can talk again."""
        self._groups = []

    @property
    def partitioned(self) -> bool:
        return bool(self._groups)

    def _group_of(self, addr: str) -> frozenset[str]:
        for group in self._groups:
            if addr in group:
                return group
        return frozenset([addr])

    def reachable(self, src: str, dst: str) -> bool:
        """Can ``src`` currently exchange messages with ``dst``?"""
        if not self._host(src).up or not self._host(dst).up:
            return False
        if src == dst:
            return True
        if not self._groups:
            return True
        return dst in self._group_of(src)

    def reachable_set(self, src: str, candidates: Iterable[str]) -> list[str]:
        """The subset of ``candidates`` reachable from ``src``, in order."""
        return [dst for dst in candidates if self.reachable(src, dst)]

    # -- RPC (what NFS runs over) -----------------------------------------------

    def register_rpc(self, addr: str, service: str, handler: RpcHandler) -> None:
        """Export ``service`` at ``addr``; calls dispatch to ``handler``."""
        self._host(addr).rpc_services[service] = handler

    def rpc(self, src: str, dst: str, service: str, *args: object, **kwargs: object) -> object:
        """Synchronous call; raises HostUnreachable across a partition,
        ServiceUnavailable when the peer is up but exports no such
        service, and RpcTimeout for injected transient faults."""
        bytes_out = _payload_bytes(args)
        if not self.reachable(src, dst):
            self.stats.record_rpc(src, dst, ok=False, bytes_out=bytes_out)
            raise HostUnreachable(f"{src} -> {dst}: unreachable")
        handler = self._host(dst).rpc_services.get(service)
        if handler is None:
            # up and reachable, nothing exported: a configuration error,
            # not a partition — retrying would never succeed
            self.stats.record_rpc(src, dst, ok=False, bytes_out=bytes_out)
            raise ServiceUnavailable(f"{dst} exports no service {service!r}")
        verdict = self.faults.rpc_verdict(src, dst) if self.faults.active else RPC_OK
        if verdict == RPC_TIMEOUT:
            # the request is lost before the server sees it
            self.clock.advance(self.rpc_latency)
            self.stats.record_rpc(src, dst, ok=False, bytes_out=bytes_out)
            raise RpcTimeout(f"{src} -> {dst}: injected timeout for {service!r}")
        self.clock.advance(self.rpc_latency)
        # application errors surfacing through the handler are still a
        # delivered RPC at the transport level — count them as sent
        try:
            result = handler(*args, **kwargs)
        except Exception:
            self.stats.record_rpc(
                src, dst, ok=True, latency=self.rpc_latency, bytes_out=bytes_out
            )
            raise
        if verdict == RPC_REPLY_LOST:
            # the server executed, the reply vanished: the caller cannot
            # distinguish this from a lost request — exactly why blind
            # retry of non-idempotent operations is unsafe
            self.stats.record_rpc(
                src, dst, ok=False, latency=self.rpc_latency, bytes_out=bytes_out
            )
            raise RpcTimeout(f"{src} -> {dst}: injected reply loss for {service!r}")
        self.stats.record_rpc(
            src,
            dst,
            ok=True,
            latency=self.rpc_latency,
            bytes_out=bytes_out,
            bytes_in=len(result) if isinstance(result, (bytes, bytearray)) else 0,
        )
        return result

    # -- multicast datagrams (update notification) ---------------------------------

    def register_datagram_handler(self, addr: str, handler: DatagramHandler) -> None:
        """Subscribe ``addr`` to incoming datagrams."""
        self._host(addr).datagram_handlers.append(handler)

    def unregister_datagram_handler(self, addr: str, handler: DatagramHandler) -> None:
        """Drop one subscription (a host reboot tears down its old layers).

        Without this, every restart leaks the dead layers' handlers: each
        incoming notification then feeds the new stack AND every pre-crash
        stack, double-counting flight-recorder and ledger entries and
        growing dead new-version caches forever.  Unknown handlers are
        ignored (the registration died with volatile state).
        """
        handlers = self._host(addr).datagram_handlers
        try:
            handlers.remove(handler)
        except ValueError:
            pass

    def multicast(self, src: str, dsts: Iterable[str], payload: object) -> int:
        """Best-effort datagram to each destination; returns deliveries.

        Unreachable destinations miss the datagram silently — exactly the
        failure mode Ficus's periodic reconciliation cleans up after.  The
        fault plane can additionally drop, duplicate, or reorder delivery
        on a per-link basis.  A destination with no registered handlers
        counts as a loss: nothing received the notification.
        """
        delivered = 0
        faults_active = self.faults.active
        for dst in dsts:
            if not self.reachable(src, dst):
                self.stats.record_datagram(delivered=False)
                continue
            verdict = self.faults.datagram_verdict(src, dst) if faults_active else DG_DELIVER
            if verdict == DG_DROP:
                self.stats.record_datagram(delivered=False)
                continue
            if verdict == DG_REORDER:
                # held back until the next datagram to the same host (or an
                # explicit flush): a later datagram overtakes this one
                self._deferred_datagrams.setdefault(dst, []).append((src, payload))
                continue
            copies = 2 if verdict == DG_DUPLICATE else 1
            for _ in range(copies):
                if self._deliver_datagram(src, dst, payload):
                    delivered += 1
            # a reordered datagram surfaces behind the one that overtook it
            delivered += self._flush_deferred_to(dst)
        return delivered

    def _deliver_datagram(self, src: str, dst: str, payload: object) -> bool:
        """Hand one datagram to the destination's handlers; a host with no
        handlers registered counts as a loss, not a delivery."""
        handlers = self._host(dst).datagram_handlers
        if not handlers:
            self.stats.record_datagram(delivered=False)
            return False
        for handler in handlers:
            handler(src, payload)
        self.stats.record_datagram(delivered=True)
        return True

    def _flush_deferred_to(self, dst: str) -> int:
        pending = self._deferred_datagrams.pop(dst, None)
        if not pending:
            return 0
        delivered = 0
        for src, payload in pending:
            if self.reachable(src, dst) and self._deliver_datagram(src, dst, payload):
                delivered += 1
            elif not self.reachable(src, dst):
                self.stats.record_datagram(delivered=False)
        return delivered

    def flush_deferred_datagrams(self) -> int:
        """Deliver every reordered datagram still held back (quiescence)."""
        return sum(self._flush_deferred_to(dst) for dst in list(self._deferred_datagrams))
