"""Baseline replica-control protocols, implemented as working systems.

Section 1 of the paper claims: "One-copy availability provides strictly
greater availability than primary copy [2], voting [21], weighted voting
[7], and quorum consensus [10]."  To reproduce that comparison honestly,
each policy is implemented as a real replicated register over the same
simulated network Ficus runs on: writes assemble their quorums with RPCs,
version numbers resolve staleness, and partitions make calls fail exactly
as they would for Ficus.

All four policies expose the same interface (:class:`ReplicatedRegister`):

* :class:`PrimaryCopyRegister` — Alsberg & Day: all updates at a primary.
* :class:`MajorityVotingRegister` — Thomas: majority for read and write.
* :class:`WeightedVotingRegister` — Gifford: per-site weights, r + w > N.
* :class:`QuorumConsensusRegister` — Herlihy: configurable quorum sizes.

The fifth column of the comparison is Ficus itself: the availability
harness (:mod:`repro.workload.availability`) reads and writes a file of a
real :class:`~repro.sim.FicusSystem` on the same network, so one-copy
availability and its price — concurrent writes that reconciliation must
resolve — are measured on the system, not on a model of it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import HostUnreachable, InvalidArgument, QuorumNotAvailable
from repro.net import Network


@dataclass
class SiteState:
    """Storage of one replica site."""

    value: bytes = b""
    version: int = 0


class ReplicatedRegister(abc.ABC):
    """One logical value replicated at a set of hosts."""

    policy_name = "abstract"

    def __init__(self, network: Network, sites: list[str], register_id: str = "reg"):
        if not sites:
            raise InvalidArgument("need at least one replica site")
        self.network = network
        self.sites = list(sites)
        self.register_id = register_id
        self.state: dict[str, SiteState] = {site: SiteState() for site in sites}
        for site in sites:
            network.register_rpc(site, f"{register_id}.read", self._make_read(site))
            network.register_rpc(site, f"{register_id}.write", self._make_write(site))

    def _make_read(self, site: str):
        def handler() -> tuple[bytes, int]:
            st = self.state[site]
            return (st.value, st.version)

        return handler

    def _make_write(self, site: str):
        def handler(value: bytes, version: int) -> None:
            st = self.state[site]
            st.value = value
            st.version = version

        return handler

    # -- per-site RPC helpers --

    def _read_site(self, requester: str, site: str) -> tuple[bytes, int]:
        return self.network.rpc(requester, site, f"{self.register_id}.read")

    def _write_site(self, requester: str, site: str, value: bytes, version: int) -> None:
        self.network.rpc(requester, site, f"{self.register_id}.write", value, version)

    def _poll_sites(self, requester: str) -> dict[str, tuple[bytes, int]]:
        """Read every reachable site; unreachable ones are skipped."""
        replies = {}
        for site in self.sites:
            try:
                replies[site] = self._read_site(requester, site)
            except HostUnreachable:
                continue
        return replies

    # -- the policy interface --

    @abc.abstractmethod
    def read(self, requester: str) -> bytes:
        """Read the register; raises QuorumNotAvailable when not permitted."""

    @abc.abstractmethod
    def write(self, requester: str, value: bytes) -> None:
        """Write the register; raises QuorumNotAvailable when not permitted."""


class PrimaryCopyRegister(ReplicatedRegister):
    """Alsberg & Day 1976: all updates funnel through a primary site.

    Reads are served by any reachable copy (possibly stale); updates
    require the primary, so a partition hiding the primary freezes all
    writers — the availability gap Ficus exploits.
    """

    policy_name = "primary-copy"

    def __init__(self, network: Network, sites: list[str], register_id: str = "reg", primary: str | None = None):
        super().__init__(network, sites, register_id)
        self.primary = primary or sites[0]
        if self.primary not in sites:
            raise InvalidArgument(f"primary {self.primary!r} is not a replica site")

    def read(self, requester: str) -> bytes:
        for site in self.sites:
            try:
                value, _ = self._read_site(requester, site)
                return value
            except HostUnreachable:
                continue
        raise QuorumNotAvailable("no reachable copy")

    def write(self, requester: str, value: bytes) -> None:
        try:
            _, version = self._read_site(requester, self.primary)
            self._write_site(requester, self.primary, value, version + 1)
        except HostUnreachable as exc:
            raise QuorumNotAvailable("primary unreachable") from exc
        # asynchronous best-effort propagation to the secondaries
        for site in self.sites:
            if site == self.primary:
                continue
            try:
                self._write_site(requester, site, value, self.state[self.primary].version)
            except HostUnreachable:
                continue


class MajorityVotingRegister(ReplicatedRegister):
    """Thomas 1979: both reads and writes assemble a strict majority."""

    policy_name = "majority-voting"

    @property
    def _majority(self) -> int:
        return len(self.sites) // 2 + 1

    def read(self, requester: str) -> bytes:
        replies = self._poll_sites(requester)
        if len(replies) < self._majority:
            raise QuorumNotAvailable(
                f"read quorum {self._majority} not met: {len(replies)} reachable"
            )
        return max(replies.values(), key=lambda r: r[1])[0]

    def write(self, requester: str, value: bytes) -> None:
        replies = self._poll_sites(requester)
        if len(replies) < self._majority:
            raise QuorumNotAvailable(
                f"write quorum {self._majority} not met: {len(replies)} reachable"
            )
        version = max(r[1] for r in replies.values()) + 1
        for site in replies:
            self._write_site(requester, site, value, version)


class WeightedVotingRegister(ReplicatedRegister):
    """Gifford 1979: sites carry vote weights; r + w > total enforced."""

    policy_name = "weighted-voting"

    def __init__(
        self,
        network: Network,
        sites: list[str],
        register_id: str = "reg",
        weights: dict[str, int] | None = None,
        read_quorum: int | None = None,
        write_quorum: int | None = None,
    ):
        super().__init__(network, sites, register_id)
        self.weights = weights or {site: 1 for site in sites}
        total = sum(self.weights[s] for s in sites)
        self.read_quorum = read_quorum if read_quorum is not None else total // 2 + 1
        self.write_quorum = write_quorum if write_quorum is not None else total // 2 + 1
        if self.read_quorum + self.write_quorum <= total:
            raise InvalidArgument(
                f"r({self.read_quorum}) + w({self.write_quorum}) must exceed total votes ({total})"
            )

    def _reachable_votes(self, replies: dict) -> int:
        return sum(self.weights[site] for site in replies)

    def read(self, requester: str) -> bytes:
        replies = self._poll_sites(requester)
        if self._reachable_votes(replies) < self.read_quorum:
            raise QuorumNotAvailable("read quorum votes not met")
        return max(replies.values(), key=lambda r: r[1])[0]

    def write(self, requester: str, value: bytes) -> None:
        replies = self._poll_sites(requester)
        if self._reachable_votes(replies) < self.write_quorum:
            raise QuorumNotAvailable("write quorum votes not met")
        version = max(r[1] for r in replies.values()) + 1
        for site in replies:
            self._write_site(requester, site, value, version)


class QuorumConsensusRegister(ReplicatedRegister):
    """Herlihy 1986: independent read/write quorum sizes, r + w > N."""

    policy_name = "quorum-consensus"

    def __init__(
        self,
        network: Network,
        sites: list[str],
        register_id: str = "reg",
        read_quorum: int | None = None,
        write_quorum: int | None = None,
    ):
        super().__init__(network, sites, register_id)
        n = len(sites)
        self.read_quorum = read_quorum if read_quorum is not None else n // 2 + 1
        self.write_quorum = write_quorum if write_quorum is not None else n // 2 + 1
        if self.read_quorum + self.write_quorum <= n:
            raise InvalidArgument("r + w must exceed the number of replicas")

    def read(self, requester: str) -> bytes:
        replies = self._poll_sites(requester)
        if len(replies) < self.read_quorum:
            raise QuorumNotAvailable("read quorum not met")
        return max(replies.values(), key=lambda r: r[1])[0]

    def write(self, requester: str, value: bytes) -> None:
        replies = self._poll_sites(requester)
        if len(replies) < self.write_quorum:
            raise QuorumNotAvailable("write quorum not met")
        version = max(r[1] for r in replies.values()) + 1
        for site in replies:
            self._write_site(requester, site, value, version)

