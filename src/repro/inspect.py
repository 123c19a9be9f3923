"""Inspection tools: human-readable dumps of replica and cluster state.

The debugging companion to :func:`repro.physical.ficus_fsck` — where the
checker says *whether* a replica is consistent, these dumps show *what*
is in it: the namespace tree with version vectors, tombstones and their
GC acknowledgement state, storage presence, and cluster-wide divergence
summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.physical import ReplicaStore
from repro.physical.wire import EntryType
from repro.util import FicusFileHandle


def dump_replica(store: ReplicaStore, show_tombstones: bool = True) -> str:
    """A tree-formatted dump of one volume replica's state."""
    lines = [f"volume replica {store.volrep} @ {store.root_handle()}"]

    def recurse(dir_fh: FicusFileHandle, indent: str, seen: set) -> None:
        if dir_fh in seen:
            lines.append(f"{indent}(already shown: {dir_fh})")
            return
        seen.add(dir_fh)
        try:
            aux = store.read_record(dir_fh)
            entries = store.read_entries(dir_fh)
        except Exception as exc:
            lines.append(f"{indent}!! unreadable: {exc}")
            return
        lines.append(f"{indent}[dir vv={aux.vv} refs={aux.refs}]")
        for entry in sorted(entries, key=lambda e: (not e.live, e.name)):
            if not entry.live:
                if show_tombstones:
                    lines.append(
                        f"{indent}  ✝ {entry.name} eid={entry.eid.encode()} "
                        f"acks={sorted(entry.acks)} acks2={sorted(entry.acks2)}"
                    )
                continue
            if entry.etype in (EntryType.DIRECTORY, EntryType.GRAFT_POINT):
                marker = "⌘" if entry.etype == EntryType.GRAFT_POINT else "+"
                lines.append(f"{indent}  {marker} {entry.name}/")
                if entry.etype == EntryType.DIRECTORY and store.has_directory(entry.fh):
                    recurse(entry.fh, indent + "    ", seen)
            elif entry.etype == EntryType.LOCATION:
                lines.append(f"{indent}  @ {entry.name} -> {entry.data}")
            else:
                stored = store.stored_file(dir_fh, entry.fh)
                if stored is not None:
                    file_aux = store.read_record(entry.fh)
                    size = stored.getattr().size
                    lines.append(
                        f"{indent}  - {entry.name} ({size}B, vv={file_aux.vv})"
                    )
                else:
                    lines.append(f"{indent}  - {entry.name} (entry-only, not stored)")

    recurse(store.root_handle(), "  ", set())
    return "\n".join(lines)


@dataclass
class DivergenceReport:
    """Pairwise divergence between two replicas of a volume."""

    only_in_a: list[str] = field(default_factory=list)
    only_in_b: list[str] = field(default_factory=list)
    version_mismatches: list[str] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return not (self.only_in_a or self.only_in_b or self.version_mismatches)


def _collect(store: ReplicaStore) -> dict[str, tuple]:
    """path -> (fh, vv-or-None) for every live entry of the replica."""
    out: dict[str, tuple] = {}

    def recurse(dir_fh: FicusFileHandle, prefix: str, seen: set) -> None:
        if dir_fh in seen:
            return
        seen.add(dir_fh)
        for entry in store.read_entries(dir_fh):
            if not entry.live or entry.etype == EntryType.LOCATION:
                continue
            path = f"{prefix}/{entry.name}"
            if entry.etype in (EntryType.DIRECTORY, EntryType.GRAFT_POINT):
                out[path] = (entry.fh, None)
                if entry.etype == EntryType.DIRECTORY and store.has_directory(entry.fh):
                    recurse(entry.fh, path, seen)
            else:
                stored = store.stored_file(dir_fh, entry.fh) is not None
                vv = store.read_record(entry.fh).vv if stored else None
                out[path] = (entry.fh, vv)

    recurse(store.root_handle(), "", set())
    return out


def diff_replicas(a: ReplicaStore, b: ReplicaStore) -> DivergenceReport:
    """Compare two replicas of the same volume by name and version."""
    report = DivergenceReport()
    view_a = _collect(a)
    view_b = _collect(b)
    report.only_in_a = sorted(set(view_a) - set(view_b))
    report.only_in_b = sorted(set(view_b) - set(view_a))
    for path in sorted(set(view_a) & set(view_b)):
        fh_a, vv_a = view_a[path]
        fh_b, vv_b = view_b[path]
        if fh_a != fh_b:
            report.version_mismatches.append(f"{path}: different files ({fh_a} vs {fh_b})")
        elif vv_a is not None and vv_b is not None and vv_a != vv_b:
            report.version_mismatches.append(f"{path}: vv {vv_a} vs {vv_b}")
    return report


def cluster_summary(system) -> str:
    """One-screen status of a :class:`~repro.sim.FicusSystem`."""
    lines = [f"cluster @ t={system.clock.now():.1f}s, {len(system.hosts)} hosts"]
    net = system.network.stats
    lines.append(
        f"  network: {net.rpcs_sent} rpcs ({net.rpcs_failed} failed), "
        f"{net.datagrams_sent} datagrams ({net.datagrams_lost} lost)"
    )
    for name, host in sorted(system.hosts.items()):
        up = "up" if system.network.host_is_up(name) else "DOWN"
        prop = host.propagation_daemon.stats
        lines.append(
            f"  {name} [{up}]: replicas={len(host.physical.stores)} "
            f"pulls={prop.pulls_succeeded} recon-runs={host.recon_daemon.stats.runs} "
            f"purged-tombstones={host.recon_daemon.tombstones_purged} "
            f"conflicts={len(host.conflict_log.unresolved())} "
            f"pending-notes={host.physical.new_version_cache_size} "
            f"disk={host.device.counters}"
        )
        health = host.health()
        lines.append(
            f"    health: staleness={health.max_staleness} "
            f"suspected={','.join(health.suspected_volumes()) or '-'} "
            f"degraded={','.join(health.degraded_peers) or '-'} "
            f"anomalies={sum(health.anomalies.values())}"
        )
    return "\n".join(lines)
