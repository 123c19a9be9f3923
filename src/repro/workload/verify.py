"""Replicate-and-verify: re-execute a recorded workload, byte-diff the result.

The chaos harness proves *convergence* — every replica agrees after the
faults are withdrawn.  This module proves *determinism*: record the exact
operation history of a chaos run (every filesystem call, probe, daemon
tick, partition, and heal), re-execute it on a freshly built
:class:`~repro.sim.FicusSystem` with the same seed, and compare the two
clusters byte for byte — name trees, file contents per replica, and the
per-file version-vector maps.  A mismatch means some state crept in from
outside the recorded inputs (an unseeded random, wall-clock leakage, an
iteration-order dependency), which is exactly the class of bug that makes
"replay the failing seed" debugging impossible.

On divergence the report does not stop at "trees differ": it composes the
provenance DAGs of both runs and points at the first version whose
minting history disagrees — the operator lands on the offending write,
not on a tree diff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry import VersionDAG
from repro.workload.replay import TraceOp, replay_trace


def state_fingerprint(system, host_names: list[str] | None = None) -> dict:
    """Everything observable about the cluster's replicated state.

    Per host, per volume replica: the directory entry sets (names,
    handles, liveness), the stored file contents, and the version vector
    of every stored file — read at the *store* level, so a stale local
    replica cannot hide behind the logical layer's remote-read fallback.
    The per-host provenance rings ride along for divergence attribution.
    """
    if host_names is None:
        host_names = sorted(system.hosts)
    out: dict = {}
    for host_name in host_names:
        host = system.host(host_name)
        stores: dict = {}
        for volrep, store in sorted(host.physical.stores.items(), key=lambda kv: str(kv[0])):
            entries = []
            files = {}
            for dir_fh in sorted(store.all_directory_handles(), key=lambda fh: fh.to_hex()):
                for entry in store.read_entries(dir_fh):
                    entries.append(
                        (dir_fh.to_hex(), entry.name, entry.fh.to_hex(), entry.status)
                    )
                    fh = entry.fh.logical
                    if entry.live and store.has_file(dir_fh, fh):
                        aux = store.read_file_aux(dir_fh, fh)
                        files[fh.to_hex()] = (
                            store.file_vnode(dir_fh, fh).read_all(),
                            aux.vv.encode(),
                        )
            stores[str(volrep)] = {"entries": sorted(entries), "files": files}
        out[host_name] = {"stores": stores, "prov": host.health_plane.provenance.snapshot()}
    return out


@dataclass
class VerifyReport:
    """Outcome of one replicate-and-verify pass."""

    ops_replayed: int = 0
    ops_failed: int = 0
    #: mismatches between the recorded run and its re-execution; empty
    #: means the replay reproduced the cluster byte for byte
    problems: list[str] = field(default_factory=list)
    #: human-readable pointer at the first version whose provenance
    #: disagrees between the runs (set when problems were found)
    first_divergence: str = ""

    @property
    def identical(self) -> bool:
        return not self.problems


def _diff_fingerprints(baseline: dict, replayed: dict, report: VerifyReport) -> None:
    for host_name in baseline:
        base_host = baseline[host_name]
        replay_host = replayed.get(host_name)
        if replay_host is None:
            report.problems.append(f"{host_name}: missing from the replayed cluster")
            continue
        for volrep, base_store in base_host["stores"].items():
            replay_store = replay_host["stores"].get(volrep, {"entries": [], "files": {}})
            if base_store["entries"] != replay_store["entries"]:
                report.problems.append(
                    f"{host_name}/{volrep}: directory entries diverged "
                    f"({len(base_store['entries'])} recorded vs "
                    f"{len(replay_store['entries'])} replayed)"
                )
            base_files = base_store["files"]
            replay_files = replay_store["files"]
            for fh in sorted(set(base_files) | set(replay_files)):
                if fh not in base_files:
                    report.problems.append(f"{host_name}/{volrep}: extra file {fh} in replay")
                elif fh not in replay_files:
                    report.problems.append(f"{host_name}/{volrep}: file {fh} missing in replay")
                elif base_files[fh][1] != replay_files[fh][1]:
                    report.problems.append(
                        f"{host_name}/{volrep}: {fh} vv diverged: "
                        f"{base_files[fh][1] or 'genesis'} vs {replay_files[fh][1] or 'genesis'}"
                    )
                elif base_files[fh][0] != replay_files[fh][0]:
                    report.problems.append(
                        f"{host_name}/{volrep}: {fh} contents diverged at identical vv "
                        f"{base_files[fh][1] or 'genesis'}"
                    )


def _first_diverging_write(baseline: dict, replayed: dict) -> str:
    """Point at the earliest version minted differently across the runs.

    Both runs' provenance rings are composed into DAGs; walking every
    file's lineage oldest-first, the first node whose minting events
    disagree (different hosts, kinds, or parents) is where the replay's
    history forked from the recording — the write to investigate.
    """
    base_dag = VersionDAG.from_records(
        rec for host in baseline.values() for rec in host["prov"]
    )
    replay_dag = VersionDAG.from_records(
        rec for host in replayed.values() for rec in host["prov"]
    )
    for fh in base_dag.file_handles():
        for node in base_dag.nodes_for(fh):
            other = replay_dag.node(fh, node.vv)
            base_mints = sorted(set(node.minted_by()))
            other_mints = sorted(set(other.minted_by())) if other is not None else []
            if base_mints != other_mints or (
                other is not None and node.parents != other.parents
            ):
                minted = (
                    ", ".join(f"{k} by {h} at t={a:g}" for h, a, k in base_mints)
                    or "outside ring retention"
                )
                return (
                    f"first diverging write: {fh} @ {node.vv or 'genesis'} "
                    f"(recorded: {minted}; replayed: "
                    f"{', '.join(f'{k} by {h}' for h, _, k in other_mints) or 'never minted'}) — "
                    f"query with: ficus_prov --lineage {fh[:8]}"
                )
    for fh in replay_dag.file_handles():
        for node in replay_dag.nodes_for(fh):
            if base_dag.node(fh, node.vv) is None:
                return (
                    f"first diverging write: replay minted {fh} @ {node.vv or 'genesis'} "
                    f"which the recorded run never produced"
                )
    return ""


def replicate_and_verify(
    history: list[TraceOp],
    seed: int,
    config,
    baseline: dict,
) -> VerifyReport:
    """Re-execute a recorded chaos history on a fresh cluster and compare.

    ``config`` is the :class:`~repro.workload.chaos.ChaosConfig` of the
    recorded run — the fresh system is built exactly as ``run_chaos``
    builds one (same topology seed, same fault-plane reseed, same
    resolver registry, same fault profile), so replaying the recorded
    call sequence reproduces the exact datagram and fault schedule.
    ``baseline`` is the recorded run's :func:`state_fingerprint` taken
    after its quiesce.
    """
    # imported here: chaos imports this module, so the reverse import
    # must stay inside the function
    from repro.sim import FicusSystem, make_topology
    from repro.workload.chaos import _QUIET

    host_names = [f"h{i}" for i in range(config.host_count)]
    system = FicusSystem(
        host_names,
        daemon_config=_QUIET,
        topology=make_topology(config.topology, seed=seed),
    )
    system.network.faults.reseed(seed)
    if config.resolvers:
        system.enable_resolvers()
    system.network.faults.set_default(config.faults)

    replay = replay_trace(system, history, strict=False)
    report = VerifyReport(ops_replayed=replay.applied, ops_failed=replay.failed)

    # quiesce exactly as run_chaos does
    system.heal()
    system.network.faults.clear()
    system.network.flush_deferred_datagrams()
    for host_name in host_names:
        host = system.host(host_name)
        host.propagation_daemon.peer_health.reset()
        host.recon_daemon.peer_health.reset()
    system.reconcile_everything(rounds=config.host_count + 2)
    for _ in range(2):
        for host_name in host_names:
            system.host(host_name).propagation_daemon.tick()

    replayed = state_fingerprint(system, host_names)
    _diff_fingerprints(baseline, replayed, report)
    if report.problems:
        report.first_divergence = _first_diverging_write(baseline, replayed)
        if report.first_divergence:
            report.problems.append(report.first_divergence)
    return report
