"""Chaos convergence harness: seeded faults, then prove convergence.

"One key problem faced by a file system such as Ficus is that update
propagation is not reliable" (paper Section 2.3.1) — notifications are
best-effort datagrams, hosts crash between executing an operation and
acknowledging it, and partitions come and go.  The system's answer is
that *reconciliation* guarantees eventual consistency regardless of what
the optimistic fast path loses.

This harness puts that guarantee under test.  It drives a
:class:`~repro.sim.FicusSystem` through a seeded schedule of namespace
operations while the network's :class:`~repro.net.FaultPlane` drops,
duplicates, reorders, and times out traffic, and partitions split the
hosts at random.  Then every fault is withdrawn and the system is given
a bounded number of reconciliation rounds, after which the oracle runs:

* ``ficus_fsck`` must be clean on every replica (this includes the
  duplicate-(name, fh) invariant behind the cross-host rename bug);
* every host must report an identical name tree;
* file contents must agree wherever no update conflict was reported.

Everything is derived from one integer seed — the fault plane, the
partition schedule, and the operation mix — so any failure replays
exactly with ``run_chaos(seed)``.

Run as a module for CI::

    python -m repro.workload.chaos --seeds 11 17 1990 --rename-storm-seed 1990
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace

from repro.errors import FicusError
from repro.net import LinkFaults
from repro.physical import ficus_fsck
from repro.sim import TOPOLOGIES, DaemonConfig, FicusSystem, make_topology

#: seed under which the harness always replays the cross-host rename
#: collision (the PR's headline bug) inside the chaos schedule
RENAME_BUG_SEED = 1990

_QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)

#: moderate loss: enough to exercise every retry path without making the
#: chaos phase a pure error storm
DEFAULT_FAULTS = LinkFaults(
    drop=0.2, duplicate=0.1, reorder=0.1, rpc_timeout=0.08, reply_lost=0.04
)


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos run; the seed supplies all randomness."""

    host_count: int = 3
    rounds: int = 8
    ops_per_round: int = 4
    #: chance per round that the topology is re-drawn into two groups
    partition_prob: float = 0.35
    #: chance per round that an existing partition heals
    heal_prob: float = 0.5
    faults: LinkFaults = DEFAULT_FAULTS
    #: deterministically replay the same-name cross-host rename collision
    #: before the random schedule begins
    rename_storm: bool = False
    #: distinct file names the operation mix draws from (small on purpose,
    #: so concurrent operations collide)
    file_names: int = 4
    dir_names: int = 2
    #: chance per round that one up host crashes (0.0 keeps the rng
    #: schedule of crash-free seeds byte-identical)
    crash_prob: float = 0.0
    #: rounds a crashed host stays down before the harness reboots it
    crash_down_rounds: int = 2
    #: enable the automatic conflict-resolution registry and mix covered
    #: append-log operations into the schedule (False keeps the rng
    #: schedule of resolver-free seeds byte-identical)
    resolvers: bool = False
    #: peer-selection strategy both daemons run ("full_mesh", "ring",
    #: "gossip"); full_mesh replays historical schedules byte-identically,
    #: and the gossip schedule is seeded from the chaos seed so a failing
    #: run replays its peer selections exactly
    topology: str = "full_mesh"
    #: record the exact call history (every fs call, tick, partition and
    #: heal) as a replayable trace on the report; consumes no randomness,
    #: so recorded and unrecorded runs of a seed are byte-identical
    record_history: bool = False
    #: after convergence, re-execute the recorded history on a fresh
    #: cluster and byte-diff the two (implies ``record_history``)
    verify_replication: bool = False
    #: oracle gate: after the quiesce no replica may report reconciliation
    #: staleness older than this many virtual seconds (None = ungated)
    staleness_slo_seconds: float | None = None
    #: advance the shared virtual clock this much at the top of every
    #: round, so wall-clock staleness accrues during partitions (0.0
    #: keeps historical seeds' timestamps byte-identical; the advance
    #: draws no randomness either way)
    clock_step: float = 0.0


@dataclass
class ChaosReport:
    """What one chaos run did and whether the system converged."""

    seed: int
    ops_attempted: int = 0
    #: operations the fault plane caused to fail at the client
    ops_failed: int = 0
    partitions_formed: int = 0
    faults_injected: dict[str, int] = field(default_factory=dict)
    unresolved_conflicts: int = 0
    #: concurrent-update conflicts the resolver subsystem merged away
    auto_resolved: int = 0
    crashes: int = 0
    restarts: int = 0
    #: oracle violations; empty means the run converged
    problems: list[str] = field(default_factory=list)
    #: the (identical) converged name tree, for report consumers
    tree: list[str] = field(default_factory=list)
    #: flight-recorder dumps written because the oracle failed
    flight_dumps: list[str] = field(default_factory=list)
    #: the recorded call history (``config.record_history``), replayable
    #: through :func:`~repro.workload.replay.replay_trace`
    history: list = field(default_factory=list)
    #: worst per-host wall-clock staleness observed after the quiesce
    max_staleness_seconds: float = 0.0
    #: the replicate-and-verify outcome (``config.verify_replication``)
    verify: object = None

    @property
    def converged(self) -> bool:
        return not self.problems


class _RecordingFs:
    """Transparent recorder around the path-based filesystem facade.

    Every call is appended to the history *before* it runs, so attempts
    the fault plane failed are recorded too — replaying them re-issues
    the same RPCs and therefore consumes the same fault-plane draws,
    which is what makes the re-execution schedule byte-identical.
    """

    def __init__(self, fs, host_name: str, clock, history: list):
        self._fs = fs
        self._host = host_name
        self._clock = clock
        self._history = history

    def _rec(self, op: str, path: str = "", path2: str = "", data: bytes = b"") -> None:
        from repro.workload.replay import TraceOp

        self._history.append(
            TraceOp(
                at=self._clock.now(), op=op, host=self._host, path=path, path2=path2, data=data
            )
        )

    def write_file(self, path: str, data: bytes):
        self._rec("write", path, data=data)
        return self._fs.write_file(path, data)

    def read_file(self, path: str):
        self._rec("read", path)
        return self._fs.read_file(path)

    def exists(self, path: str):
        self._rec("exists", path)
        return self._fs.exists(path)

    def mkdir(self, path: str):
        self._rec("mkdir", path)
        return self._fs.mkdir(path)

    def rename(self, src: str, dst: str):
        self._rec("rename", src, dst)
        return self._fs.rename(src, dst)

    def unlink(self, path: str):
        self._rec("unlink", path)
        return self._fs.unlink(path)


def run_chaos(seed: int, config: ChaosConfig | None = None, dump_dir: str = "out") -> ChaosReport:
    """One seeded chaos run: inject faults, quiesce, check convergence
    (a failed oracle dumps every flight recorder under ``dump_dir``)."""
    config = config or ChaosConfig()
    rng = random.Random(seed)
    report = ChaosReport(seed=seed)

    recording = config.record_history or config.verify_replication
    if recording and (config.rename_storm or config.crash_prob):
        # the storm prologue and crash/restart epochs act outside the
        # trace vocabulary, so a recorded history could not replay them
        raise ValueError("record_history/verify_replication exclude rename_storm and crashes")
    history: list | None = report.history if recording else None

    host_names = [f"h{i}" for i in range(config.host_count)]
    system = FicusSystem(
        host_names,
        daemon_config=_QUIET,
        topology=make_topology(config.topology, seed=seed),
    )
    system.network.faults.reseed(seed)
    if config.resolvers:
        system.enable_resolvers()

    if config.rename_storm:
        _rename_storm(system, host_names)

    system.network.faults.set_default(config.faults)
    partitioned = False
    down: dict[str, int] = {}  # crashed host -> rounds left down
    for round_index in range(config.rounds):
        if config.clock_step:
            system.clock.advance(config.clock_step)
        # reboot hosts whose downtime has elapsed; the restart runs the
        # shadow-commit recovery sweep, so a second sweep must find nothing
        for host_name in [h for h, left in down.items() if left <= 1]:
            del down[host_name]
            _restart_host(system, host_name, report)
        for host_name in down:
            down[host_name] -= 1
        partitioned = _maybe_repartition(
            system, host_names, rng, partitioned, report, config, history
        )
        # config.crash_prob short-circuits before the rng draw, keeping
        # crash-free seeds' schedules byte-identical to before
        if (
            config.crash_prob
            and len(down) < len(host_names) - 1
            and rng.random() < config.crash_prob
        ):
            victim = rng.choice(sorted(h for h in host_names if h not in down))
            system.host(victim).crash()
            down[victim] = config.crash_down_rounds
            report.crashes += 1
        for host_name in host_names:
            if host_name in down:
                continue
            fs = system.host(host_name).fs()
            if history is not None:
                fs = _RecordingFs(fs, host_name, system.clock, history)
            for _ in range(config.ops_per_round):
                report.ops_attempted += 1
                try:
                    _random_op(fs, rng, config, host_name, round_index)
                except FicusError:
                    # an injected timeout or a partition surfaced at the
                    # client — exactly what optimism tolerates
                    report.ops_failed += 1
        # exercise the daemons (and their retry/degraded-peer policies)
        # while the faults are still live
        for host_name in host_names:
            if host_name in down:
                continue
            host = system.host(host_name)
            if history is not None:
                _record_tick(history, system, host_name, "propagation")
            host.propagation_daemon.tick()
            if history is not None:
                _record_tick(history, system, host_name, "recon")
            host.recon_daemon.tick()

    # -- quiesce: withdraw every fault, then converge ---------------------
    for host_name in sorted(down):
        _restart_host(system, host_name, report)
    down.clear()
    report.faults_injected = dict(system.network.faults.injected)
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

    _check_convergence(system, host_names, report, config)
    report.unresolved_conflicts = system.total_conflicts()
    report.auto_resolved = sum(
        system.host(h).recon_daemon.stats.total_auto_resolved for h in host_names
    )

    # wall-clock staleness SLO: after the heal and the convergence
    # rounds, no replica may still be serving data older than the bound
    report.max_staleness_seconds = max(
        (system.host(h).health().max_staleness_seconds for h in host_names), default=0.0
    )
    if (
        config.staleness_slo_seconds is not None
        and report.max_staleness_seconds > config.staleness_slo_seconds
    ):
        for host_name in host_names:
            health = system.host(host_name).health()
            if health.max_staleness_seconds > config.staleness_slo_seconds:
                report.problems.append(
                    f"{host_name}: staleness SLO violated after heal: "
                    f"{health.max_staleness_seconds:g}s > "
                    f"{config.staleness_slo_seconds:g}s ({health.staleness_seconds})"
                )

    if config.verify_replication:
        from repro.workload.verify import replicate_and_verify, state_fingerprint

        baseline = state_fingerprint(system, host_names)
        verify = replicate_and_verify(report.history, seed, config, baseline)
        report.verify = verify
        for problem in verify.problems:
            report.problems.append(f"replicate-and-verify: {problem}")

    if report.problems:
        _dump_flight_recorders(system, host_names, seed, report, dump_dir)
    return report


def _record_tick(history: list, system: FicusSystem, host_name: str, daemon: str) -> None:
    from repro.workload.replay import TraceOp

    history.append(
        TraceOp(at=system.clock.now(), op="tick", host=host_name, path=daemon)
    )


def _restart_host(system: FicusSystem, host_name: str, report: ChaosReport) -> None:
    """Reboot a crashed host and assert the recovery sweep ran clean.

    ``FicusHost.restart`` scavenges orphan shadow files as part of crash
    recovery; a second sweep immediately afterwards must therefore find
    nothing — residue means the atomic-commit recovery path is broken.
    """
    host = system.host(host_name)
    host.restart(system)
    report.restarts += 1
    residue = 0
    for store in host.physical.stores.values():
        for dir_fh in store.all_directory_handles():
            residue += store.scavenge_shadows(dir_fh)
    if residue:
        report.problems.append(
            f"{host_name}: recovery sweep left {residue} shadow file(s) behind"
        )
        plane = host.health_plane
        if plane is not None:
            plane.anomaly("fsck_violation", host=host_name, shadow_residue=residue)


def _dump_flight_recorders(
    system: FicusSystem, host_names: list[str], seed: int, report: ChaosReport, dump_dir: str
) -> None:
    """The oracle failed: freeze every host's flight recorder to disk."""
    os.makedirs(dump_dir, exist_ok=True)
    for host_name in host_names:
        plane = system.host(host_name).health_plane
        if plane is None:
            continue
        snapshot = plane.anomaly(
            "chaos_oracle_failure", seed=seed, problems=report.problems[:5]
        )
        path = os.path.join(dump_dir, f"ficus_flight_chaos_{seed}_{host_name}.jsonl")
        report.flight_dumps.append(plane.recorder.write_dump(snapshot, path))


def _rename_storm(system: FicusSystem, host_names: list[str]) -> None:
    """Replay the headline bug: every host renames one file to one name."""
    first = system.host(host_names[0]).fs()
    first.write_file("/storm", b"contested")
    system.reconcile_everything()
    for host_name in host_names:
        system.host(host_name).propagation_daemon.tick()
    system.partition([{name} for name in host_names])
    for host_name in host_names:
        try:
            system.host(host_name).fs().rename("/storm", "/storm-renamed")
        except FicusError:
            pass  # a replica without the entry yet simply sits this out
    system.heal()


def _maybe_repartition(
    system: FicusSystem,
    host_names: list[str],
    rng: random.Random,
    partitioned: bool,
    report: ChaosReport,
    config: ChaosConfig,
    history: list | None = None,
) -> bool:
    if partitioned and rng.random() < config.heal_prob:
        if history is not None:
            from repro.workload.replay import TraceOp

            history.append(TraceOp(at=system.clock.now(), op="heal"))
        system.heal()
        return False
    if not partitioned and rng.random() < config.partition_prob and len(host_names) > 1:
        shuffled = list(host_names)
        rng.shuffle(shuffled)
        cut = rng.randrange(1, len(shuffled))
        groups = [set(shuffled[:cut]), set(shuffled[cut:])]
        if history is not None:
            from repro.workload.replay import TraceOp

            history.append(
                TraceOp(
                    at=system.clock.now(),
                    op="partition",
                    groups=tuple(frozenset(g) for g in groups),
                )
            )
        system.partition(groups)
        report.partitions_formed += 1
        return True
    return partitioned


def _append_log_line(fs, path: str, line: str) -> None:
    """Append one record to a mailbox-style log file (read-modify-write)."""
    existing = fs.read_file(path) if fs.exists(path) else b""
    fs.write_file(path, existing + line.encode() + b"\n")


def _random_op(fs, rng: random.Random, config: ChaosConfig, host_name: str, round_index: int):
    """One namespace operation drawn from a deliberately small namespace."""
    # the resolvers gate short-circuits before any rng draw, so seeds run
    # without resolvers keep their historical schedules byte-identical
    if config.resolvers and rng.random() < 0.35:
        line = f"{host_name}:{round_index}:{rng.randrange(1000)}"
        _append_log_line(fs, f"/box{rng.randrange(2)}.log", line)
        return
    roll = rng.random()
    fname = f"/f{rng.randrange(config.file_names)}"
    dname = f"/d{rng.randrange(config.dir_names)}"
    if roll < 0.45:
        fs.write_file(fname, f"{host_name}:{round_index}:{rng.randrange(1000)}".encode())
    elif roll < 0.60:
        if not fs.exists(dname):
            fs.mkdir(dname)
        else:
            fs.write_file(f"{dname}/inner", host_name.encode())
    elif roll < 0.80:
        target = f"/f{rng.randrange(config.file_names)}"
        if fs.exists(fname) and fname != target and not fs.exists(target):
            fs.rename(fname, target)
    else:
        if fs.exists(fname):
            fs.unlink(fname)


def _check_convergence(
    system: FicusSystem, host_names: list[str], report: ChaosReport, config: ChaosConfig
) -> None:
    registry = system.resolvers if config.resolvers else None
    for host_name in host_names:
        host = system.host(host_name)
        for volrep, store in host.physical.stores.items():
            # the conflict log rides along so fsck can audit resolution
            # bookkeeping (resolved vvs must strictly dominate both inputs)
            fsck = ficus_fsck(store, conflict_log=host.conflict_log, resolvers=registry)
            for problem in fsck.problems:
                report.problems.append(f"{host_name}/{volrep}: {problem}")

    trees = {name: sorted(system.host(name).fs().walk_tree()) for name in host_names}
    baseline_host = host_names[0]
    baseline = trees[baseline_host]
    for host_name in host_names[1:]:
        if trees[host_name] != baseline:
            report.problems.append(
                f"trees diverged: {baseline_host}={baseline} vs "
                f"{host_name}={trees[host_name]}"
            )
    report.tree = baseline

    # resolver-covered files get the strong oracle: the registry merged
    # every concurrent update, so zero unresolved conflicts may mention
    # them and every replica must hold byte-identical contents — even
    # when hosts resolved the same conflict independently
    if registry is not None and not report.problems:
        for path in baseline:
            name = path.rsplit("/", 1)[-1]
            if not registry.covers(name):
                continue
            contents = set()
            for host_name in host_names:
                fs = system.host(host_name).fs()
                if fs.stat(path).is_file:
                    contents.add(fs.read_file(path))
            if len(contents) > 1:
                report.problems.append(
                    f"{path}: resolver-covered contents diverged across replicas"
                )
        for host_name in host_names:
            for open_conflict in system.host(host_name).conflict_log.unresolved():
                if registry.covers(open_conflict.name):
                    report.problems.append(
                        f"{host_name}: resolver-covered file "
                        f"{open_conflict.name!r} left unresolved"
                    )

    # contents must agree wherever no conflict is on record; a reported
    # update conflict legitimately preserves both versions until resolved
    if system.total_conflicts() == 0 and not report.problems:
        for path in baseline:
            contents = set()
            for host_name in host_names:
                fs = system.host(host_name).fs()
                if fs.stat(path).is_file:
                    contents.add(fs.read_file(path))
            if len(contents) > 1:
                report.problems.append(f"{path}: contents diverged with no conflict reported")


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Seeded chaos convergence runs")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 17, 23])
    parser.add_argument(
        "--rename-storm-seed",
        type=int,
        default=None,
        help="additionally run this seed with the cross-host rename collision replay",
    )
    parser.add_argument(
        "--crash-seed",
        type=int,
        default=None,
        help="additionally run this seed with seeded host crash/restart epochs",
    )
    parser.add_argument(
        "--resolver-seed",
        type=int,
        default=None,
        help="additionally run this seed with automatic conflict resolvers "
        "and covered append-log traffic in the mix",
    )
    parser.add_argument(
        "--verify-seed",
        type=int,
        default=None,
        help="additionally run this seed recording its full call history, then "
        "re-execute the recording on a fresh cluster and byte-diff the two "
        "(with the wall-clock staleness SLO gated)",
    )
    parser.add_argument(
        "--staleness-slo",
        type=float,
        default=60.0,
        help="staleness bound in virtual seconds applied to the --verify-seed run",
    )
    parser.add_argument("--hosts", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--dump-dir", default="out", help="where a diverged run dumps its flight recorders")
    parser.add_argument(
        "--topology",
        choices=sorted(TOPOLOGIES),
        default="full_mesh",
        help="peer-selection strategy for both daemons (default: full_mesh, "
        "which replays historical seed schedules byte-identically)",
    )
    args = parser.parse_args(argv)

    base = ChaosConfig(host_count=args.hosts, rounds=args.rounds, topology=args.topology)
    runs = [(seed, base) for seed in args.seeds]
    if args.rename_storm_seed is not None:
        runs.append((args.rename_storm_seed, replace(base, rename_storm=True)))
    if args.crash_seed is not None:
        runs.append((args.crash_seed, replace(base, crash_prob=0.25)))
    if args.resolver_seed is not None:
        runs.append((args.resolver_seed, replace(base, resolvers=True)))
    if args.verify_seed is not None:
        runs.append(
            (
                args.verify_seed,
                replace(
                    base,
                    verify_replication=True,
                    staleness_slo_seconds=args.staleness_slo,
                    clock_step=1.0,
                ),
            )
        )

    failures = 0
    for seed, config in runs:
        report = run_chaos(seed, config, dump_dir=args.dump_dir)
        status = "converged" if report.converged else "DIVERGED"
        storm = "" if config.topology == "full_mesh" else f" [{config.topology}]"
        storm += " +rename-storm" if config.rename_storm else ""
        if config.resolvers:
            storm += f" +resolvers({report.auto_resolved} auto-resolved)"
        if config.verify_replication:
            verdict = "replay identical" if report.verify.identical else "REPLAY DIVERGED"
            storm += (
                f" +verify({len(report.history)} ops recorded, {verdict}, "
                f"staleness {report.max_staleness_seconds:g}s)"
            )
        crashes = f", {report.crashes} crashes" if config.crash_prob else ""
        print(
            f"seed {seed}{storm}: {status}; "
            f"{report.ops_attempted} ops ({report.ops_failed} failed), "
            f"{report.partitions_formed} partitions{crashes}, "
            f"faults {report.faults_injected or '{}'}, "
            f"{report.unresolved_conflicts} conflicts open"
        )
        for problem in report.problems:
            print(f"  !! {problem}")
        for path in report.flight_dumps:
            print(f"  flight recorder dumped: {path}")
        failures += 0 if report.converged else 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
