"""Chaos convergence harness: seeded faults, then prove convergence.

"One key problem faced by a file system such as Ficus is that update
propagation is not reliable" (paper Section 2.3.1) — notifications are
best-effort datagrams, hosts crash between executing an operation and
acknowledging it, and partitions come and go.  The system's answer is
that *reconciliation* guarantees eventual consistency regardless of what
the optimistic fast path loses.

This harness puts that guarantee under test.  A run is a list of steps
(:class:`~repro.workload.replay.TraceOp`) that :func:`chaos_schedule`
draws from the seed before anything executes: namespace operations,
partitions and heals, crashes and restarts, daemon ticks and clock
advances.  The one executor, :func:`~repro.workload.replay.replay_trace`,
runs that list on a cluster whose :class:`~repro.net.FaultPlane` drops,
duplicates, reorders, and times out traffic.  Then every fault is
withdrawn and the system is given a bounded number of reconciliation
rounds, after which the oracle runs:

* ``ficus_fsck`` must be clean on every replica (this includes the
  duplicate-(name, fh) invariant behind the cross-host rename bug);
* every host must report an identical name tree;
* file contents must agree wherever no update conflict was reported.

Everything is derived from one integer seed — the fault plane, the
partition schedule, and the operation mix — so any failure replays
exactly with ``run_chaos(seed)``, and from the ``chaos_<seed>.schedule``
file a failed run writes beside its flight-recorder dumps.

The command line is :mod:`repro.tools.ficus_chaos`.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import FicusError
from repro.net import LinkFaults
from repro.physical import ficus_fsck
from repro.sim import DaemonConfig, FicusSystem, make_topology
from repro.workload.replay import CLIENT_OPS, TraceOp, encode_schedule, replay_trace

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
    #: while the cluster is built, before its faults are armed
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
    #: peer-selection strategy both daemons run ("full_mesh" or "gossip");
    #: full_mesh replays historical schedules byte-identically,
    #: and the gossip schedule is seeded from the chaos seed so a failing
    #: run replays its peer selections exactly
    topology: str = "full_mesh"
    #: after convergence, execute the schedule again on a fresh cluster
    #: and byte-diff the two
    verify_replication: bool = False
    #: oracle gate: after the quiesce no replica may report reconciliation
    #: staleness older than this many virtual seconds (None = ungated)
    staleness_slo_seconds: float | None = None
    #: advance the shared virtual clock this much at the top of every
    #: round, so wall-clock staleness accrues during partitions (0.0
    #: keeps historical seeds' timestamps byte-identical; the advance
    #: draws no randomness either way)
    clock_step: float = 0.0

    @property
    def host_names(self) -> list[str]:
        return [f"h{i}" for i in range(self.host_count)]


@dataclass
class ChaosReport:
    """What one chaos run did and whether the system converged."""

    seed: int
    #: the steps the run executed (:func:`chaos_schedule`)
    schedule: list[TraceOp] = field(default_factory=list)
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
    #: worst per-host wall-clock staleness observed after the quiesce
    max_staleness_seconds: float = 0.0
    #: the replicate-and-verify outcome (``config.verify_replication``)
    verify: object = None

    @property
    def converged(self) -> bool:
        return not self.problems


def run_chaos(seed: int, config: ChaosConfig | None = None, dump_dir: str = "out") -> ChaosReport:
    """One seeded chaos run: execute its schedule, quiesce, check
    convergence (a failed oracle dumps every flight recorder, and the
    schedule, under ``dump_dir``)."""
    config = config or ChaosConfig()
    report = ChaosReport(seed=seed, schedule=chaos_schedule(seed, config))
    system, host_names = build_cluster(seed, config)
    result = replay_trace(system, report.schedule)
    kinds = Counter(step.op for step in report.schedule)
    report.ops_attempted = sum(kinds[kind] for kind in CLIENT_OPS)
    report.partitions_formed = kinds["partition"]
    report.crashes, report.restarts = kinds["crash"], kinds["restart"]
    for step, error in result.failures:
        if step.op in CLIENT_OPS:
            # an injected timeout or a partition surfaced at the client —
            # exactly what optimism tolerates
            report.ops_failed += 1
        else:
            report.problems.append(f"{step.host}: {step.op} failed: {error}")

    # -- quiesce: withdraw every fault, then converge ---------------------
    report.faults_injected = dict(system.network.faults.injected)
    quiesce(system, host_names)

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
        verify = replicate_and_verify(report.schedule, seed, config, baseline)
        report.verify = verify
        for problem in verify.problems:
            report.problems.append(f"replicate-and-verify: {problem}")

    if report.problems:
        _dump_evidence(system, host_names, seed, report, dump_dir)
    return report


def chaos_schedule(seed: int, config: ChaosConfig) -> list[TraceOp]:
    """The steps of the chaos run of ``seed``, drawn before any executes.

    No draw reads system state: each depends only on the seed and on the
    generator's own record of which hosts are partitioned or down, so the
    list is a function of ``(seed, config)`` alone.  An operation whose
    effect depends on state (rename onto a free name only, ...) is one
    guarded step, and the executor runs its ``exists`` probes.
    """
    rng = random.Random(seed)
    host_names = config.host_names
    steps: list[TraceOp] = []
    partitioned = False
    down: dict[str, int] = {}  # crashed host -> rounds left down
    for round_index in range(config.rounds):
        if config.clock_step:
            steps.append(TraceOp(op="advance", seconds=config.clock_step))
        # reboot hosts whose downtime has elapsed
        for host_name in [h for h, left in down.items() if left <= 1]:
            del down[host_name]
            steps.append(TraceOp(op="restart", host=host_name))
        for host_name in down:
            down[host_name] -= 1
        if partitioned and rng.random() < config.heal_prob:
            steps.append(TraceOp(op="heal"))
            partitioned = False
        elif not partitioned and rng.random() < config.partition_prob and len(host_names) > 1:
            shuffled = list(host_names)
            rng.shuffle(shuffled)
            cut = rng.randrange(1, len(shuffled))
            groups = (frozenset(shuffled[:cut]), frozenset(shuffled[cut:]))
            steps.append(TraceOp(op="partition", groups=groups))
            partitioned = True
        # config.crash_prob short-circuits before the rng draw, keeping
        # crash-free seeds' schedules byte-identical to before
        if (
            config.crash_prob
            and len(down) < len(host_names) - 1
            and rng.random() < config.crash_prob
        ):
            victim = rng.choice(sorted(h for h in host_names if h not in down))
            steps.append(TraceOp(op="crash", host=victim))
            down[victim] = config.crash_down_rounds
        up = [h for h in host_names if h not in down]
        for host_name in up:
            for _ in range(config.ops_per_round):
                steps.append(_random_op(rng, config, host_name, round_index))
        # exercise the daemons (and their retry/degraded-peer policies)
        # while the faults are still live
        for host_name in up:
            steps.append(TraceOp(op="tick", host=host_name, path="propagation"))
            steps.append(TraceOp(op="tick", host=host_name, path="recon"))
    # hosts still down reboot while the faults are live, before the quiesce
    steps.extend(TraceOp(op="restart", host=host_name) for host_name in sorted(down))
    return steps


def build_cluster(seed: int, config: ChaosConfig) -> tuple[FicusSystem, list[str]]:
    """The cluster a chaos run of ``seed`` drives, its faults armed.

    Everything random about it (the gossip schedule, the fault plane's
    draws) is seeded from ``seed``, so building it twice and executing
    the same steps reproduces the same datagram and fault schedule.
    """
    host_names = config.host_names
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
    return system, host_names


def quiesce(system: FicusSystem, host_names: list[str]) -> None:
    """Withdraw every fault and partition, then converge: the bounded
    reconciliation rounds and propagation ticks the oracle runs after."""
    system.heal()
    system.network.faults.clear()
    system.network.flush_deferred_datagrams()
    for host_name in host_names:
        system.host(host_name).health_plane.peer_health.reset()
    system.reconcile_everything(rounds=len(host_names) + 2)
    for _ in range(2):
        for host_name in host_names:
            system.host(host_name).propagation_daemon.tick()


def _dump_evidence(
    system: FicusSystem, host_names: list[str], seed: int, report: ChaosReport, dump_dir: str
) -> None:
    """The oracle failed: freeze every host's flight recorder to disk,
    and the schedule, which reproduces the run on a fresh cluster."""
    os.makedirs(dump_dir, exist_ok=True)
    for host_name in host_names:
        plane = system.host(host_name).health_plane
        snapshot = plane.anomaly(
            "chaos_oracle_failure", seed=seed, problems=report.problems[:5]
        )
        path = os.path.join(dump_dir, f"ficus_flight_chaos_{seed}_{host_name}.jsonl")
        report.flight_dumps.append(plane.recorder.write_dump(snapshot, path))
    with open(os.path.join(dump_dir, f"chaos_{seed}.schedule"), "w") as out:
        out.write(encode_schedule(report.schedule))


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


def _random_op(rng: random.Random, config: ChaosConfig, host_name: str, round_index: int) -> TraceOp:
    """One namespace operation drawn from a deliberately small namespace."""
    # the resolvers gate short-circuits before any rng draw, so seeds run
    # without resolvers keep their historical schedules byte-identical
    if config.resolvers and rng.random() < 0.35:
        line = f"{host_name}:{round_index}:{rng.randrange(1000)}\n"
        return TraceOp(
            op="append", host=host_name, path=f"/box{rng.randrange(2)}.log", data=line.encode()
        )
    roll = rng.random()
    fname = f"/f{rng.randrange(config.file_names)}"
    dname = f"/d{rng.randrange(config.dir_names)}"
    if roll < 0.45:
        data = f"{host_name}:{round_index}:{rng.randrange(1000)}".encode()
        return TraceOp(op="write", host=host_name, path=fname, data=data)
    if roll < 0.60:
        return TraceOp(
            op="mkdir_or_write", host=host_name, path=dname, path2=f"{dname}/inner",
            data=host_name.encode(),
        )
    if roll < 0.80:
        target = f"/f{rng.randrange(config.file_names)}"
        return TraceOp(op="rename_if_free", host=host_name, path=fname, path2=target)
    return TraceOp(op="unlink_if_exists", host=host_name, path=fname)


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
