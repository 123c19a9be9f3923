"""Build a cluster, drive one workload through ``fs()``, measure, verify.

One call to :func:`run_pass` is one pass over one workload in this
process: set-up (build + populate + initial convergence), an untimed
warm-up, the timed closed loop (op, verify, think-time advance), the
final drain, the end-of-run oracles, and the metrics.  The traced pass is
the same code with a :class:`~.trace.Tracer` installed, cut off after
the first quarter of the timed ops.

Timings use the thread CPU clock.  This is a single-threaded simulator
with no real I/O, so CPU time is the work done; wall-clock time on a
shared VM also counts whatever else the host was doing.  Every CPU
timing is then normalised by the machine speed measured around it (see
``calibrate.py``); the wall-clock twins are reported raw, for information.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

from repro.errors import FicusError
from repro.inspect import diff_replicas
from repro.physical import ficus_fsck
from repro.sim import FicusSystem
from repro.ufs import fsck

from .calibrate import INTERVAL_NS, REFERENCE_NS, Kernel
from .spec import LAYERS
from .trace import Tracer
from .workloads import GENERATORS, HEAL, KINDS, OP_CLASSES, PARTITION, Trace

CPU = time.thread_time_ns
WALL = time.perf_counter_ns

#: a p99 needs ten samples beyond it
P99_MIN_SAMPLES = 1000
#: virtual seconds per drain step: one propagation-daemon period
DRAIN_STEP = 5.0
#: convergence steps before the run is declared stuck
MAX_CONVERGE_STEPS = 64
#: kernel runs per calibration point beside a convergence step
LONG_STEP_BURST = 5

# timeline tags besides the op classes
_CAL, _SETUP, _CONVERGE, _CONVERGED, _QUARTER = "cal", "setup", "converge", "converged", "quarter"


@dataclass
class Counters:
    """Every public counter the metrics are derived from, at one instant."""

    rpcs: int = 0
    rpcs_failed: int = 0
    datagrams_sent: int = 0
    datagrams_lost: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    disk_reads: int = 0
    disk_writes: int = 0
    attr_hits: int = 0
    attr_misses: int = 0
    attr_invalidations: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    name_hits: int = 0
    name_misses: int = 0
    propagation_ticks: int = 0
    recon_ticks: int = 0
    pulls_attempted: int = 0
    pulls_succeeded: int = 0
    bytes_copied: int = 0
    bytes_saved: int = 0
    files_pulled: int = 0
    subtrees_pruned: int = 0
    probe_rpcs: int = 0
    conflicts_auto_resolved: int = 0
    file_conflicts: int = 0

    @classmethod
    def read(cls, system: FicusSystem) -> "Counters":
        net = system.network.stats
        c = cls(
            rpcs=net.rpcs_sent,
            rpcs_failed=net.rpcs_failed,
            datagrams_sent=net.datagrams_sent,
            datagrams_lost=net.datagrams_lost,
            bytes_sent=sum(p.bytes_sent for p in net.per_peer.values()),
            bytes_received=sum(p.bytes_received for p in net.per_peer.values()),
        )
        for host in system.hosts.values():
            c.disk_reads += host.device.counters.reads
            c.disk_writes += host.device.counters.writes
            attr = host.logical.attr_cache.stats
            c.attr_hits += attr.hits
            c.attr_misses += attr.misses
            c.attr_invalidations += attr.invalidations
            c.buffer_hits += host.ufs.cache.stats.hits
            c.buffer_misses += host.ufs.cache.stats.misses
            c.name_hits += host.ufs.namecache.stats.hits
            c.name_misses += host.ufs.namecache.stats.misses
            # the daemons keep no public tick counter; their private tick
            # index is the one piece of non-public state read here
            # (propagation counts only ticks that found a pending note)
            c.propagation_ticks += host.propagation_daemon._tick_index
            c.recon_ticks += host.recon_daemon._tick_index
            prop = host.propagation_daemon.stats
            c.pulls_attempted += prop.pulls_attempted
            c.pulls_succeeded += prop.pulls_succeeded
            c.bytes_copied += prop.bytes_copied
            c.bytes_saved += prop.bytes_saved
            for result in host.recon_daemon.stats.results:
                c.bytes_copied += result.bytes_copied
                c.bytes_saved += result.bytes_saved
                c.files_pulled += result.files_pulled
                c.subtrees_pruned += result.subtrees_pruned
                c.probe_rpcs += result.probe_rpcs
                c.conflicts_auto_resolved += result.conflicts_auto_resolved
                c.file_conflicts += result.file_conflicts
        return c

    def since(self, earlier: "Counters") -> "Counters":
        return Counters(**{k: v - getattr(earlier, k) for k, v in vars(self).items()})


@dataclass
class PassResult:
    """What one pass measured; ``metrics`` holds every named value."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: timed user ops, RPCs, disk I/Os and normalised CPU ns from the end
    #: of warm-up to the quarter mark — the region both passes cover
    prefix: dict[str, float] = field(default_factory=dict)
    #: files written under ``--out``
    artifacts: list[str] = field(default_factory=list)


class _Timeline:
    """Raw CPU measurements in program order, with a calibration sample
    between them at least every ``INTERVAL_NS`` of measured time."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        #: (tag, ns, second ns, count) or (_CAL, kernel ns)
        self.items: list[tuple] = []
        self._since = 0
        self.calibrate()

    def calibrate(self, burst: int = 1) -> None:
        """One calibration point: the median of ``burst`` kernel runs."""
        sample = statistics.median(self.kernel.sample() for _ in range(burst))
        self.items.append((_CAL, sample))
        self._since = 0

    def add(self, tag: str, ns: int = 0, more_ns: int = 0, count: int = 0) -> None:
        self.items.append((tag, ns, more_ns, count))
        self._since += ns + more_ns
        if self._since >= INTERVAL_NS:
            self.calibrate()

    def normalised(self):
        """Every measurement with its times rescaled to the reference
        machine speed: the factor is the mean of the calibration samples
        on either side of it."""
        if self.items[-1][0] != _CAL:
            self.calibrate()
        pending: list[tuple] = []
        previous = 0
        for item in self.items:
            if item[0] != _CAL:
                pending.append(item)
                continue
            sample = item[1]
            factor = REFERENCE_NS / ((previous + sample) / 2 if previous else sample)
            for tag, ns, more_ns, count in pending:
                yield tag, ns * factor, more_ns * factor, count
            pending.clear()
            previous = sample

    def total_ns(self) -> float:
        return sum(ns + more_ns for _, ns, more_ns, _ in self.normalised())

    def speed(self) -> float:
        """Median machine speed relative to the reference (0.5 = half as fast)."""
        return REFERENCE_NS / statistics.median(item[1] for item in self.items if item[0] == _CAL)


class _Run:
    """One cluster and the ways the benchmark moves it forward."""

    def __init__(self, trace: Trace):
        self.trace = trace
        cluster = trace.cluster
        self.system = FicusSystem(
            list(cluster.hosts),
            root_volume_hosts=list(cluster.replica_hosts) if cluster.replica_hosts else None,
            host_config=cluster.host_config,
        )
        if cluster.resolvers:
            self.system.enable_resolvers()
        self.stores = [
            store for host in self.system.hosts.values() for store in host.physical.stores.values()
        ]

    def converged(self, every_pair: bool = False) -> bool:
        """Store-level convergence (never inside a timed region).  A chain
        of neighbouring pairs is enough while iterating; the final oracle
        checks every pair."""
        stores = self.stores
        pairs = (
            [(a, b) for i, a in enumerate(stores) for b in stores[i + 1 :]]
            if every_pair
            else zip(stores, stores[1:])
        )
        return all(diff_replicas(a, b).converged for a, b in pairs)

    def converge(self, step, timeline: _Timeline) -> int:
        """Call ``step`` until the replicas agree, timing each call into
        ``timeline``; returns the number of steps, or -1 when stuck."""
        steps = 0
        while not self.converged():
            if steps == MAX_CONVERGE_STEPS:
                return -1
            # a step can run for seconds and has only the calibration
            # points on either side of it: make those two good ones
            timeline.calibrate(LONG_STEP_BURST)
            start = CPU()
            step()
            timeline.add(_CONVERGE, CPU() - start)
            timeline.calibrate(LONG_STEP_BURST)
            steps += 1
        return steps

    def drain_step(self) -> None:
        self.system.run_for(DRAIN_STEP)

    def reconcile_step(self) -> None:
        self.system.reconcile_everything(rounds=1)

    def populate(self, timeline: _Timeline) -> None:
        fs = self.system.host(self.trace.cluster.clients[0]).fs()
        start = CPU()
        for directory in self.trace.dirs:
            fs.mkdir(directory)
        timeline.add(_SETUP, CPU() - start)
        for path, data in self.trace.files:
            start = CPU()
            fs.write_file(path, data)
            timeline.add(_SETUP, CPU() - start)


def _check(op, result) -> bool:
    if op.kind == "read":
        return result == op.expect
    if op.kind == "stat":
        return result.size == op.expect
    if op.kind == "listdir":
        return sorted(result) == op.expect
    return True


def _got(call, path):
    """What ``call(path)`` returns, or the error it raised: to the oracles
    a lost file is a violation to report, not a crash."""
    try:
        return call(path)
    except FicusError as exc:
        return exc


def _oracles(run: _Run) -> list[str]:
    """End-of-run correctness checks; each returned line is one violation."""
    system, trace = run.system, run.trace
    problems = []
    for name, host in system.hosts.items():
        for volrep, store in host.physical.stores.items():
            report = ficus_fsck(store, conflict_log=host.conflict_log, resolvers=system.resolvers)
            problems += [f"ficus_fsck {name}/{volrep}: {p}" for p in report.problems]
        problems += [f"ufs fsck {name}: {p}" for p in fsck(host.ufs).problems]
    if trace.cluster.replicated and not run.converged(every_pair=True):
        problems.append("replica stores did not converge")
    if system.total_conflicts():
        problems.append(f"{system.total_conflicts()} unresolved conflicts")
    # the shadow model's final state, read back through every client
    expected_names: dict[str, list[str]] = {d: [] for d in trace.dirs}
    for path in list(trace.final_files) + list(trace.final_logs):
        directory, name = path.rsplit("/", 1)
        expected_names[directory].append(name)
    for client in trace.cluster.clients:
        fs = system.host(client).fs()
        for directory, names in expected_names.items():
            if _got(lambda d: sorted(fs.listdir(d)), directory) != sorted(names):
                problems.append(f"{client}: listing of {directory} differs from the shadow model")
        for path, data in trace.final_files.items():
            if _got(fs.read_file, path) != data:
                problems.append(f"{client}: contents of {path} differ from the shadow model")
        for path, records in trace.final_logs.items():
            if _got(lambda p: {r for r in fs.read_file(p).split(b"\n") if r}, path) != records:
                problems.append(f"{client}: records of {path} differ from the shadow model")
    return problems


def _dump_failure(run: _Run, result: PassResult, out_dir: str, detail: dict) -> None:
    """Leave evidence under ``out_dir``: what failed, and every host's
    flight-recorder ring frozen at the moment the run ended."""
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{result.workload}_seed{result.seed}"
    path = os.path.join(out_dir, f"failure_{stem}.json")
    with open(path, "w", encoding="utf-8") as fp:
        json.dump({"problems": result.problems, **detail}, fp, indent=1)
    result.artifacts.append(path)
    for name, host in run.system.hosts.items():
        plane = host.health_plane
        snapshot = plane.anomaly("e2e_oracle_failure", workload=result.workload, seed=result.seed)
        flight = os.path.join(out_dir, f"flight_{stem}_{name}.jsonl")
        result.artifacts.append(plane.recorder.write_dump(snapshot, flight))


def run_pass(workload: str, seed: int, scale: float, traced: bool, out_dir: str) -> PassResult:
    """One pass of one workload; the traced pass stops at the quarter mark."""
    trace = GENERATORS[workload](seed, scale)
    result = PassResult(workload, seed)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        _execute(trace, tracer, result, out_dir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # an oracle violation counts like a failed op
    result.failed += len(result.problems)
    return result


def _execute(trace: Trace, tracer: Tracer | None, result: PassResult, out_dir: str) -> None:
    cluster = trace.cluster
    ops = trace.ops
    stop = trace.quarter if tracer is not None else len(ops)
    kernel = Kernel()

    # -- set-up: build, populate through fs(), reach initial convergence ----
    setup = _Timeline(kernel)
    wall0, cpu0 = WALL(), CPU()
    run = _Run(trace)
    setup.add(_SETUP, CPU() - cpu0)
    run.populate(setup)
    if cluster.replicated and run.converge(run.drain_step, setup) < 0:
        result.problems.append("set-up did not converge")
    # the convergence checks and calibration are not set-up work, but a
    # wall-clock figure cannot leave them out: it is informational
    setup_wall_ns = WALL() - wall0

    system = run.system
    think = cluster.think
    fs = {client: system.host(client).fs() for client in cluster.clients}
    calls = {
        (client, kind): getattr(fs[client], KINDS[kind][0]) for client in fs for kind in KINDS
    }
    timeline = _Timeline(kernel)
    timed = timed_wall_ns = 0
    start = quarter = Counters()
    first_failure: dict = {}
    gc.collect()

    # -- the closed loop ----------------------------------------------------
    for index in range(stop):
        if index == trace.warmup:
            start = Counters.read(system)
            if tracer is not None:
                tracer.active = True
        if index == trace.quarter:
            quarter = Counters.read(system).since(start)
            timeline.add(_QUARTER, count=timed)
        op = ops[index]
        kind = op.kind
        timing = index >= trace.warmup
        tracing = tracer is not None and timing
        if kind == PARTITION:
            system.partition([set(group) for group in cluster.groups])
            continue
        if kind == HEAL:
            # always timed: a cycle is a fifth of the list, warm-up a twentieth
            system.heal()
            if tracing:
                tracer.begin(index, "converge")
            wall = WALL()
            steps = run.converge(run.reconcile_step, timeline)
            if steps < 0:
                result.problems.append(f"no convergence after heal at op {index}")
            timeline.add(_CONVERGED, count=steps)
            timed_wall_ns += WALL() - wall
            continue

        call = calls[op.client, kind]
        op_class = KINDS[kind][2]
        result.attempted += 1
        if tracing:
            tracer.begin(index, op_class)
        wall = WALL()
        t0 = CPU()
        try:
            value = call(op.path, op.arg) if KINDS[kind][1] else call(op.path)
            t1 = CPU()
            error = "" if _check(op, value) else "result differs from the shadow model"
        except Exception:
            # an op that raises is a failed op, not a failed benchmark run
            t1 = CPU()
            error = traceback.format_exc()
        if error:
            result.failed += 1
            if not first_failure:
                first_failure = {"op_index": index, "op": [kind, op.client, op.path], "error": error}
        if tracing:
            tracer.begin(index, "think")
        t2 = CPU()
        system.run_for(think)
        t3 = CPU()
        if timing:
            timed += 1
            timed_wall_ns += WALL() - wall
            timeline.add(op_class, t1 - t0, t3 - t2)

    if tracer is not None:
        tracer.active = False
        totals = _Totals(timeline)
        result.prefix = _prefix(timed, Counters.read(system).since(start), totals.cpu_ns())
        _trace_metrics(tracer, result, trace, timeline.speed(), out_dir)
        return

    # -- final drain, oracles, metrics ---------------------------------------
    drain = _Timeline(kernel)
    drain_steps = 0
    if cluster.replicated and HEAL not in (op.kind for op in ops):
        drain_steps = run.converge(run.drain_step, drain)
        if drain_steps < 0:
            result.problems.append("final drain did not converge")
    delta = Counters.read(system).since(start)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.problems += _oracles(run)
    if result.failed or result.problems:
        _dump_failure(run, result, out_dir, first_failure)

    totals = _Totals(timeline)
    result.prefix = _prefix(totals.quarter_ops, quarter, totals.quarter_ns)
    samples = totals.samples
    m = result.metrics
    m["setup_s"] = setup.total_ns() / 1e9
    m["setup_s_wall"] = setup_wall_ns / 1e9
    m["ops_per_s"] = timed * 1e9 / totals.cpu_ns()
    m["ops_per_s_wall"] = timed * 1e9 / timed_wall_ns
    m["machine_speed"] = timeline.speed()
    for op_class in ("read", "write", "nsop"):
        m[f"{op_class}_p50_us"] = _p50(samples[op_class])
        m[f"{op_class}_p99_us"] = _p99(samples[op_class])
    m["lookup_p50_us"] = _p50(samples["lookup"])
    # per heal where the workload heals, else the one drain after the last op
    m["converge_s"] = (
        statistics.median(totals.converge_ns) if totals.converge_ns else drain.total_ns()
    ) / 1e9
    m["rpcs_per_op"] = delta.rpcs / timed
    m["disk_ios_per_op"] = (delta.disk_reads + delta.disk_writes) / timed
    m["wire_bytes_per_op"] = (delta.bytes_sent + delta.bytes_received) / timed
    m["peak_rss_mb"] = peak_rss_kib / 1024

    m["logical.attr_cache_hit_rate"] = _ratio(delta.attr_hits, delta.attr_hits + delta.attr_misses)
    m["logical.attr_cache_invalidations_per_op"] = delta.attr_invalidations / timed
    m["net.rpcs"] = delta.rpcs
    m["net.rpcs_failed"] = delta.rpcs_failed
    m["net.bytes_sent"] = delta.bytes_sent
    m["net.bytes_received"] = delta.bytes_received
    m["net.datagrams_sent"] = delta.datagrams_sent
    m["net.datagrams_lost"] = delta.datagrams_lost
    m["physical.notes_pending_end"] = sum(
        host.physical.new_version_cache_size for host in system.hosts.values()
    )
    m["ufs.buffer_cache_hit_rate"] = _ratio(
        delta.buffer_hits, delta.buffer_hits + delta.buffer_misses
    )
    m["ufs.name_cache_hit_rate"] = _ratio(delta.name_hits, delta.name_hits + delta.name_misses)
    m["storage.reads_per_op"] = delta.disk_reads / timed
    m["storage.writes_per_op"] = delta.disk_writes / timed
    user_bytes = sum(len(data) for data in trace.final_files.values()) + sum(
        sum(len(r) + 1 for r in records) for records in trace.final_logs.values()
    )
    stored = sum(h.device.blocks_in_use * h.device.block_size for h in system.hosts.values())
    m["storage.stored_bytes_per_user_byte"] = stored / user_bytes
    m["sim.daemon_cpu_share"] = 1 - totals.op_ns / (totals.cpu_ns() + drain.total_ns())
    m["sim.propagation_ticks"] = delta.propagation_ticks
    m["sim.recon_ticks"] = delta.recon_ticks
    m["recon.pulls_attempted"] = delta.pulls_attempted
    m["recon.pulls_succeeded"] = delta.pulls_succeeded
    m["recon.pull_useful_ratio"] = _ratio(delta.pulls_succeeded, delta.pulls_attempted)
    m["recon.bytes_copied"] = delta.bytes_copied
    m["recon.bytes_saved"] = delta.bytes_saved
    m["recon.files_pulled"] = delta.files_pulled
    m["recon.subtrees_pruned"] = delta.subtrees_pruned
    m["recon.probe_rpcs"] = delta.probe_rpcs
    m["recon.conflicts_auto_resolved"] = delta.conflicts_auto_resolved
    m["recon.file_conflicts"] = delta.file_conflicts
    m["recon.rounds_to_converge"] = (
        statistics.median(totals.converge_steps) if totals.converge_steps else drain_steps
    )


class _Totals:
    """The timed phase's timeline folded into what the metrics need
    (all times normalised nanoseconds)."""

    def __init__(self, timeline: _Timeline):
        self.samples: dict[str, list[float]] = {c: [] for c in OP_CLASSES}
        self.op_ns = self.think_ns = 0.0
        #: one entry per reconciliation to convergence after a heal
        self.converge_ns: list[float] = []
        self.converge_steps: list[int] = []
        self.quarter_ops = 0
        self.quarter_ns = 0.0
        open_ns = 0.0
        for tag, ns, more_ns, count in timeline.normalised():
            if tag == _CONVERGE:
                open_ns += ns
            elif tag == _CONVERGED:
                self.converge_ns.append(open_ns)
                self.converge_steps.append(count)
                open_ns = 0.0
            elif tag == _QUARTER:
                self.quarter_ops = count
                self.quarter_ns = self.cpu_ns()
            else:
                self.samples[tag].append(ns)
                self.op_ns += ns
                self.think_ns += more_ns
    def cpu_ns(self) -> float:
        return self.op_ns + self.think_ns + sum(self.converge_ns)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p99(samples: list[float]) -> float:
    if len(samples) < P99_MIN_SAMPLES:
        return 0.0
    return sorted(samples)[(len(samples) * 99) // 100] / 1000


def _p50(samples: list[float]) -> float:
    return statistics.median(samples) / 1000 if samples else 0.0


def _prefix(ops: int, delta: Counters, cpu_ns: float) -> dict[str, float]:
    return {
        "ops": ops,
        "rpcs": delta.rpcs,
        "disk_ios": delta.disk_reads + delta.disk_writes,
        "cpu_ns": cpu_ns,
    }


def _trace_metrics(
    tracer: Tracer, result: PassResult, trace: Trace, machine_speed: float, out_dir: str
) -> None:
    user_ops = result.prefix["ops"]
    total_self = 0
    for layer in LAYERS:
        self_ns = tracer.self_ns(layer)
        total_self += self_ns
        # spans are too short to normalise one by one: the whole traced
        # phase is rescaled by its median machine speed instead
        result.metrics[f"{layer}.self_us_per_op"] = self_ns * machine_speed / user_ops / 1000
        result.metrics[f"{layer}.self_share"] = _ratio(self_ns, tracer.root_ns)
        result.metrics[f"{layer}.calls_per_op"] = tracer.calls(layer) / user_ops
    # every span sits under a root span, so this holds by construction;
    # it is checked because a wrapper bug would break it first
    if abs(total_self - tracer.root_ns) > 0.01 * tracer.root_ns:
        result.problems.append(
            f"layer self times ({total_self} ns) do not add up to root-span time ({tracer.root_ns} ns)"
        )
    ops_by_class: dict[str, int] = {}
    for op in trace.ops[trace.warmup : trace.quarter]:
        if op.kind in KINDS:
            op_class = KINDS[op.kind][2]
            ops_by_class[op_class] = ops_by_class.get(op_class, 0) + 1
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{result.workload}_seed{result.seed}"
    table_path = os.path.join(out_dir, f"layers_{stem}.json")
    with open(table_path, "w", encoding="utf-8") as fp:
        json.dump(tracer.layer_table(ops_by_class, user_ops, machine_speed), fp, indent=1)
    trace_path = os.path.join(out_dir, f"trace_{stem}.json")
    tracer.write_chrome_trace(trace_path)
    result.artifacts += [table_path, trace_path]
