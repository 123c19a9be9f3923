"""Trace-driven workload replay, and the one executor every schedule runs.

Floyd's studies (papers [5], [6]) were trace-driven; this module gives the
reproduction the same methodology: a plain-text trace format (one step per
line, key=value records), a synthesizer that turns the statistical
generators into traces, and :func:`replay_trace`, the executor that applies
a list of steps to a live :class:`~repro.sim.FicusSystem`.  The steps are
the whole vocabulary of a run — client operations, partition and heal,
crash and restart, one daemon tick, a clock advance — so an experiment
scenario or a chaos run's schedule is a data file rather than code.

Time: the executor first runs the event loop up to a step's ``at``, which
drives hand-written and synthesized traces.  A generated chaos schedule
leaves every ``at`` at zero and moves time only by ``advance`` steps.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field

from repro.errors import FicusError, InvalidArgument
from repro.util.codec import decode_record, encode_record

#: Steps a host's filesystem executes.  The last four are the chaos
#: harness's operations: each probes with ``exists`` first, so executing
#: one issues exactly the RPCs the harness draws it for.
CLIENT_OPS = (
    "write",
    "read",
    "exists",
    "mkdir",
    "unlink",
    "rmdir",
    "rename",
    "symlink",
    "append",  # read-modify-write: a missing file starts empty
    "mkdir_or_write",  # mkdir ``path``, or if it exists write ``path2``
    "rename_if_free",  # rename if ``path`` exists and ``path2`` does not
    "unlink_if_exists",
)

#: Every step the executor understands.
OPS = CLIENT_OPS + ("partition", "heal", "advance", "tick", "crash", "restart")


@dataclass(frozen=True)
class TraceOp:
    """One step: one trace line."""

    op: str
    at: float = 0.0
    host: str = ""
    path: str = ""
    path2: str = ""  # rename destination / symlink target / file written
    data: bytes = b""
    groups: tuple[frozenset[str], ...] = ()
    seconds: float = 0.0  # how far an ``advance`` moves the clock past ``at``

    def encode(self) -> str:
        rec = {"t": f"{self.at:.6f}", "op": self.op}
        if self.host:
            rec["host"] = self.host
        if self.path:
            rec["path"] = self.path
        if self.path2:
            rec["path2"] = self.path2
        if self.data:
            rec["data"] = base64.b64encode(self.data).decode("ascii")
        if self.groups:
            rec["groups"] = ";".join(",".join(sorted(g)) for g in self.groups)
        if self.seconds:
            rec["dt"] = repr(self.seconds)
        return encode_record(rec)

    @classmethod
    def decode(cls, line: str) -> "TraceOp":
        rec = decode_record(line)
        try:
            op = rec["op"]
            if op not in OPS:
                raise InvalidArgument(f"unknown trace op {op!r}")
            groups = ()
            if "groups" in rec:
                groups = tuple(
                    frozenset(g.split(",")) for g in rec["groups"].split(";") if g
                )
            return cls(
                at=float(rec["t"]),
                op=op,
                host=rec.get("host", ""),
                path=rec.get("path", ""),
                path2=rec.get("path2", ""),
                data=base64.b64decode(rec["data"]) if "data" in rec else b"",
                groups=groups,
                seconds=float(rec.get("dt", 0.0)),
            )
        except KeyError as exc:
            raise InvalidArgument(f"trace line missing field {exc}") from exc


def encode_trace(ops: list[TraceOp]) -> str:
    return "\n".join(op.encode() for op in ops)


def decode_trace(text: str) -> list[TraceOp]:
    ops = [TraceOp.decode(line) for line in text.splitlines() if line.strip()]
    if any(b.at < a.at for a, b in zip(ops, ops[1:])):
        raise InvalidArgument("trace timestamps must be non-decreasing")
    return ops


#: A schedule file's first line, its format version.  A change to what a
#: step does, or to what a chaos run of the same steps prints, bumps it, so
#: an old file is refused rather than misread.  (2: an install keeps the
#: file's inode, so fewer stale handles are retried and a run draws its
#: faults for other RPCs.  3: a pull looks a file up again after ESTALE,
#: which moves seed 1990's fault draws.
#: 4: a read opens no session, so fewer RPCs draw faults.  5: a pull is
#: one RPC, so fewer RPCs draw faults.  6: a replica's root is fetched
#: once and kept, so fewer RPCs draw faults.  7: a host keeps one record
#: of flapping peers, so a strike one daemon records makes the other skip
#: the peer too, which moves seeds 11 and 17's fault draws.  8: an
#: overwrite sends no trim that changes nothing, and a writer keeps its
#: batch of the replica it wrote, so fewer RPCs draw faults.)
SCHEDULE_HEADER = "schedule=8"


def encode_schedule(steps: list[TraceOp]) -> str:
    return f"{SCHEDULE_HEADER}\n{encode_trace(steps)}\n"


def decode_schedule(text: str) -> list[TraceOp]:
    header, _, body = text.partition("\n")
    if header != SCHEDULE_HEADER:
        raise InvalidArgument(f"schedule header {header!r} is not {SCHEDULE_HEADER!r}")
    return decode_trace(body)


@dataclass
class ReplayResult:
    """What happened during one replay."""

    applied: int = 0
    failed: int = 0
    reads: int = 0
    read_bytes: int = 0
    failures: list[tuple[TraceOp, str]] = field(default_factory=list)


def replay_trace(system, ops: list[TraceOp], strict: bool = False) -> ReplayResult:
    """Execute a list of steps on a :class:`~repro.sim.FicusSystem`.

    Virtual time advances to each step's timestamp (firing daemons on the
    way).  With ``strict`` False (the default), step failures — e.g. a
    read during a partition — are recorded, not raised: partial operation
    is the normal state of the world being replayed.
    """
    result = ReplayResult()
    for op in ops:
        if op.at > system.clock.now():
            system.run_for(op.at - system.clock.now())
        try:
            _apply(system, op, result)
            result.applied += 1
        except FicusError as exc:
            if strict:
                raise
            result.failed += 1
            result.failures.append((op, f"{type(exc).__name__}: {exc}"))
    return result


def _apply(system, op: TraceOp, result: ReplayResult) -> None:
    if op.op in CLIENT_OPS:
        _apply_client(system.host(op.host).fs(), op, result)
    elif op.op == "partition":
        system.partition([set(g) for g in op.groups])
    elif op.op == "heal":
        system.heal()
    elif op.op == "advance":
        system.clock.advance(op.seconds)
    elif op.op == "tick":
        # path names which daemon runs one tick on the host
        host = system.host(op.host)
        if op.path == "propagation":
            host.propagation_daemon.tick()
        elif op.path == "recon":
            host.recon_daemon.tick()
        else:
            raise InvalidArgument(f"unknown tick daemon {op.path!r}")
    elif op.op == "crash":
        system.host(op.host).crash()
    elif op.op == "restart":
        system.host(op.host).restart(system)


def _apply_client(fs, op: TraceOp, result: ReplayResult) -> None:
    if op.op == "write":
        fs.write_file(op.path, op.data)
    elif op.op == "read":
        data = fs.read_file(op.path)
        result.reads += 1
        result.read_bytes += len(data)
    elif op.op == "exists":
        fs.exists(op.path)
    elif op.op == "mkdir":
        # one RPC, exactly like the call being replayed: makedirs would
        # probe every path component and its extra lookups would shift
        # the fault-plane draw sequence, breaking replicate-and-verify
        fs.mkdir(op.path)
    elif op.op == "unlink":
        fs.unlink(op.path)
    elif op.op == "rmdir":
        fs.rmdir(op.path)
    elif op.op == "rename":
        fs.rename(op.path, op.path2)
    elif op.op == "symlink":
        fs.symlink(op.path2, op.path)
    elif op.op == "append":
        existing = fs.read_file(op.path) if fs.exists(op.path) else b""
        fs.write_file(op.path, existing + op.data)
    elif op.op == "mkdir_or_write":
        if not fs.exists(op.path):
            fs.mkdir(op.path)
        else:
            fs.write_file(op.path2, op.data)
    elif op.op == "rename_if_free":
        if fs.exists(op.path) and op.path != op.path2 and not fs.exists(op.path2):
            fs.rename(op.path, op.path2)
    elif op.op == "unlink_if_exists":
        if fs.exists(op.path):
            fs.unlink(op.path)


def synthesize_trace(
    hosts: list[str],
    duration: float,
    ops_per_minute: float = 30.0,
    write_fraction: float = 0.4,
    partition_prob_per_minute: float = 0.05,
    seed: int = 0,
) -> list[TraceOp]:
    """Generate a random-but-reproducible mixed trace."""
    import random

    rng = random.Random(seed)
    ops: list[TraceOp] = []
    t = 0.0
    paths: list[str] = []
    serial = 0
    partitioned = False
    while t < duration:
        t += rng.expovariate(ops_per_minute / 60.0)
        if t >= duration:
            break
        if rng.random() < partition_prob_per_minute / max(1.0, ops_per_minute):
            if partitioned:
                ops.append(TraceOp(at=t, op="heal"))
            else:
                shuffled = hosts[:]
                rng.shuffle(shuffled)
                cut = rng.randint(1, len(shuffled) - 1)
                ops.append(
                    TraceOp(
                        at=t,
                        op="partition",
                        groups=(frozenset(shuffled[:cut]), frozenset(shuffled[cut:])),
                    )
                )
            partitioned = not partitioned
            continue
        host = rng.choice(hosts)
        if rng.random() < write_fraction or not paths:
            serial += 1
            path = f"/t{serial}"
            ops.append(TraceOp(at=t, op="write", host=host, path=path,
                               data=f"payload {serial}".encode()))
            paths.append(path)
        else:
            ops.append(TraceOp(at=t, op="read", host=host, path=rng.choice(paths)))
    if partitioned:
        ops.append(TraceOp(at=duration, op="heal"))
    return ops
