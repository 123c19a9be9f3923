"""The five workloads: cluster shapes and seeded op lists.

Everything here is generated from the seed *before* timing starts and
never touches a running system: the program under test sees only the
finished op list.  Each generator carries a shadow model (path -> last
bytes written) forward through its own ops, so every read, stat and
listdir already knows the answer it must get.

Scale-1 op counts are the ones the benchmark was specified with (sized
for ``spec.REFERENCE_SECONDS`` of measured CPU); ``scale`` multiplies
every count by one shared constant and never changes a tree, a mix or a
think time.

The trees are smaller than specified — the Zipf and partition_heal
trees at half size, solo_cold's tree *and every capacity of its host* at
quarter size (replicated_churn's is as specified).
Populating costs O(files^2) at this commit (linear inode and bitmap
scans), so the specified trees put 15-22 CPU-seconds of set-up in front
of a 5-second measurement, and the pipeline's total time cap could not
hold them.  Every ratio the workloads were built around is kept: the
reference tree still fits every cache, the cold tree is still 4x its
buffer cache and over 2x its name cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.sim import HostConfig
from repro.workload import ZipfReferenceGenerator

#: op kind -> (FicusFileSystem method, takes a second argument, op class).
#: The class decides which latency metric a sample feeds: ``read_*``,
#: ``write_*`` (overwrite of an existing file), ``lookup_*`` (read-only
#: name ops) and ``nsop_*`` (namespace updates).  Appends to the shared
#: log are their own class: they are neither whole-file overwrites nor
#: namespace updates.
KINDS = {
    "read": ("read_file", False, "read"),
    "write": ("write_file", True, "write"),
    "stat": ("stat", False, "lookup"),
    "listdir": ("listdir", False, "lookup"),
    "exists": ("exists", False, "lookup"),
    "create": ("write_file", True, "nsop"),
    "unlink": ("unlink", False, "nsop"),
    "rename": ("rename", True, "nsop"),
    "mkdir": ("mkdir", False, "nsop"),
    "rmdir": ("rmdir", False, "nsop"),
    "append": ("append_file", True, "append"),
}
#: list items that steer the cluster instead of calling ``fs()``
PARTITION, HEAL = "partition", "heal"

OP_CLASSES = ("read", "write", "lookup", "nsop", "append")


class Op(NamedTuple):
    kind: str
    client: str = ""
    path: str = ""
    #: payload for write/create/append, destination path for rename
    arg: object = None
    #: what the shadow model says the call must return: bytes for read,
    #: size for stat, sorted names for listdir
    expect: object = None


@dataclass(frozen=True)
class Cluster:
    """The shape of the system a workload runs on."""

    hosts: tuple[str, ...]
    #: hosts storing the root volume (None = every host)
    replica_hosts: tuple[str, ...] | None = None
    clients: tuple[str, ...] = ("a",)
    host_config: HostConfig | None = None
    resolvers: bool = False
    #: virtual seconds the loop advances after every op
    think: float = 0.02
    #: partition groups applied by a PARTITION item
    groups: tuple[frozenset[str], ...] = ()

    @property
    def replicated(self) -> bool:
        return len(self.replica_hosts or self.hosts) > 1


@dataclass
class Trace:
    """One seeded instance of a workload."""

    cluster: Cluster
    dirs: list[str]
    #: initial tree, written through the first client's ``fs()`` in setup
    files: list[tuple[str, bytes]]
    ops: list[Op]
    #: list index where timing starts (the first ~5 % are warm-up)
    warmup: int
    #: list index where the traced pass stops (first quarter of the timed ops)
    quarter: int
    #: the shadow model at end of run
    final_files: dict[str, bytes] = field(default_factory=dict)
    #: append-only logs: path -> the set of records every replica must hold
    final_logs: dict[str, set[bytes]] = field(default_factory=dict)


def _scaled(base: int, scale: float, granule: int) -> int:
    """``base * scale`` rounded to a whole number of mix blocks (>= 1)."""
    return max(1, round(base * scale / granule)) * granule


def _mix_stream(rng: random.Random, mix: dict[str, int]):
    """Endless op kinds in shuffled blocks that hold ``mix`` exactly, so
    any whole number of blocks has exactly the stated proportions and a
    shorter run is a prefix of a longer one."""
    block = [kind for kind, count in mix.items() for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


def _marks(ops: list[Op]) -> tuple[int, int]:
    warmup = len(ops) // 20
    return warmup, warmup + (len(ops) - warmup) // 4


# -- solo_zipf / solo_cold / remote_zipf ------------------------------------


def _reference_trace(
    cluster: Cluster,
    seed: int,
    count: int,
    *,
    dirs: int,
    files_per_dir: int,
    size: int,
    skew: float,
    mix: dict[str, int],
) -> Trace:
    """A read-mostly trace over a static tree (no namespace updates)."""
    client = cluster.clients[0]
    gen = ZipfReferenceGenerator(dirs, files_per_dir, skew=skew, seed=seed)
    data_rng = random.Random(f"data:{seed}")
    shadow = {f"/{ref.path}": data_rng.randbytes(size) for ref in gen.files}
    files = list(shadow.items())
    listing = {f"/{d}": sorted(r.name for r in gen.files if r.directory == d) for d in gen.directories}
    kinds = _mix_stream(random.Random(f"mix:{seed}"), mix)
    ops = []
    for ref in gen.trace(count):
        kind = next(kinds)
        path = f"/{ref.path}"
        if kind == "read":
            ops.append(Op(kind, client, path, expect=shadow[path]))
        elif kind == "stat":
            ops.append(Op(kind, client, path, expect=size))
        elif kind == "listdir":
            directory = f"/{ref.directory}"
            ops.append(Op(kind, client, directory, expect=listing[directory]))
        else:
            shadow[path] = data_rng.randbytes(size)
            ops.append(Op("write", client, path, shadow[path]))
    warmup, quarter = _marks(ops)
    return Trace(cluster, sorted(listing), files, ops, warmup, quarter, final_files=shadow)


ZIPF_TREE = dict(dirs=16, files_per_dir=16, size=2048, skew=1.0)
ZIPF_MIX = {"read": 70, "stat": 15, "listdir": 5, "write": 10}


def solo_zipf(seed: int, scale: float) -> Trace:
    cluster = Cluster(hosts=("a",))
    return _reference_trace(cluster, seed, _scaled(40_000, scale, 100), mix=ZIPF_MIX, **ZIPF_TREE)


def solo_cold(seed: int, scale: float) -> Trace:
    # the specified host (32768 blocks, 4096 inodes, default caches) and
    # tree (32 x 32 files) with every number divided by four: 256 files x
    # 2 blocks is still 4x the buffer cache, and measured disk I/Os per op
    # match the full-size configuration (6.99 vs 6.83)
    config = HostConfig(disk_blocks=8192, num_inodes=1024, cache_blocks=128, name_cache_size=256)
    return _reference_trace(
        Cluster(hosts=("a",), host_config=config),
        seed,
        _scaled(16_000, scale, 100),
        dirs=16,
        files_per_dir=16,
        size=8192,
        skew=0.0,
        mix={"read": 60, "stat": 10, "write": 30},
    )


def remote_zipf(seed: int, scale: float) -> Trace:
    cluster = Cluster(hosts=("a", "b", "c", "cl"), replica_hosts=("a", "b", "c"), clients=("cl",))
    return _reference_trace(cluster, seed, _scaled(10_000, scale, 100), mix=ZIPF_MIX, **ZIPF_TREE)


# -- replicated_churn -------------------------------------------------------


def replicated_churn(seed: int, scale: float) -> Trace:
    cluster = Cluster(hosts=("a", "b", "c"), think=0.05)
    client, size = "a", 2048
    rng = random.Random(f"churn:{seed}")
    dirs = [f"/dir{d:03d}" for d in range(8)]
    shadow = {f"{d}/file{f:03d}": rng.randbytes(size) for d in dirs for f in range(16)}
    files = list(shadow.items())
    live = list(shadow)
    kinds = _mix_stream(
        random.Random(f"mix:{seed}"),
        {"write": 45, "create": 20, "unlink": 15, "rename": 10, "read": 5, "stat": 5},
    )
    ops = []
    for serial in range(_scaled(2_400, scale, 100)):
        kind = next(kinds)
        if kind == "create":
            path = f"{rng.choice(dirs)}/new{serial:06d}"
            shadow[path] = rng.randbytes(size)
            live.append(path)
            ops.append(Op(kind, client, path, shadow[path]))
            continue
        index = rng.randrange(len(live))
        path = live[index]
        if kind == "write":
            shadow[path] = rng.randbytes(size)
            ops.append(Op(kind, client, path, shadow[path]))
        elif kind == "unlink":
            live[index] = live[-1]
            live.pop()
            del shadow[path]
            ops.append(Op(kind, client, path))
        elif kind == "rename":
            here = path.rsplit("/", 1)[0]
            there = rng.choice([d for d in dirs if d != here])
            target = f"{there}/moved{serial:06d}"
            live[index] = target
            shadow[target] = shadow.pop(path)
            ops.append(Op(kind, client, path, target))
        elif kind == "read":
            ops.append(Op(kind, client, path, expect=shadow[path]))
        else:
            ops.append(Op("stat", client, path, expect=size))
    warmup, quarter = _marks(ops)
    return Trace(cluster, dirs, files, ops, warmup, quarter, final_files=shadow)


# -- partition_heal ---------------------------------------------------------

HEAL_CYCLES = 5
HEAL_MIX = {"write": 4, "create": 2, "unlink": 1, "append": 1, "read": 2}


def partition_heal(seed: int, scale: float) -> Trace:
    sides = ("a", "c")
    cluster = Cluster(
        hosts=("a", "b", "c", "d"),
        clients=sides,
        resolvers=True,
        think=0.05,
        groups=(frozenset("ab"), frozenset("cd")),
    )
    size = 2048
    rng = random.Random(f"heal:{seed}")
    dirs = [f"/dir{d:03d}" for d in range(8)]
    shadow: dict[str, bytes] = {}
    logs: dict[str, set[bytes]] = {}
    owned: dict[str, list[str]] = {side: [] for side in sides}
    files = []
    for d in dirs:
        for f in range(12):
            path = f"{d}/file{f:03d}"
            shadow[path] = rng.randbytes(size)
            files.append((path, shadow[path]))
            owned[sides[f % 2]].append(path)
        record = f"init:{d}\n".encode()
        logs[f"{d}/box.log"] = {record.rstrip(b"\n")}
        files.append((f"{d}/box.log", record))
    kinds = {side: _mix_stream(random.Random(f"mix:{side}:{seed}"), HEAL_MIX) for side in sides}
    serial = 0

    def side_op(side: str) -> Op:
        nonlocal serial
        serial += 1
        kind = next(kinds[side])
        mine = owned[side]
        if kind == "create":
            path = f"{rng.choice(dirs)}/{side}{serial:06d}"
            shadow[path] = rng.randbytes(size)
            mine.append(path)
            return Op(kind, side, path, shadow[path])
        if kind == "append":
            path = f"{rng.choice(dirs)}/box.log"
            record = f"{side}:{serial:06d}".encode()
            logs[path].add(record)
            return Op(kind, side, path, record + b"\n")
        index = rng.randrange(len(mine))
        path = mine[index]
        if kind == "write":
            shadow[path] = rng.randbytes(size)
            return Op(kind, side, path, shadow[path])
        if kind == "unlink":
            mine[index] = mine[-1]
            mine.pop()
            del shadow[path]
            return Op(kind, side, path)
        return Op("read", side, path, expect=shadow[path])

    per_side = _scaled(100, scale, sum(HEAL_MIX.values()))
    ops = []
    for _ in range(HEAL_CYCLES):
        ops.append(Op(PARTITION))
        for _ in range(per_side):
            ops.extend(side_op(side) for side in sides)
        ops.append(Op(HEAL))
    warmup, quarter = _marks(ops)
    return Trace(cluster, dirs, files, ops, warmup, quarter, final_files=shadow, final_logs=logs)


GENERATORS = {
    "solo_zipf": solo_zipf,
    "solo_cold": solo_cold,
    "remote_zipf": remote_zipf,
    "replicated_churn": replicated_churn,
    "partition_heal": partition_heal,
}
