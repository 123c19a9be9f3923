"""Where a workload's device writes go: a histogram by record and by
operation, read off ``BlockDevice.write_block`` from outside the tree.

    python benchmarks/write_histogram.py --workload replicated_churn --seed 601
    python benchmarks/write_histogram.py --root /root/scratch/parent ...   # another checkout

Every device write of the repo benchmark's timed loop and drain (one
untraced pass, the run ``disk_ios_per_op`` is computed from) is labelled
twice.  By *record*: the UFS inode being written when the block went out —
``Ufs._put_inode``, ``_write_inode_data`` and ``_truncate_blocks`` name it,
``_add_entry`` names the file behind it — so a bitmap write inside a
truncate of ``.fdir`` is ``.fdir``'s, and what ``Ufs.create`` writes of the
inode it is making is the allocation's.  A write made outside every one of
those calls — a checkout that holds an operation's blocks and writes them
at its end — is labelled by the block: a data block by the record of the
inode that last mapped it (``Ufs._bmap``), an inode-table or bitmap block
by its kind.  By *operation*: the outermost of ``push_notify_pull`` /
``reconcile_subtree``, else the foreground.

``by_kind`` counts every write by block kind — data, inode table, bitmap,
directory data (a data block last mapped by a directory) — and
``repeats`` the writes, by the same kinds, that hit a block already written
inside the same outermost ``ReplicaStore`` operation: what a per-operation
set of held blocks could save.  Only names both commits of a comparison
share are patched, so the same script reads the parent and the change
(EXPERIMENTS.md E29).
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
from pathlib import Path


ALLOCATION = "inode allocation"
KINDS = ("data", "inode table", "bitmap", "directory data")


def record_of(name: str) -> str:
    if name in (".fdir", ".attr", ".meta"):
        return name
    # a pulled version's shadow file, made before an install wrote into the
    # file's own inode, and the per-directory and per-file record files of
    # the layout before the attribute table, so a checkout from before
    # either reads too
    if name.endswith(".shadow"):
        return "shadow"
    if name == ".faux":
        return name
    if name.endswith(".aux"):
        return "file .aux"
    return "contents"


def histogram(workload: str, seed: int, seconds: float) -> dict:
    from e2e import engine
    from repro import recon
    from repro.physical import store
    from repro.storage import BlockDevice
    from repro.ufs.filesystem import Ufs

    by_record: collections.Counter = collections.Counter()
    by_operation: collections.Counter = collections.Counter()
    by_kind: collections.Counter = collections.Counter({kind: 0 for kind in KINDS})
    repeats: collections.Counter = collections.Counter({kind: 0 for kind in KINDS})
    roles: dict[tuple[int, int], str] = {}  # (device, ino) -> record
    geometry: dict[int, object] = {}  # device -> superblock
    owners: dict[tuple[int, int], tuple[bool, str]] = {}  # (device, block) -> (a directory's?, record)
    inodes: list[str] = []  # the records being written, innermost last
    operations: list[str] = []
    written: set[tuple[int, int]] = set()  # blocks written inside the open store operations
    state = {"timed": False, "creating": False, "open": 0}

    def kind_of(device, blockno) -> tuple[str, str]:
        """(block kind, record) of a block, read off the superblock and
        the inode that last mapped it."""
        sb = geometry[id(device)]
        if blockno >= sb.data_start:
            is_dir, record = owners.get((id(device), blockno), (False, "contents"))
            return ("directory data" if is_dir else "data"), record
        return ("bitmap", "bitmap") if blockno >= sb.bitmap_start else ("inode table", "inode table")

    def counting(original):
        def write_block(self, blockno, data):
            original(self, blockno, data)
            if state["timed"]:
                kind, record = kind_of(self, blockno)
                by_record[inodes[-1] if inodes else record] += 1
                by_operation[operations[0] if operations else "foreground"] += 1
                by_kind[kind] += 1
                if state["open"]:
                    if (id(self), blockno) in written:
                        repeats[kind] += 1
                    written.add((id(self), blockno))

        return write_block

    def mounting(original):
        def init(self, device, superblock, *args, **kwargs):
            original(self, device, superblock, *args, **kwargs)
            geometry[id(device)] = superblock

        return init

    def record_of_inode(fs, inode) -> str:
        if inode.is_dir:
            return "udir"
        if state["creating"]:
            return ALLOCATION  # the new inode's own writes, until it has a name
        return roles.get((id(fs.device), inode.ino), "contents")

    def mapping(original):
        def bmap(self, inode, *args, **kwargs):
            blk = original(self, inode, *args, **kwargs)
            if blk:
                owners[id(self.device), blk] = (inode.is_dir, record_of_inode(self, inode))
            return blk

        return bmap

    def scoping(enter, leave):
        """The outermost store operation, across every store: a block
        written twice inside it is a repeat."""

        def entering(self):
            state["open"] += 1
            return enter(self)

        def leaving(self, *exc_info):
            try:
                return leave(self, *exc_info)
            finally:
                state["open"] -= 1
                if not state["open"]:
                    written.clear()

        return entering, leaving

    def naming(original):
        """Calls taking an Inode first: writes inside belong to its record."""

        def wrapper(self, inode, *args, **kwargs):
            inodes.append(record_of_inode(self, inode))
            try:
                return original(self, inode, *args, **kwargs)
            finally:
                inodes.pop()

        return wrapper

    def creating(original):
        def wrapper(self, *args, **kwargs):
            state["creating"] = True
            try:
                return original(self, *args, **kwargs)
            finally:
                state["creating"] = False

        return wrapper

    def add_entry(original):
        def wrapper(self, dir_inode, name, ino):
            roles[id(self.device), ino] = record_of(name)
            return original(self, dir_inode, name, ino)

        return wrapper

    def outermost(original, label):
        def wrapper(*args, **kwargs):
            operations.append(label)
            try:
                return original(*args, **kwargs)
            finally:
                operations.pop()

        return wrapper

    def timed_from_first_read(original):
        def read(system):
            state["timed"] = True
            return original(system)

        return read

    BlockDevice.write_block = counting(BlockDevice.write_block)
    Ufs.__init__ = mounting(Ufs.__init__)
    Ufs._bmap = mapping(Ufs._bmap)
    scope = store._OperationScope
    scope.__enter__, scope.__exit__ = scoping(scope.__enter__, scope.__exit__)
    for method in ("_put_inode", "_write_inode_data", "_truncate_blocks"):
        setattr(Ufs, method, naming(getattr(Ufs, method)))
    Ufs.create = creating(Ufs.create)
    Ufs.symlink = creating(Ufs.symlink)
    Ufs._add_entry = add_entry(Ufs._add_entry)
    for name in ("push_notify_pull", "reconcile_subtree"):
        wrapped = outermost(getattr(recon, name), name)
        for module in list(sys.modules.values()):
            if getattr(module, name, None) is getattr(recon, name) and module is not recon:
                setattr(module, name, wrapped)
        setattr(recon, name, wrapped)
    engine.Counters.read = staticmethod(timed_from_first_read(engine.Counters.read))

    result = engine.run_pass(workload, seed, seconds / 30.0, False, os.path.join(".bench_out", "histogram"))
    return {
        "workload": workload,
        "seed": seed,
        "attempted": result.attempted,
        "failed": result.failed,
        "writes": sum(by_record.values()),
        "by_record": dict(by_record.most_common()),
        "by_operation": dict(by_operation.most_common()),
        "by_kind": dict(by_kind),
        "repeats": dict(repeats),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent), help="checkout to read")
    parser.add_argument("--workload", default="replicated_churn")
    parser.add_argument("--seed", type=int, default=601)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(args.root, "src"), os.path.join(args.root, "benchmarks")]
    print(json.dumps(histogram(args.workload, args.seed, args.seconds), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
