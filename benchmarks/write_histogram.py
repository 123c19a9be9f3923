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
inode it is making is the allocation's.  By *operation*: the outermost of
``push_notify_pull`` / ``reconcile_subtree``, else the foreground.  Only
names both commits of a comparison share are patched, so the same script
reads the parent and the change (EXPERIMENTS.md E29).
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
from pathlib import Path


ALLOCATION = "inode allocation"


def record_of(name: str) -> str:
    if name in (".fdir", ".faux", ".meta"):
        return name
    if name.endswith(".aux"):
        return "file .aux"
    if name.endswith(".shadow"):
        return "shadow"
    return "contents"


def histogram(workload: str, seed: int, seconds: float) -> dict:
    from e2e import engine
    from repro import recon
    from repro.storage import BlockDevice
    from repro.ufs.filesystem import Ufs

    by_record: collections.Counter = collections.Counter()
    by_operation: collections.Counter = collections.Counter()
    roles: dict[tuple[int, int], str] = {}  # (device, ino) -> record
    inodes: list[str] = []  # the records being written, innermost last
    operations: list[str] = []
    state = {"timed": False, "creating": False}

    def counting(original):
        def write_block(self, blockno, data):
            original(self, blockno, data)
            if state["timed"]:
                by_record[inodes[-1] if inodes else "other"] += 1
                by_operation[operations[0] if operations else "foreground"] += 1

        return write_block

    def naming(original):
        """Calls taking an Inode first: writes inside belong to its record."""

        def wrapper(self, inode, *args, **kwargs):
            if inode.is_dir:
                inodes.append("udir")
            elif state["creating"]:
                inodes.append(ALLOCATION)  # the new inode's own writes, until it has a name
            else:
                inodes.append(roles.get((id(self.device), inode.ino), "contents"))
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
