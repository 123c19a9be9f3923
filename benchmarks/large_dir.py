"""What a change of one name costs in a directory of many blocks.

    python benchmarks/large_dir.py
    python benchmarks/large_dir.py --root <another checkout>

Two scripted histories, each counted from ``BlockDevice`` (device writes
and reads) and the thread CPU clock:

* ``ufs``: one UFS directory takes 1 500 creates, 500 unlinks (every third
  name) and 300 more creates, on a 4 KiB-block disk.  It reaches about a
  dozen blocks, so the cost of a change shows whether it writes the block
  holding the name or every block of the directory.
* ``ficus``: one host of a ``FicusSystem`` (daemons quiet) fills a
  directory to 200 files, then takes 100 creates (200 → 300 files) and 100
  unlinks (back to 200).  A Ficus directory of N files stores N contents
  files in one underlying UFS directory (paper §2.1 and §2.6), which spans
  several blocks at this size; ``writes_per_op`` is over those 200 ops.

Prints one JSON object.  Only public names are used, so the same script
reads any checkout (EXPERIMENTS.md E51).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path


def ufs_history() -> dict:
    from repro.storage import BlockDevice
    from repro.ufs import ROOT_INO, Ufs, fsck

    fs = Ufs.mkfs(BlockDevice(8192), num_inodes=2048)
    d = fs.mkdir(ROOT_INO, "d")
    device = fs.device
    writes, reads = device.counters.writes, device.counters.reads
    start = time.thread_time()
    for i in range(1500):
        fs.create(d, f"file-{i:05d}")
    for i in range(0, 1500, 3):
        fs.unlink(d, f"file-{i:05d}")
    for i in range(300):
        fs.create(d, f"more-{i:05d}")
    seconds = time.thread_time() - start
    assert fsck(fs).clean and len(fs.readdir(d)) == 2 + 1000 + 300
    return {
        "ops": 2300,
        "device_writes": device.counters.writes - writes,
        "device_reads": device.counters.reads - reads,
        "directory_blocks": fs.get_inode(d).size // fs.sb.block_size,
        "cpu_s": round(seconds, 3),
    }


def ficus_history() -> dict:
    from repro.sim import DaemonConfig, FicusSystem

    quiet = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)
    system = FicusSystem(["a"], daemon_config=quiet)
    host = system.host("a")
    fs = host.fs()
    fs.mkdir("/big")
    for i in range(200):
        fs.write_file(f"/big/f{i:04d}", b"x")
    device = host.ufs.device
    writes, reads = device.counters.writes, device.counters.reads
    start = time.thread_time()
    for i in range(200, 300):
        fs.write_file(f"/big/f{i:04d}", b"x")
    for i in range(0, 300, 3):
        fs.unlink(f"/big/f{i:04d}")
    seconds = time.thread_time() - start
    assert len(fs.listdir("/big")) == 200
    return {
        "ops": 200,
        "writes_per_op": round((device.counters.writes - writes) / 200, 3),
        "reads_per_op": round((device.counters.reads - reads) / 200, 3),
        "cpu_s": round(seconds, 3),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent), help="checkout to read")
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(args.root, "src")]
    print(json.dumps({"ufs": ufs_history(), "ficus": ficus_history()}))


if __name__ == "__main__":
    main()
