"""fsck-style consistency checker for the simulated UFS.

Used as a property-test oracle: after any sequence of namespace operations
(including injected crashes followed by remount) the file system must pass
these structural checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ufs.filesystem import Ufs
from repro.ufs.inode import slot_is_free
from repro.ufs.layout import NDIRECT, ROOT_INO


@dataclass
class FsckReport:
    """Findings of one checker run; clean when ``problems`` is empty."""

    problems: list[str] = field(default_factory=list)
    inodes_checked: int = 0
    blocks_referenced: int = 0

    @property
    def clean(self) -> bool:
        return not self.problems

    def complain(self, message: str) -> None:
        self.problems.append(message)


def fsck(fs: Ufs) -> FsckReport:
    """Run all structural checks; returns a report (never raises)."""
    report = FsckReport()
    seen_blocks: dict[int, int] = {}  # block -> owning ino
    link_counts: dict[int, int] = {}  # ino -> observed references
    subdir_counts: dict[int, int] = {}  # dir ino -> number of child dirs

    live = {}
    for ino, block, offset in fs._inode_slots():
        if slot_is_free(block, offset):
            continue
        live[ino] = fs._get_inode_raw(ino)
        report.inodes_checked += 1

    # pass 1: block references and sizes
    for ino, inode in live.items():
        blocks = fs._file_blocks(inode)
        nonzero = [b for b in blocks if b]
        for blk in nonzero:
            if not fs.sb.data_start <= blk < fs.sb.num_blocks:
                report.complain(f"inode {ino}: block {blk} outside data region")
                continue
            if blk in seen_blocks:
                report.complain(f"block {blk} claimed by inodes {seen_blocks[blk]} and {ino}")
            seen_blocks[blk] = ino
            if not fs.block_allocated(blk):
                report.complain(f"inode {ino}: block {blk} in use but free in bitmap")
        if inode.indirect:
            if inode.indirect in seen_blocks:
                report.complain(f"indirect block {inode.indirect} of {ino} also claimed by {seen_blocks[inode.indirect]}")
            seen_blocks[inode.indirect] = ino
            if not fs.block_allocated(inode.indirect):
                report.complain(f"inode {ino}: indirect block {inode.indirect} free in bitmap")
        max_size = len(blocks) * fs.sb.block_size
        if blocks and inode.size > max_size:
            report.complain(f"inode {ino}: size {inode.size} exceeds mapped blocks")
        if inode.size > (NDIRECT + fs.sb.pointers_per_block) * fs.sb.block_size:
            report.complain(f"inode {ino}: size {inode.size} exceeds max file size")
    report.blocks_referenced = len(seen_blocks)

    # pass 2: bitmap has no blocks marked used that nobody references
    for blk in fs._bitmap_scan(fs.sb.data_start, used=True):
        if blk not in seen_blocks:
            report.complain(f"block {blk} marked used in bitmap but unreferenced")

    # pass 3: directory structure and link counts
    if ROOT_INO not in live:
        report.complain("root inode missing")
        return report
    reachable: set[int] = set()
    stack = [ROOT_INO]
    while stack:
        ino = stack.pop()
        if ino in reachable:
            continue
        reachable.add(ino)
        inode = live.get(ino)
        if inode is None:
            report.complain(f"directory tree references free inode {ino}")
            continue
        if not inode.is_dir:
            continue
        try:
            entries = fs._read_dir_entries(inode)
        except Exception as exc:  # corrupt directory data
            report.complain(f"directory {ino}: unreadable entries ({exc})")
            continue
        if entries.get(".") != ino:
            report.complain(f"directory {ino}: bad '.' entry {entries.get('.')}")
        if ".." not in entries:
            report.complain(f"directory {ino}: missing '..'")
        for name, child in entries.items():
            if child not in live:
                report.complain(f"directory {ino}: entry {name!r} -> free inode {child}")
                continue
            if name == ".":
                link_counts[ino] = link_counts.get(ino, 0) + 1
                continue
            if name == "..":
                link_counts[entries[".."]] = link_counts.get(entries[".."], 0) + 1
                continue
            link_counts[child] = link_counts.get(child, 0) + 1
            if live[child].is_dir:
                subdir_counts[ino] = subdir_counts.get(ino, 0) + 1
                stack.append(child)
            else:
                reachable.add(child)

    for ino, inode in live.items():
        if ino not in reachable:
            report.complain(f"inode {ino} allocated but unreachable from root")
            continue
        expected = link_counts.get(ino, 0)
        if inode.nlink != expected:
            report.complain(f"inode {ino}: nlink {inode.nlink}, observed references {expected}")

    return report
