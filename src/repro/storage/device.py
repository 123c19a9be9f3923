"""Simulated block storage.

The paper's only quantitative performance claims (Section 6) are stated as
disk I/O counts: opening a file in a non-recently-accessed directory costs
"four I/Os beyond the normal Unix overhead", and a recently accessed open
costs nothing extra.  Reproducing those numbers needs a storage device that
counts every block read and write exactly — which a simulated device does
better than real hardware.

:class:`BlockDevice` is a flat array of fixed-size blocks with read/write
counters and optional failure injection (for crash-consistency tests of the
single-file atomic commit, paper Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CrashInjected, InvalidArgument, IOError_

#: Default block size.  4.2BSD UFS used 4K/8K blocks; 4K keeps simulated
#: images small while preserving the inode-block/data-block distinction.
DEFAULT_BLOCK_SIZE = 4096


@dataclass
class IoCounters:
    """Running totals of block-level operations on a device."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def snapshot(self) -> "IoCounters":
        return IoCounters(self.reads, self.writes)

    def delta_since(self, earlier: "IoCounters") -> "IoCounters":
        """I/Os performed since ``earlier`` was snapshotted."""
        return IoCounters(self.reads - earlier.reads, self.writes - earlier.writes)

    def __str__(self) -> str:
        return f"{self.reads}r/{self.writes}w"


@dataclass
class CrashPlan:
    """Failure injection: crash the device after N more writes.

    Used by the atomic-commit experiments (E7): a crash anywhere in an
    install must leave the original replica or the new one, never a mix.
    """

    writes_until_crash: int
    tripped: bool = False


class BlockDevice:
    """A fixed-size array of blocks with exact I/O accounting.

    Blocks are ``bytes`` of exactly ``block_size``; unwritten blocks read as
    zeros.  All higher layers (UFS buffer cache, inode table, data blocks)
    sit on top of this.
    """

    def __init__(self, num_blocks: int, block_size: int = DEFAULT_BLOCK_SIZE, name: str = "disk0"):
        if num_blocks <= 0:
            raise InvalidArgument(f"num_blocks must be positive, got {num_blocks}")
        if block_size <= 0:
            raise InvalidArgument(f"block_size must be positive, got {block_size}")
        self.name = name
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.counters = IoCounters()
        self._blocks: dict[int, bytes] = {}
        self._zero = bytes(block_size)
        self._crash_plan: CrashPlan | None = None
        self._failed = False

    # -- failure injection ------------------------------------------------

    def plan_crash_after_writes(self, writes: int) -> None:
        """Arrange for the device to "crash" after ``writes`` more writes."""
        if writes < 0:
            raise InvalidArgument("writes must be >= 0")
        self._crash_plan = CrashPlan(writes_until_crash=writes)

    def clear_crash_plan(self) -> None:
        self._crash_plan = None

    def fail(self) -> None:
        """Hard-fail the device: all subsequent I/O raises EIO."""
        self._failed = True

    def recover(self) -> None:
        """Bring a failed/crashed device back; persisted blocks survive."""
        self._failed = False
        self._crash_plan = None

    @property
    def failed(self) -> bool:
        return self._failed

    # -- block I/O ---------------------------------------------------------

    def _check_block(self, blockno: int) -> None:
        if self._failed:
            raise IOError_(f"{self.name}: device failed")
        if not 0 <= blockno < self.num_blocks:
            raise InvalidArgument(f"{self.name}: block {blockno} out of range [0,{self.num_blocks})")

    def read_block(self, blockno: int) -> bytes:
        """Read one block (counted)."""
        self._check_block(blockno)
        self.counters.reads += 1
        return self._blocks.get(blockno, self._zero)

    def write_block(self, blockno: int, data: bytes) -> None:
        """Write one block (counted).  ``data`` must be exactly block_size."""
        self._check_block(blockno)
        if len(data) != self.block_size:
            raise InvalidArgument(
                f"{self.name}: write of {len(data)} bytes to block {blockno}; block size is {self.block_size}"
            )
        plan = self._crash_plan
        if plan is not None and not plan.tripped:
            if plan.writes_until_crash <= 0:
                plan.tripped = True
                self._failed = True
                raise CrashInjected(f"{self.name}: injected crash before write to block {blockno}")
            plan.writes_until_crash -= 1
        self.counters.writes += 1
        if data == self._zero:
            self._blocks.pop(blockno, None)
        else:
            self._blocks[blockno] = bytes(data)

    # -- introspection -----------------------------------------------------

    @property
    def blocks_in_use(self) -> int:
        """Number of blocks holding non-zero data (storage footprint)."""
        return len(self._blocks)

    def raw_block(self, blockno: int) -> bytes:
        """Uncounted peek at a block — for tests and fsck-style checkers."""
        if not 0 <= blockno < self.num_blocks:
            raise InvalidArgument(f"block {blockno} out of range")
        return self._blocks.get(blockno, self._zero)

    def __repr__(self) -> str:
        return f"BlockDevice({self.name!r}, {self.num_blocks}x{self.block_size}, io={self.counters})"
