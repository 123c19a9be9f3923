"""The attribute table of one volume replica (``<volrep>/.attr``).

The paper keeps each replica's version vector in an "auxiliary attribute
file" (Section 2.6); here every Ficus file and directory of a volume
replica has one record in one UFS file, keyed by its handle:

* The table is a sequence of :data:`STORE_BLOCK_SIZE` blocks of
  :data:`AUX_SLOT_SIZE`-byte slots.  A record takes a run of whole slots
  and its run never straddles a block, so writing it is one block write,
  old-or-new under a crash.  A record longer than a block (the ancestor
  digests of a very large file) takes whole blocks of its own.
* A run holds the record's fields (:meth:`AuxAttributes.to_record`, the
  handle first), a stamp ``st``, a newline, and NUL padding.  A run is
  found by its leading ``fh=``, which no later byte of a record can
  repeat, and is whole only up to its newline.
* The stamp orders copies of one record: a record that outgrows its run
  is written to a fresh run, with a stamp above every other in the table,
  before its old run is cleared, so a crash between the two writes leaves
  two copies and :meth:`AttrTable.load` keeps the newer.

The index — which run holds which record, and which slots are free — is
built by one read of the table when the store is made or attached and is
kept current by the table's own writes.  It is placement state, like the
id mints' range, not a cache: the buffer cache does not empty it, and a
cold record read costs one table block.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable

from repro.errors import FileNotFound, InvalidArgument
from repro.physical.wire import AUX_SLOT_SIZE, STORE_BLOCK_SIZE, AuxAttributes, pad
from repro.util import FicusFileHandle, decode_record, encode_record
from repro.vnode.interface import Vnode

SLOTS_PER_BLOCK = STORE_BLOCK_SIZE // AUX_SLOT_SIZE
_FULL = (1 << SLOTS_PER_BLOCK) - 1
_START = b"fh="


def encode_run(aux: AuxAttributes, stamp: int) -> bytes:
    """A record as its run stores it, padded to whole slots."""
    rec = aux.to_record()
    rec["st"] = f"{stamp:x}"
    return pad((encode_record(rec) + "\n").encode("utf-8"), AUX_SLOT_SIZE)


def _decode_at(data: bytes, offset: int) -> tuple[AuxAttributes, int, int] | None:
    """The record whose run starts at ``offset`` of ``data`` — (record,
    stamp, slots) — or ``None`` when no whole record starts there."""
    if not data.startswith(_START, offset):
        return None
    end = data.find(b"\n", offset)
    if end < 0 or data.find(b"\0", offset, end) >= 0:
        return None  # torn: the run ends before its newline
    try:
        rec = decode_record(data[offset:end].decode("utf-8"))
        stamp = int(rec.pop("st"), 16)
        aux = AuxAttributes.from_record(rec)
    except (InvalidArgument, KeyError, ValueError, UnicodeDecodeError):
        return None
    length = end + 1 - offset
    return aux, stamp, -(-length // AUX_SLOT_SIZE)


class Run:
    """Where one record is stored: ``count`` slots from slot ``start``."""

    __slots__ = ("start", "count", "stamp")

    def __init__(self, start: int, count: int, stamp: int):
        self.start, self.count, self.stamp = start, count, stamp

    @property
    def block(self) -> int:
        return self.start // SLOTS_PER_BLOCK

    def blocks(self) -> range:
        """The blocks the run occupies: one, or whole blocks of its own."""
        if self.count <= SLOTS_PER_BLOCK:
            return range(self.block, self.block + 1)
        return range(self.block, self.block - (-self.count // SLOTS_PER_BLOCK))

    def mask(self) -> int:
        """The run's slots in its block's occupancy mask (whole blocks for
        a run longer than one)."""
        if self.count > SLOTS_PER_BLOCK:
            return _FULL
        return ((1 << self.count) - 1) << (self.start % SLOTS_PER_BLOCK)


def _placed(slot: int, count: int) -> bool:
    """May a run of ``count`` slots start at ``slot``?  It stays inside its
    block, or it takes whole blocks from a block's first slot."""
    if count > SLOTS_PER_BLOCK:
        return slot % SLOTS_PER_BLOCK == 0
    return slot % SLOTS_PER_BLOCK + count <= SLOTS_PER_BLOCK


def _fit(used: int, count: int) -> int | None:
    """The first slot of a block with ``count`` free slots in a row."""
    free = ~used & _FULL
    if count == 1 or not free:
        return (free & -free).bit_length() - 1 if free else None
    need = (1 << count) - 1
    for slot in range(SLOTS_PER_BLOCK - count + 1):
        if not used & (need << slot):
            return slot
    return None


class AttrTable:
    """The index of one attribute table, and the only writer of the file."""

    def __init__(self, vnode: Vnode):
        self.vnode = vnode
        #: record handle -> its run
        self.runs: dict[FicusFileHandle, Run] = {}
        #: per block: the slots in use, one bit each (a placed run can
        #: claim blocks the file does not have yet)
        self.used: list[int] = []
        #: blocks the file holds
        self.blocks = 0
        self.next_stamp = 1

    @classmethod
    def load(cls, vnode: Vnode) -> "AttrTable":
        """Index a table with one read.  Of two copies of one record the
        newer stamp wins; the older copy and any torn run are cleared at
        once, so no stale bytes outlive the index that ignored them."""
        table = cls(vnode)
        data = vnode.read_all()
        nblocks = -(-len(data) // STORE_BLOCK_SIZE)
        data = data.ljust(nblocks * STORE_BLOCK_SIZE, b"\0")
        table.used = [0] * nblocks
        table.blocks = nblocks
        scrub: set[int] = set()
        slot, nslots = 0, nblocks * SLOTS_PER_BLOCK
        while slot < nslots:
            offset = slot * AUX_SLOT_SIZE
            if not data[offset]:
                slot += 1
                continue
            decoded = _decode_at(data, offset)
            if decoded is None or not _placed(slot, decoded[2]):
                scrub.add(slot // SLOTS_PER_BLOCK)  # torn: no record starts here
                slot += 1
                continue
            aux, stamp, count = decoded
            run, other = Run(slot, count, stamp), table.runs.get(aux.fh)
            table.next_stamp = max(table.next_stamp, stamp + 1)
            slot += count
            if other is not None:
                # two copies: a crash between a fresh run and its old
                # run's clear; the older is cleared now
                loser = run if other.stamp > stamp else other
                scrub.update(loser.blocks())
                if loser is run:
                    continue
                table._release(other)
            table.runs[aux.fh] = run
            for block in run.blocks():
                table.used[block] |= run.mask()
        for block in sorted(scrub):
            # the block again, holding only the records the index kept
            base = block * STORE_BLOCK_SIZE
            pieces = [(base, bytes(STORE_BLOCK_SIZE))]
            for run in table.runs.values():
                lo = max(run.start * AUX_SLOT_SIZE, base)
                hi = min((run.start + run.count) * AUX_SLOT_SIZE, base + STORE_BLOCK_SIZE)
                if lo < hi:
                    pieces.append((lo, data[lo:hi]))
            table._write_block(block, pieces)
        return table

    # -- reading -----------------------------------------------------------------

    def __contains__(self, fh: FicusFileHandle) -> bool:
        return fh in self.runs

    def handles(self) -> list[FicusFileHandle]:
        """Every handle with a record."""
        return list(self.runs)

    def read(self, fh: FicusFileHandle) -> AuxAttributes:
        """One record, read from its run."""
        run = self.runs.get(fh)
        if run is None:
            raise FileNotFound(f"no attribute record for {fh}")
        decoded = _decode_at(self.vnode.read(run.start * AUX_SLOT_SIZE, run.count * AUX_SLOT_SIZE), 0)
        if decoded is None:
            raise InvalidArgument(f"attribute record of {fh} does not decode")
        return decoded[0]

    def block_of(self, fh: FicusFileHandle | None) -> int | None:
        run = self.runs.get(fh)
        return None if run is None else run.block

    # -- writing -----------------------------------------------------------------

    def commit(
        self,
        changes: dict[FicusFileHandle, AuxAttributes | None],
        near: Callable[[FicusFileHandle], FicusFileHandle | None],
        between: Callable[[], None],
    ) -> tuple[int, int]:
        """Write a set of records (``None``: clear it) in the flush's order:
        the blocks where a record lands in a fresh run, then ``between()``,
        then every other changed block, once, and the clears.  A record
        lands in a fresh run when it is new or has outgrown its old one; it
        is placed in its old block or the block of ``near(fh)`` when either
        has room.  A clear is written after ``between()`` — a block holding
        a fresh run and a clear is written twice — except an outgrown
        record's old run in the block of its fresh one, which goes in the
        same write.  Returns (records rewritten in their run, records
        moved)."""
        #: per block: (table offset, bytes) to lay over what it holds
        pieces: dict[int, list[tuple[int, bytes]]] = {}
        #: the same, for the runs cleared: never written before between()
        clears: dict[int, list[tuple[int, bytes]]] = {}
        fresh: set[int] = set()
        in_place = moved = 0

        def put(run: Run, data: bytes, into: dict[int, list[tuple[int, bytes]]] = pieces) -> None:
            start = run.start * AUX_SLOT_SIZE
            for block in run.blocks():
                base = block * STORE_BLOCK_SIZE
                lo, hi = max(start, base), min(start + len(data), base + STORE_BLOCK_SIZE)
                if lo < hi:
                    into.setdefault(block, []).append((lo, data[lo - start : hi - start]))

        # every fresh run is placed before any slot is released, so none
        # lands where a record this commit moves or clears is still stored
        released: list[Run] = []
        for fh, aux in changes.items():
            old = self.runs.get(fh)
            if aux is None:
                if old is not None:
                    # after between(): the list that names it goes first
                    put(old, bytes(old.count * AUX_SLOT_SIZE), clears)
                    released.append(old)
                    del self.runs[fh]
                continue
            if old is not None and old.count <= SLOTS_PER_BLOCK:
                data = encode_run(aux, old.stamp)
                count = len(data) // AUX_SLOT_SIZE
                if count <= old.count:
                    put(old, data.ljust(old.count * AUX_SLOT_SIZE, b"\0"))
                    if count < old.count:
                        released.append(Run(old.start + count, old.count - count, old.stamp))
                        old.count = count
                    in_place += 1
                    continue
            # new, or outgrown (a run of whole blocks is never rewritten in
            # place: a crash between its blocks would splice two records)
            stamp = self.next_stamp
            self.next_stamp += 1
            data = encode_run(aux, stamp)
            run = self._place(len(data) // AUX_SLOT_SIZE, stamp, (self.block_of(fh), self.block_of(near(fh))))
            put(run, data)
            fresh.update(run.blocks())
            if old is not None:
                # in the fresh run's own write when it shares its block,
                # else after every fresh run is written
                same = old.blocks() == run.blocks()
                put(old, bytes(old.count * AUX_SLOT_SIZE), pieces if same else clears)
                released.append(old)
                moved += 1
            self.runs[fh] = run
        for run in released:
            self._release(run)
        for block in sorted(fresh):
            self._write_block(block, pieces.pop(block))
        between()
        for block in sorted(pieces.keys() | clears.keys()):
            self._write_block(block, pieces.get(block, []) + clears.get(block, []))
        return in_place, moved

    def _release(self, run: Run) -> None:
        for block in run.blocks():
            self.used[block] &= ~run.mask()

    def _place(self, count: int, stamp: int, prefer: Iterable[int | None]) -> Run:
        """Claim a free run of ``count`` slots: in a preferred block, else
        the first block with room, else in new blocks at the end."""
        if count <= SLOTS_PER_BLOCK:
            for block in itertools.chain(prefer, range(len(self.used))):
                if block is None:
                    continue
                slot = _fit(self.used[block], count)
                if slot is not None:
                    run = Run(block * SLOTS_PER_BLOCK + slot, count, stamp)
                    self.used[block] |= run.mask()
                    return run
            first = len(self.used)
        else:
            span = -(-count // SLOTS_PER_BLOCK)
            first = next(
                (
                    block
                    for block in range(len(self.used) - span + 1)
                    if not any(self.used[block : block + span])
                ),
                len(self.used),
            )
        run = Run(first * SLOTS_PER_BLOCK, count, stamp)
        for block in run.blocks():
            if block == len(self.used):
                self.used.append(0)
            self.used[block] |= run.mask()
        return run

    def _write_block(self, block: int, pieces: list[tuple[int, bytes]]) -> None:
        """One device write of one block: the span its pieces cover, laid
        over the bytes between them.  A block the table does not have yet
        is written whole, so the table stays whole blocks long and no
        write inside it changes its size: the table's inode write, which
        the UFS puts after the block's, is the commit point."""
        if block >= self.blocks:
            offset, span = block * STORE_BLOCK_SIZE, bytearray(STORE_BLOCK_SIZE)
        elif len(pieces) == 1:
            (offset, data), span = pieces[0], None
        else:
            offset = min(lo for lo, _ in pieces)
            end = max(lo + len(piece) for lo, piece in pieces)
            span = bytearray(self.vnode.read(offset, end - offset))
        if span is not None:
            for lo, piece in pieces:
                span[lo - offset : lo - offset + len(piece)] = piece
            data = bytes(span)
        self.vnode.write(offset, data)
        self.blocks = max(self.blocks, block + 1)
