"""What one update writes, in order — ARCHITECTURE.md's table, enforced.

Three oracles, all reading ``BlockDevice.write_block`` directly:

* the device-write sequence of the tabled operations on a quiet
  two-replica cluster, every write labelled from the superblock's ranges
  and the UFS tree, equal to the sequences ARCHITECTURE.md prints ("What
  one update writes, in order") — with no bitmap write where no block
  changes hands and no block written twice in a row with the same bytes;
* a crash after every device write of a record's replace (``.meta``,
  ``.fdir``, a file's or a directory's record in the attribute table): what
  the record reads after recovery and a remount is the table's "what a
  crash leaves" column;
* ``fs().write_file`` trims instead of truncating first, and the trim
  neither leaks blocks nor lets old bytes resurface.

One-block rule: ``.meta`` and ``.fdir`` are replaced in place only when
the record keeps its length and fits one device block
(``STORE_BLOCK_SIZE``), so the in-place arm's single data write carries the
whole record; ``.fdir`` is padded to whole blocks, and a ``.fdir`` of more
than one block takes the resized arm, whose inode write is its commit point
(the new blocks are written before it, the old ones freed after it), so it
reads old or new after a crash, never a splice of two lists.  A record of
the attribute table lives in a run of 256-byte slots inside one block:
rewriting it is one block write, and one that outgrows its run is written
to a fresh run before the old one is cleared, so a crash leaves the old
record or the new one.
"""

import itertools
import re

import pytest

from repro.errors import CrashInjected, FileNotFound, InvalidArgument, IOError_
from repro.inspect import diff_replicas
from repro.nfs.client import NfsClientConfig
from repro.physical import EntryType, FicusPhysicalLayer
from repro.physical.check import ficus_fsck
from repro.physical.store import ReplicaStore
from repro.physical.table import SLOTS_PER_BLOCK, encode_run
from repro.physical.wire import (
    ATTR_NAME,
    AUX_SLOT_SIZE,
    FDIR_NAME,
    META_NAME,
    STORE_BLOCK_SIZE,
    DirectoryEntry,
    encode_directory,
)
from repro.recon import collect_directory, reconcile_directory
from repro.sim import DaemonConfig, FicusSystem
from repro.storage import BlockDevice
from repro.telemetry import Telemetry
from repro.tools.ficus_top import render_system
from repro.ufs import ROOT_INO, Ufs, fsck
from repro.util import FicusFileHandle, VirtualClock, VolumeId, VolumeReplicaId
from repro.vnode import UfsLayer
from repro.vv import VersionVector

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)
KIB = 1024
PAYLOAD = bytes(range(256)) * 8  # 2 KiB

# -- labelling device writes ----------------------------------------------------------

def role_of(name: str) -> str:
    """The role of a store file, from its name in the underlying Unix
    directory."""
    return {META_NAME: "meta", FDIR_NAME: "fdir", ATTR_NAME: "attr"}.get(name, "contents")


def ufs_roles(fs: Ufs) -> dict[int, str]:
    """ino -> role, from a walk of the UFS tree below the root."""
    roles = {ROOT_INO: "udir"}
    pending = [ROOT_INO]
    while pending:
        for name, ino in fs.readdir(pending.pop()).items():
            if name in (".", ".."):
                continue
            if fs.get_inode(ino).is_dir:
                roles[ino] = "udir"
                pending.append(ino)
            else:
                roles[ino] = role_of(name)
    return roles


class DeviceWrites:
    """Record every ``write_block`` of one host's device inside a ``with``
    block and label each: ``bitmap``; ``inode[x]`` — the inode-table block
    whose slot for x changed; ``udir`` — a data block of an underlying Unix
    directory; ``data[x]`` — a data block of file x.  x is the file's role
    (``contents``, ``attr``, ``fdir``, ``meta``), prefixed ``+``
    when the inode did not exist before the block and ``-`` when it does
    not exist after it."""

    def __init__(self, host):
        self.fs, self.device = host.ufs, host.ufs.device
        self.raw: list[tuple[int, bytes, bytes]] = []

    def _snapshot(self) -> tuple[dict[int, str], dict[int, int]]:
        roles = ufs_roles(self.fs)
        owners = {
            blk: ino for ino in roles for blk in self.fs._file_blocks(self.fs.get_inode(ino)) if blk
        }
        return roles, owners

    def __enter__(self) -> "DeviceWrites":
        self.before = self._snapshot()
        write_block = self.device.write_block

        def recording(blockno: int, data: bytes) -> None:
            old = self.device.raw_block(blockno)
            write_block(blockno, data)
            self.raw.append((blockno, old, bytes(data)))

        self.device.write_block = recording
        return self

    def __exit__(self, *exc_info) -> None:
        del self.device.write_block  # the instance attribute shadowing the method
        (roles0, owners0), (roles1, owners1) = self.before, self._snapshot()
        sb = self.fs.sb

        def role(ino: int) -> str:
            mark = "+" if ino not in roles0 else "-" if ino not in roles1 else ""
            return mark + (roles1.get(ino) or roles0[ino])

        self.labels = []
        for blockno, old, new in self.raw:
            if blockno >= sb.data_start:
                owner = role(owners1.get(blockno) or owners0[blockno])
                self.labels.append("udir" if owner.endswith("udir") else f"data[{owner}]")
            elif blockno >= sb.bitmap_start:
                self.labels.append("bitmap")
            else:
                first = (blockno - sb.inode_table_start) * sb.inodes_per_block + 1
                changed = [
                    first + slot
                    for slot in range(sb.inodes_per_block)
                    if old[slot * sb.inode_size : (slot + 1) * sb.inode_size]
                    != new[slot * sb.inode_size : (slot + 1) * sb.inode_size]
                ]
                self.labels.append("inode[" + ",".join(map(role, changed)) + "]")

    def rewrites(self) -> list[str]:
        """Labels of writes that stored the bytes the block already held
        because an earlier write of this same recording put them there."""
        held: dict[int, bytes] = {}
        out = []
        for (blockno, _, new), label in zip(self.raw, self.labels):
            if held.get(blockno) == new:
                out.append(label)
            held[blockno] = new
        return out


# -- (i) the table ----------------------------------------------------------------------

#: The sequences ARCHITECTURE.md prints, one line per set of writes the
#: UFS below holds and writes at a barrier or at the operation's end.  A
#: set goes out in soft-update order, each block once: file data and fresh
#: blocks, bitmap, inode-table blocks, underlying-directory blocks, then the
#: frees — each inode slot before its bitmap bit.  An inode-table block
#: carrying several changed slots is one write (``inode[udir,+contents]``).
#: A record file's replace appears as its in-place arm ``data[x] inode[x]``
#: (``data[x]`` alone when the inode's bytes did not change: same size, and
#: the virtual clock had not moved since its last write); ``attr`` is the
#: attribute table, where a file's record and its directory's share a block
#: — a new record is placed beside its parent's.  The resized arm appears
#: only as the cross-directory rename's empty target ``.fdir`` taking its
#: first block (``data[fdir] bitmap inode[fdir]``: the inode write is the
#: commit point, and there was nothing to free).  A write session's first
#: write is preceded by the record's ``updating`` mark, an operation of its
#: own, and its close's bump clears the mark (the last ``data[attr]``), so a
#: crash between them is counted as an update.  A create's later table
#: writes are ``data[attr]`` alone: the creating host holds its peer's
#: batch of the directory across the create, so no RPC advances the clock,
#: and ``_put_inode`` skips the byte-identical inode.  A store flush puts a
#: barrier before each step: the contents the operation committed, the
#: table blocks where new records land, ``.fdir``, every other changed
#: table block, the frees.  A pulled version is written into the file's own
#: inode: one that keeps the stored length within one block is its data
#: block in place (``data[contents] inode[contents]``: no block changes
#: hands, no name changes), the record follows.  A propagation pull's
#: installs share one set: every version's blocks, then the inodes, then
#: the underlying directory's block once, naming every new file.  A pulled
#: new file is created under its own name (the grouped pass's
#: ``+contents``) — no contents inode made and freed.
TABLE = {
    "overwrite": """
        data[attr] inode[attr]
        data[contents] inode[contents]
        data[attr]
    """,
    "create": """
        inode[udir,+contents] udir
        data[attr] inode[attr]
        data[fdir] inode[fdir]
        data[attr]
        data[+contents] bitmap inode[+contents]
        data[attr]
    """,
    "unlink": """
        data[fdir] inode[fdir]
        data[attr] inode[attr]
        inode[udir] udir inode[-contents] bitmap
    """,
    "rename, same directory": """
        data[fdir] inode[fdir]
        data[attr] inode[attr]
        data[fdir]
        data[attr]
    """,
    "rename, across directories": """
        inode[udir,contents] udir
        data[fdir] bitmap inode[fdir]
        data[attr] inode[attr]
        data[fdir] inode[fdir]
        data[attr]
        inode[udir] udir inode[contents]
    """,
    "shadow commit": """
        data[contents] inode[contents]
        data[attr] inode[attr]
    """,
    # three notes of one directory (a create, an overwrite, an unlink) in
    # one group: both installs in one set, then the directory's records and
    # entry list, then the storage the unlink orphaned
    "grouped pass": """
        data[contents] data[+contents] bitmap inode[udir,contents,+contents] udir
        data[attr] inode[attr]
        data[fdir] inode[fdir]
        data[attr]
        udir inode[-contents] bitmap
    """,
}


def settled_cluster() -> FicusSystem:
    """Two replicas agreeing on ``/d/{f,g,h}`` and an empty ``/e``."""
    system = FicusSystem(["alpha", "beta"], daemon_config=QUIET)
    fs = system.host("alpha").fs()
    fs.mkdir("/d")
    fs.mkdir("/e")
    for name in "fgh":
        fs.write_file(f"/d/{name}", PAYLOAD)
    system.reconcile_everything()
    system.run_for(1.0)
    return system


def record_operations() -> dict[str, DeviceWrites]:
    """The tabled operations, each on one host's device; the clock moves
    between operations (as it does between a user's) and not inside one."""
    system = settled_cluster()
    alpha, beta = system.host("alpha"), system.host("beta")
    fs = alpha.fs()
    out = {}

    def record(label, host, operation):
        system.run_for(1.0)
        with DeviceWrites(host) as writes:
            operation()
        out[label] = writes

    record("overwrite", alpha, lambda: fs.write_file("/d/f", PAYLOAD[::-1]))
    record("create", alpha, lambda: fs.write_file("/d/new", PAYLOAD))
    record("unlink", alpha, lambda: fs.unlink("/d/g"))
    record("rename, same directory", alpha, lambda: fs.rename("/d/h", "/d/h2"))
    record("rename, across directories", alpha, lambda: fs.rename("/d/h2", "/e/h3"))
    # the receiving side of a propagation pull of one overwritten file,
    # with nothing else pending: settle, then drain beta's notes
    system.reconcile_everything()
    beta.propagation_daemon.tick()
    fs.write_file("/d/f", PAYLOAD)
    record("shadow commit", beta, beta.propagation_daemon.tick)
    assert beta.fs().read_file("/d/f") == PAYLOAD
    # three notes of one directory — a create, an overwrite, an unlink —
    # serviced by the receiving side as one group
    fs.write_file("/d/made", PAYLOAD)
    fs.write_file("/d/f", PAYLOAD[::-1])
    fs.unlink("/d/new")
    record("grouped pass", beta, beta.propagation_daemon.tick)
    assert beta.fs().read_file("/d/made") == PAYLOAD and beta.fs().read_file("/d/f") == PAYLOAD[::-1]
    assert not beta.fs().exists("/d/new") and beta.physical.new_version_cache_size == 0
    return out


@pytest.fixture(scope="module")
def recorded() -> dict[str, DeviceWrites]:
    return record_operations()


@pytest.mark.parametrize("operation", TABLE)
def test_device_writes_are_the_table(recorded, operation):
    assert recorded[operation].labels == TABLE[operation].split()


@pytest.mark.parametrize("operation", TABLE)
def test_no_block_is_rewritten_with_the_bytes_it_holds(recorded, operation):
    assert recorded[operation].rewrites() == []


def test_a_group_writes_its_directory_once(recorded):
    # three notes, one directory: its entry file is written once, after
    # every file's own writes and before the storage the unlink orphaned is
    # freed.  The table block holding every record the group changed is
    # written before it, because the new file's record lands there, and
    # once more after it: the unlinked file's record is cleared only once no
    # stored list names the file.  The underlying Unix directory's block is
    # written once for the installs, naming the new file, before any
    # record, and once more for the free, after the list.
    labels = recorded["grouped pass"].labels
    assert labels.count("data[fdir]") == 1 and labels.count("data[attr]") == 2
    fdir = labels.index("data[fdir]")
    first, last = labels.index("data[attr]"), labels.index("data[attr]", fdir)
    assert first < fdir < last < labels.index("inode[-contents]", last)
    assert max(i for i, label in enumerate(labels) if label in ("data[contents]", "data[+contents]")) < first
    assert labels.count("udir") == 2 and labels.index("udir") < first and labels.index("udir", first) > last


def test_a_pulled_new_file_is_born_under_its_own_name(recorded):
    # the propagation pull of a file beta does not store yet: no inode is
    # made and then freed, nothing is resized, and the record is written
    # once, already final — the pulled vector and the ancestor
    system = settled_cluster()
    alpha, beta = system.host("alpha"), system.host("beta")
    beta.propagation_daemon.tick()
    alpha.fs().write_file("/d/born", PAYLOAD)
    system.run_for(1.0)
    with DeviceWrites(beta) as writes:
        beta.propagation_daemon.tick()
    assert beta.fs().read_file("/d/born") == PAYLOAD
    labels = writes.labels
    assert not [label for label in labels if "-" in label]
    assert labels.count("data[fdir]") == 1 and labels.count("bitmap") == 1  # no resized arm
    assert labels.count("data[attr]") == 1 and labels.count("data[+contents]") == 1
    (store,) = beta.physical.stores.values()
    (alpha_store,) = alpha.physical.stores.values()
    dir_fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "d")
    fh = next(e.fh for e in store.read_entries(dir_fh) if e.name == "born")
    aux = store.read_record(fh)
    assert aux.vv == alpha_store.read_record(fh).vv and aux.ancestor_digests()
    # and so in the grouped pass, whose installs share one set: the
    # overwrite's block in place and the new file's, both inodes, and one
    # directory-block write naming the new file; nothing freed, nothing
    # made that is not kept
    grouped = recorded["grouped pass"].labels
    part = grouped[: grouped.index("data[attr]")]
    assert part == "data[contents] data[+contents] bitmap inode[udir,contents,+contents] udir".split()


def test_no_bitmap_write_where_no_block_changes_hands(recorded):
    # a same-size overwrite — the session's mark, the contents, then the
    # session close's version-vector bump in the file's and the
    # directory's records
    assert "bitmap" not in recorded["overwrite"].labels


# -- (ii) a crash at every write of a record's replace --------------------------------

VOL = VolumeId(1, 1)
VR = VolumeReplicaId(VOL, 1)


def make_store(prepare) -> tuple[BlockDevice, ReplicaStore, FicusFileHandle]:
    """A one-replica store holding one file, on its own device, a second
    after its last write (so a replace has new inode times to write)."""
    device, clock = BlockDevice(1024), VirtualClock()
    physical = FicusPhysicalLayer(UfsLayer(Ufs.mkfs(device, num_inodes=128, clock=clock)), "hostA")
    store = physical.create_volume_replica(VR)
    root = physical.root().lookup(VR.to_hex())
    fh = FicusFileHandle(VOL, store.new_file_id())
    root.insert("f", EntryType.FILE, fh=fh)
    root.lookup_fh(fh).write(0, b"x")
    if prepare is not None:
        prepare(store, fh)
    clock.advance(1.0)
    return device, store, fh


def meta_bytes(store, fh):
    return store._meta_vnode().read_all()


def entry_file_vnode(store, fh):
    return store._unix_child(store.root_handle(), FDIR_NAME)


def entry_file_bytes(store, fh):
    return entry_file_vnode(store, fh).read_all()


def file_record(store, fh):
    return store.read_record(fh)


def dir_record(store, fh):
    return store.read_record(store.root_handle())


def mint_entry_id(store, fh):
    store.new_entry_id()


def use_up_entry_ids_through(last):
    """Mint through ``last``, the end of a reserved range: ``.meta`` holds
    ``next_seq=last+1`` and the next mint must write a new mark first."""

    def prepare(store, fh):
        while store.new_entry_id().seq != last:
            pass

    return prepare


def set_merge_policy(tag):
    def replace(store, fh):
        aux = store.read_record(fh)
        aux.merge_policy = tag
        store.write_record(fh, aux)

    return replace


def set_merge_policy_to_fill(length):
    """Set a policy tag that makes the file's stored run exactly ``length``
    bytes long, before its padding to whole slots."""

    def replace(store, fh):
        aux = store.read_record(fh)
        aux.merge_policy = "p"
        unpadded = len(encode_run(aux, store._attr.runs[fh].stamp).rstrip(b"\0"))
        set_merge_policy("p" * (1 + length - unpadded))(store, fh)

    return replace


def fill_the_table_block(store, fh):
    """Give the table's first block a record in every slot, and a second
    block with room: a record that outgrows its run then moves to another
    block, its old copy cleared by a second write."""
    with store.operation():
        for _ in range(SLOTS_PER_BLOCK - len(store.record_handles()) + 1):
            other = FicusFileHandle(VOL, store.new_file_id())
            store.create_file_storage(store.root_handle(), other)
    assert store._attr.used[0] == (1 << SLOTS_PER_BLOCK) - 1 and len(store._attr.used) == 2


def new_entry(store, name):
    return DirectoryEntry(store.new_entry_id(), name, FicusFileHandle(VOL, store.new_file_id()), EntryType.FILE)


def fill_the_entry_file(store, fh):
    """Give ``.fdir`` as many entries as one block holds: one more entry
    makes the list two blocks long."""
    root = store.root_handle()
    entries = store.read_entries(root)
    while True:
        entry = new_entry(store, f"n{len(entries):03d}")
        if len(encode_directory(entries + [entry])) > STORE_BLOCK_SIZE:
            break
        entries.append(entry)
    store.write_entries(root, entries)


def add_an_entry(store, fh):
    """Replace ``.fdir`` with its list and one more entry."""
    root = store.root_handle()
    entries = store.read_entries(root)
    entries.append(new_entry(store, "one-more"))
    store._replace_record(entry_file_vnode(store, fh), encode_directory(entries))


def tombstone_the_entry(store, fh):
    """Replace ``.fdir`` with the same list, its one entry now a tombstone
    (the status keeps its width, so the file keeps its block)."""
    (entry,) = store.read_entries(store.root_handle())
    store._replace_record(entry_file_vnode(store, fh), encode_directory([entry.killed()]))


def merge_dir_vv(remote):
    def replace(store, fh):
        aux = store.read_record(store.root_handle())
        aux.vv = aux.vv.merge(VersionVector(remote))
        store.write_record(store.root_handle(), aux)

    return replace


#: (what the record reads, what UFS ``fsck`` says) after recovery from a
#: crash that let k device writes of the replace through — the "what a
#: crash leaves" column of ARCHITECTURE.md's crash-window table.  In place
#: is ``data`` ``inode``: no block changes hands, so the tables cannot
#: disagree, and the one data write is the commit point.  It is every
#: table record's rewrite, and a move to a fresh run in the same block.
IN_PLACE = [("old", "clean"), ("new", "clean")]
#: A record moved to a fresh run in another block: ``data`` (the fresh run)
#: ``inode`` ``data`` (the old run cleared).  Between the two data writes
#: the table holds both copies, and the newer stamp wins the attach.
MOVED = [("old", "clean"), ("new", "clean"), ("new", "clean")]
LEAK = "marked used in bitmap but unreferenced"
#: The resized arm of ``.meta``/``.fdir`` — ``truncate(0)`` + ``write`` in
#: one operation — is ``data`` (the new block) ``bitmap`` (take) ``inode``
#: (the commit point: size and pointers) ``bitmap`` (the old block's free,
#: after the inode that stopped naming it).  Old or new at every crash
#: point; between the takes and the free a block is leaked, never lost.
#: Only a ``.fdir`` changing its block count takes it
#: (``test_an_entry_file_of_two_blocks_is_never_rewritten_in_place``).
RESIZED = [("old", "clean"), ("old", "clean"), ("old", LEAK), ("new", LEAK)]
#: The same arm writing one block more than it freed: two new blocks' data
#: before the bitmap takes both.
RESIZED_BY_A_BLOCK = RESIZED[:2] + [("old", "clean"), ("old", f"{LEAK}, {LEAK}"), ("new", LEAK)]

CASES = {
    # record: (its reader, set-up, the replace, outcome at each crash point)
    # the replace is the mint that reserves the next ID_RANGE ids (65 -> 129);
    # the marks are fixed-width, so .meta has no resized arm left
    "meta, same length": (meta_bytes, use_up_entry_ids_through(64), mint_entry_id, IN_PLACE),
    "file aux, same length": (file_record, set_merge_policy("lww"), set_merge_policy("log"), IN_PLACE),
    # a longer encoding in the same run: a policy tag, a replica's digit
    "file aux, longer": (file_record, None, set_merge_policy("log"), IN_PLACE),
    "directory aux, same length": (dir_record, None, merge_dir_vv({1: 5}), IN_PLACE),
    "directory aux, longer": (dir_record, None, merge_dir_vv({2: 1}), IN_PLACE),
    # the run's edge: 255 bytes still fill one slot, 257 need two — in the
    # same block while it has room (one write), else in another
    "file aux, one byte short of the slot": (
        file_record, None, set_merge_policy_to_fill(AUX_SLOT_SIZE - 1), IN_PLACE
    ),
    "file aux, one byte over the slot": (file_record, None, set_merge_policy_to_fill(AUX_SLOT_SIZE + 1), IN_PLACE),
    "file aux, over the slot in a full block": (
        file_record, fill_the_table_block, set_merge_policy_to_fill(AUX_SLOT_SIZE + 1), MOVED
    ),
    "entry file, same blocks": (entry_file_bytes, None, tombstone_the_entry, IN_PLACE),
    "entry file, one more block": (entry_file_bytes, fill_the_entry_file, add_an_entry, RESIZED_BY_A_BLOCK),
}


@pytest.mark.parametrize("case", CASES)
def test_record_replace_crashed_at_every_write(case):
    read, prepare, replace, expected = CASES[case]
    device, store, fh = make_store(prepare)
    old = read(store, fh)
    runs = {fh: store._attr.runs[fh].count for fh in store.record_handles()}
    replace(store, fh)
    new = read(store, fh)
    assert old != new
    if isinstance(old, bytes):
        # the one-block assumption: in place only at one block's length
        assert (len(old) == len(new) <= device.block_size) == (expected is IN_PLACE)
    else:
        moved = store._attr.runs[fh].count != runs[fh]
        assert moved == ("over the slot" in case)

    outcomes = []
    for crash_point in itertools.count():
        device, store, fh = make_store(prepare)
        device.plan_crash_after_writes(crash_point)
        try:
            replace(store, fh)
            completed = True
        except CrashInjected:
            completed = False
        device.recover()
        ufs = Ufs.mount(device)
        store = ReplicaStore.attach(UfsLayer(ufs).root(), VR)
        value = read(store, fh)
        holds = "old" if value == old else "new" if value == new else "empty" if value == b"" else repr(value)
        problems = [re.sub(r"(inode|block) \d+:? ", "", line) for line in fsck(ufs).problems]
        outcomes.append((holds, ", ".join(problems) or "clean"))
        # the attach left one copy of every record
        assert sorted(map(str, store.record_handles())) == sorted(map(str, runs)), case
        if completed:
            break
    assert outcomes == expected + [("new", "clean")]


def replace_f_by_a_new_file(store, fh):
    """One operation on the one replica: ``f`` (``fh``) is unlinked and a new
    file ``g`` is made, so one flush lands g's record in a fresh run and
    clears f's, both in the table's first block."""
    root = store.root_handle()
    (entry,) = store.read_entries(root)
    new = FicusFileHandle(VOL, store.new_file_id())
    with store.operation():
        store.create_file_storage(root, new)
        store.write_entries(root, [entry.killed(), DirectoryEntry(store.new_entry_id(), "g", new, EntryType.FILE)])
        store.unlink_file_storage(root, fh)


def test_a_clear_beside_a_fresh_record_waits_for_the_list():
    # No peer holds f: a crash that left the old list naming f over a
    # cleared record would lose f's contents to recovery.  The fresh run's
    # block is written before .fdir, and f's clear only after it.
    device, store, fh = make_store(None)
    replace_f_by_a_new_file(store, fh)
    (g,) = set(store.record_handles()) - {fh, store.root_handle()}
    assert store._attr.block_of(g) == store._attr.block_of(store.root_handle()) == 0

    outcomes = []
    for crash_point in itertools.count():
        device, store, fh = make_store(None)
        assert store._attr.block_of(fh) == 0
        device.plan_crash_after_writes(crash_point)
        try:
            replace_f_by_a_new_file(store, fh)
            completed = True
        except CrashInjected:
            completed = False
        device.recover()
        ufs = Ufs.mount(device)
        store = ReplicaStore.attach(UfsLayer(ufs).root(), VR)
        store.recover()
        root = store.root_handle()
        live = {entry.name: entry.fh for entry in store.read_entries(root) if entry.live}
        if list(live) == ["f"] and store.has_file(root, fh) and store.file_vnode(root, fh).read_all() == b"x":
            outcomes.append("old")
        elif list(live) == ["g"] and store.has_file(root, live["g"]) and fh not in store.record_handles():
            outcomes.append("new")
        else:
            outcomes.append(repr((live, store.has_file(root, fh), fh in store.record_handles())))
        assert all("stray object" in problem for problem in ficus_fsck(store).problems), crash_point
        if completed:
            break
    assert set(outcomes) == {"old", "new"} and outcomes[-1] == "new", outcomes


def test_both_arms_are_counted_and_shown():
    system = FicusSystem(["alpha"], daemon_config=QUIET, telemetry=Telemetry())
    fs = system.host("alpha").fs()
    fs.write_file("/f", PAYLOAD)
    counters = system.telemetry.metrics

    def counts():
        return [counters.get(f"store.records_{arm}").value for arm in ("in_place", "resized")]

    before = counts()
    # the session's mark, then the file's record at the close: each keeps
    # its run (the directory's record does not change)
    fs.write_file("/f", PAYLOAD[::-1])
    assert counts() == [before[0] + 2, before[1]]
    fs.set_merge_policy("/f", "append-log")  # longer, in the same run
    assert counts() == [before[0] + 3, before[1]]
    fs.set_merge_policy("/f", "x" * AUX_SLOT_SIZE)  # outgrows its run: moved
    assert counts() == [before[0] + 3, before[1] + 1]
    in_place, resized = counts()
    assert f"record replaces: {in_place} in place, {resized} resized" in render_system(system)
    # and a system that records nothing says nothing
    assert "record replaces" not in render_system(FicusSystem(["alpha"], daemon_config=QUIET))


def test_an_entry_file_of_two_blocks_is_never_rewritten_in_place():
    # in place, a crash between its two block writes could leave block 0
    # new and block 1 old: a splice of two lists.  Resized, its inode write
    # commits new blocks: old or new.
    device, store, fh = make_store(None)
    root = store.root_handle()
    (entry,) = store.read_entries(root)
    entries = [entry] + [
        DirectoryEntry(store.new_entry_id(), f"name-{i:03d}", FicusFileHandle(VOL, store.new_file_id()), EntryType.FILE)
        for i in range(60)
    ]
    store.write_entries(root, entries)
    stored = store._unix_child(root, FDIR_NAME).getattr().size
    assert stored == 2 * STORE_BLOCK_SIZE
    in_place, resized = store.stats.records_in_place, store.stats.records_resized
    store.write_entries(root, [entries[0].killed()] + entries[1:])  # same length
    assert store._unix_child(root, FDIR_NAME).getattr().size == stored
    # .fdir resized, and nothing else written: the record holds no digest
    assert (store.stats.records_in_place, store.stats.records_resized) == (in_place, resized + 1)


# -- (iii) write_file trims instead of truncating first ---------------------------------


def test_write_file_trims_and_nothing_old_resurfaces():
    system = FicusSystem(["alpha"], daemon_config=QUIET)
    alpha = system.host("alpha")
    fs = alpha.fs()
    eight = [bytes([fill]) * (8 * KIB) for fill in (1, 2, 3)]
    fs.write_file("/f", eight[0])
    free = alpha.ufs.free_block_count()

    fs.write_file("/f", PAYLOAD)  # shrink: the second block goes back
    assert fs.read_file("/f") == PAYLOAD
    assert alpha.ufs.free_block_count() == free + 1

    with fs.open("/f", "r+") as handle:  # grow again without writing
        handle.truncate(8 * KIB)
    assert fs.read_file("/f") == PAYLOAD + bytes(6 * KIB)  # zeros, never eight[0]'s bytes

    fs.write_file("/f", eight[1])
    assert fs.read_file("/f") == eight[1]
    assert alpha.ufs.free_block_count() == free

    system.run_for(1.0)
    with DeviceWrites(alpha) as writes:
        fs.write_file("/f", eight[2])  # same size: no block changes hands
    assert fs.read_file("/f") == eight[2]
    assert "bitmap" not in writes.labels
    assert alpha.ufs.free_block_count() == free
    assert fsck(alpha.ufs).clean


# -- (iv) a crash after every device write of an operation -------------------------------
#
# The flush protocol, swept: crash the acting host after its k-th device
# write for every k, recover the device, reboot, and hold the host to what
# ARCHITECTURE.md's "The flush protocol" says each window can leave.


def three_notes_for_beta(system: FicusSystem) -> None:
    """A create, an overwrite and an unlink in one directory, acknowledged
    at alpha and waiting in beta's new-version cache."""
    system.host("beta").propagation_daemon.tick()
    fs = system.host("alpha").fs()
    fs.write_file("/d/made", PAYLOAD)
    fs.write_file("/d/f", PAYLOAD[::-1])
    fs.unlink("/d/g")
    system.run_for(1.0)


def three_updates_unheard_at_beta(system: FicusSystem) -> None:
    """A create, an overwrite and an unlink in one directory, made at alpha
    while beta was partitioned away: beta holds no note of any of them."""
    system.partition([{"alpha"}, {"beta"}])
    fs = system.host("alpha").fs()
    fs.write_file("/d/made", PAYLOAD)
    fs.write_file("/d/f", PAYLOAD[::-1])
    fs.unlink("/d/g")
    system.heal()
    system.run_for(1.0)


def beta_reconciles_d(system: FicusSystem) -> None:
    """One directory reconciliation of ``/d`` at beta against alpha, alone:
    the entry replay, with no file pulled."""
    beta = system.host("beta")
    (store,) = beta.physical.stores.values()
    (peer,) = (loc for loc in system.root_locations if loc.host == "alpha")
    dir_fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "d")
    remote_dir = beta.fabric.volume_root(peer.host, peer.volrep).lookup_fh(dir_fh)
    reconcile_directory(beta.physical, store, dir_fh, remote_dir)


def d_at(system: FicusSystem, host_name: str):
    """(the host's store, the handle of ``/d``)."""
    (store,) = system.host(host_name).physical.stores.values()
    return store, next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "d")


def replica_ids(system: FicusSystem) -> frozenset:
    return frozenset(loc.volrep.replica_id for loc in system.root_locations)


def reconciles_d(system: FicusSystem, host_name: str, peer_name: str) -> None:
    """One directory reconciliation of ``/d`` at a host against a peer,
    with the volume's replica set (what carries deletion acks)."""
    host = system.host(host_name)
    store, dir_fh = d_at(system, host_name)
    (peer,) = (loc for loc in system.root_locations if loc.host == peer_name)
    remote_dir = host.fabric.volume_root(peer.host, peer.volrep).lookup_fh(dir_fh)
    reconcile_directory(host.physical, store, dir_fh, remote_dir, all_replicas=replica_ids(system))


def tombstones_of_d(system: FicusSystem, host_name: str) -> list:
    store, dir_fh = d_at(system, host_name)
    return [(entry.acks, entry.acks2) for entry in store.read_entries(dir_fh) if not entry.live]


def acknowledged_everywhere(system: FicusSystem) -> None:
    """``/d/g`` unlinked at alpha, and the delete acknowledged by both
    replicas at both: alpha's next collection starts phase 2."""
    system.host("alpha").fs().unlink("/d/g")
    reconciles_d(system, "beta", "alpha")
    reconciles_d(system, "alpha", "beta")
    everyone = replica_ids(system)
    assert tombstones_of_d(system, "alpha") == [(everyone, frozenset())]


def in_phase_two_everywhere(system: FicusSystem) -> None:
    """Further: both replicas have collected once and told each other, so
    alpha's next collection purges the tombstone."""
    acknowledged_everywhere(system)
    for name in ("alpha", "beta"):
        collect_directory(*d_at(system, name), replica_ids(system))
    reconciles_d(system, "beta", "alpha")
    reconciles_d(system, "alpha", "beta")
    everyone = replica_ids(system)
    assert tombstones_of_d(system, "alpha") == [(everyone, everyone)]


def alpha_collects_d(system: FicusSystem) -> None:
    collect_directory(*d_at(system, "alpha"), replica_ids(system))


#: what the append-log resolver makes of the two partitioned appends below
MERGED_LOG = b"alpha\nbravo\nseed\n"


#: three blocks' worth of a version: an install into a one-block file
#: changes its block count
THREE_BLOCKS = bytes(range(251)) * (2 * STORE_BLOCK_SIZE // 251 + 1)


def a_grown_version_for_beta(system: FicusSystem) -> None:
    """``/d/f`` rewritten at alpha one block long → three blocks long, the
    note waiting in beta's new-version cache."""
    system.host("beta").propagation_daemon.tick()
    system.host("alpha").fs().write_file("/d/f", THREE_BLOCKS)
    system.run_for(1.0)


def a_linked_version_for_beta(system: FicusSystem) -> None:
    """``/d/f`` also named ``/e/l`` at both replicas — one inode under two
    names at beta — then rewritten at alpha, the note waiting at beta."""
    system.host("alpha").fs().link("/d/f", "/e/l")
    system.reconcile_everything()
    system.host("beta").propagation_daemon.tick()
    system.host("alpha").fs().write_file("/d/f", PAYLOAD[::-1])
    system.run_for(1.0)


def conflicting_appends(system: FicusSystem) -> None:
    """``/d/notes.log``, an append log both replicas hold as ``seed``, then
    appended to at each side of a partition; healed, nobody reconciled.
    Like :func:`a_session_written_at_alpha` it ends once beta's cached NFS
    lookups of alpha have expired."""
    system.enable_resolvers()
    system.host("alpha").fs().write_file("/d/notes.log", b"seed\n")
    system.reconcile_everything()
    for name in system.hosts:
        system.host(name).propagation_daemon.tick()  # each retains the seed as the ancestor
    system.partition([{"alpha"}, {"beta"}])
    system.host("alpha").fs().write_file("/d/notes.log", b"seed\nalpha\n")
    system.host("beta").fs().write_file("/d/notes.log", b"seed\nbravo\n")
    system.heal()
    system.run_for(NfsClientConfig().name_cache_ttl + 1.0)


def alpha_reconciles_with_beta(system: FicusSystem) -> None:
    """A recon daemon run at alpha against beta: the conflict is found and
    the resolver's merge installed."""
    (location,) = (loc for loc in system.root_locations if loc.host == "alpha")
    (peer,) = (loc for loc in system.root_locations if loc.host == "beta")
    result = system.host("alpha").recon_daemon.reconcile_with(location.volrep, peer)
    assert result.conflicts_auto_resolved == 1 or system.host("alpha").ufs.device.failed


def a_session_written_at_alpha(system: FicusSystem) -> None:
    """An update session on ``/d/f`` at alpha that has written its new
    contents and not closed yet (the handle waits on the system).

    It opens once beta's cached NFS lookups of alpha have expired.  A
    lookup cached before alpha reboots names a vnode alpha no longer
    knows: beta's pull through it fails once with ESTALE, and the recon
    back-off then keeps beta from pulling within two sweeps — an open item
    of the NFS client (ROADMAP item 2), not of the flush swept here."""
    system.run_for(NfsClientConfig().name_cache_ttl + 1.0)
    system.session = system.host("alpha").fs().open("/d/f", "r+")
    system.session.write(PAYLOAD[::-1])


def filled_table(extra: int):
    """Fill alpha's attribute table: its first block gets a record in every
    slot, and ``extra`` more records go to a second block."""

    def prepare(system: FicusSystem) -> None:
        (store,) = system.host("alpha").physical.stores.values()
        fs = system.host("alpha").fs()
        for i in range(SLOTS_PER_BLOCK - len(store.record_handles()) + extra):
            fs.write_file(f"/d/p{i}", b"")
        system.reconcile_everything()
        system.run_for(1.0)
        assert store._attr.used[0] == (1 << SLOTS_PER_BLOCK) - 1 and len(store._attr.used) == 1 + bool(extra)

    return prepare


def tag_at_alpha(tag: str):
    return lambda system: system.host("alpha").fs().set_merge_policy("/d/f", tag)


SETTLED = {"/d/f": PAYLOAD, "/d/g": PAYLOAD, "/d/h": PAYLOAD}
#: what an outcome expects of a path that names a directory
DIR = "a directory"
#: scenario -> (crashing host, set-up, the operation, what every replica
#: holds once settled: the acknowledged state, then each outcome the
#: operation's own names may take — old, new, or a step in between that a
#: UNIX caller could also observe; the last one is the completed operation)
SWEEP = {
    "create": (
        "alpha",
        None,
        lambda system: system.host("alpha").fs().write_file("/d/new", PAYLOAD),
        SETTLED,
        [{"/d/new": None}, {"/d/new": b""}, {"/d/new": PAYLOAD}],
    ),
    "mkdir": (
        "alpha",
        None,
        lambda system: system.host("alpha").fs().mkdir("/d/sub"),
        SETTLED,
        [{"/d/sub": None}, {"/d/sub": DIR}],
    ),
    "link, across directories": (
        "alpha",
        None,
        lambda system: system.host("alpha").fs().link("/d/f", "/e/l"),
        SETTLED,
        [{"/e/l": None}, {"/e/l": PAYLOAD}],
    ),
    "unlink": (
        "alpha",
        None,
        lambda system: system.host("alpha").fs().unlink("/d/g"),
        {"/d/f": PAYLOAD, "/d/h": PAYLOAD},
        [{"/d/g": PAYLOAD}, {"/d/g": None}],
    ),
    "rename, same directory": (
        "alpha",
        None,
        lambda system: system.host("alpha").fs().rename("/d/h", "/d/h2"),
        {"/d/f": PAYLOAD, "/d/g": PAYLOAD},
        [{"/d/h": PAYLOAD, "/d/h2": None}, {"/d/h": PAYLOAD, "/d/h2": PAYLOAD}, {"/d/h": None, "/d/h2": PAYLOAD}],
    ),
    "rename, across directories": (
        "alpha",
        None,
        lambda system: system.host("alpha").fs().rename("/d/h", "/e/h3"),
        {"/d/f": PAYLOAD, "/d/g": PAYLOAD},
        [{"/d/h": PAYLOAD, "/e/h3": None}, {"/d/h": PAYLOAD, "/e/h3": PAYLOAD}, {"/d/h": None, "/e/h3": PAYLOAD}],
    ),
    # a policy tag is an update of the file, its contents untouched
    "setattr policy": (
        "alpha",
        None,
        tag_at_alpha("lww"),
        SETTLED,
        [{"/d/f": PAYLOAD}],
    ),
    # the close's bump alone: the session's writes landed before it, under
    # the record's updating mark, so recovery counts them if the bump did not
    "session close": (
        "alpha",
        a_session_written_at_alpha,
        lambda system: system.session.close(),
        {"/d/g": PAYLOAD, "/d/h": PAYLOAD},
        [{"/d/f": PAYLOAD[::-1]}],
    ),
    # the new record lands in a block the table did not have
    "create, adding a table block": (
        "alpha",
        filled_table(0),
        lambda system: system.host("alpha").fs().write_file("/d/new", PAYLOAD),
        SETTLED,
        [{"/d/new": None}, {"/d/new": b""}, {"/d/new": PAYLOAD}],
    ),
    # the record outgrows its run in a full block: a fresh run in another
    # block, then the old run cleared
    "setattr policy, outgrowing its run": (
        "alpha",
        filled_table(1),
        tag_at_alpha("x" * AUX_SLOT_SIZE),
        SETTLED,
        [{"/d/f": PAYLOAD}],
    ),
    # a resolver's merge of two partitioned appends, installed by alpha's
    # reconciliation with beta: an install of contents neither side wrote
    "resolver-merge install": (
        "alpha",
        conflicting_appends,
        alpha_reconciles_with_beta,
        SETTLED,
        [{"/d/notes.log": MERGED_LOG}],
    ),
    # the two steps of tombstone collection, each one rewrite of ``.fdir``:
    # the replica's own phase-2 mark, then the purge
    "tombstone GC, phase 1": (
        "alpha",
        acknowledged_everywhere,
        alpha_collects_d,
        {"/d/f": PAYLOAD, "/d/h": PAYLOAD},
        [{"/d/g": None}],
    ),
    "tombstone GC, purge": (
        "alpha",
        in_phase_two_everywhere,
        alpha_collects_d,
        {"/d/f": PAYLOAD, "/d/h": PAYLOAD},
        [{"/d/g": None}],
    ),
    # everything here was acknowledged at alpha before beta's pass began,
    # so there is one outcome: beta ends up holding all of it
    "grouped pass": (
        "beta",
        three_notes_for_beta,
        lambda system: system.host("beta").propagation_daemon.tick(),
        {"/d/h": PAYLOAD},
        [{"/d/made": PAYLOAD, "/d/f": PAYLOAD[::-1], "/d/g": None}],
    ),
    # a pulled version that takes the resized arm: new blocks, the inode
    # that commits them, then the old block freed
    "install that changes block count": (
        "beta",
        a_grown_version_for_beta,
        lambda system: system.host("beta").propagation_daemon.tick(),
        {"/d/g": PAYLOAD, "/d/h": PAYLOAD},
        [{"/d/f": THREE_BLOCKS}],
    ),
    # a pulled version of a file stored under two names: both share the
    # inode the install writes into, so they never split across versions
    "install into a hard-linked file": (
        "beta",
        a_linked_version_for_beta,
        lambda system: system.host("beta").propagation_daemon.tick(),
        {"/d/g": PAYLOAD, "/d/h": PAYLOAD},
        [{"/d/f": PAYLOAD[::-1], "/e/l": PAYLOAD[::-1]}],
    ),
    # the entry replay outside a propagation group: the new entry, the
    # tombstone (and the storage it frees) and the merged vector in one
    # flush; the files follow in the settling sweeps
    "directory reconcile": (
        "beta",
        three_updates_unheard_at_beta,
        beta_reconciles_d,
        {"/d/h": PAYLOAD},
        [{"/d/made": PAYLOAD, "/d/f": PAYLOAD[::-1], "/d/g": None}],
    ),
}

#: what UFS ``fsck`` may say after a crash inside one of these operations:
#: a leak, each an order the soft-update flush keeps — a block taken before
#: the inode naming it, or freed after the inode that stopped; an inode
#: written before the name that reaches it; a name removed before the link
#: count is.  Never a block in use but free in the bitmap.
UFS_FINDINGS = {
    "marked used in bitmap but unreferenced",
    "allocated but unreachable from root",
    "nlink differs from observed references",
}
#: crash points that leave a *published* record unreadable — none.  A
#: record of the attribute table is rewritten in its run (one block write)
#: or written to a fresh run before its old run is cleared, so it reads old
#: or new; ``.fdir`` keeps its block count (it is padded to whole blocks),
#: so it is overwritten in place; a ``.fdir`` that changes its block count
#: is committed by its inode write, the new blocks written before it and the
#: old ones freed after it.  (The cross-directory link and rename give the
#: empty target's ``.fdir`` its first block that way.)
TORN = {scenario: [] for scenario in SWEEP}


#: crash points each scenario visits before the run that completes: one per
#: device write of the operation (in brackets, the count when every UFS call
#: wrote through in call order, or for the two installs swept last, when a
#: pulled version went through a shadow file and a rename).
CRASH_POINTS = {
    "create": 11,  # (12)
    "mkdir": 8,  # (14)
    "link, across directories": 7,  # (8)
    "unlink": 8,  # (8)
    "rename, same directory": 6,  # (6)
    "rename, across directories": 13,  # (14)
    "setattr policy": 2,  # (2)
    "session close": 1,  # (1)
    "create, adding a table block": 13,  # (14)
    "setattr policy, outgrowing its run": 3,  # (3)
    "resolver-merge install": 6,  # (11)
    "tombstone GC, phase 1": 1,  # (1)
    "tombstone GC, purge": 1,  # (1)
    "grouped pass": 13,  # (24)
    "directory reconcile": 8,  # (8)
    "install that changes block count": 8,  # (10)
    "install into a hard-linked file": 4,  # (9)
}


def normalized(problem: str) -> str:
    """A UFS ``fsck`` finding without the inode and block it names."""
    return re.sub(r"(inode|block) \d+:? ", "", problem)


def torn_records(store: ReplicaStore) -> list[str]:
    """The published objects of one replica — every live entry's stored
    directory or file — whose record cannot be read."""
    torn = []
    for dir_fh in store.all_directory_handles():
        for entry in store.read_entries(dir_fh):
            stored = (
                store.has_directory(entry.fh)
                if entry.etype in (EntryType.DIRECTORY, EntryType.GRAFT_POINT)
                else entry.etype in (EntryType.FILE, EntryType.SYMLINK) and store.has_file(dir_fh, entry.fh)
            )
            if entry.live and stored:
                try:
                    store.read_record(entry.fh)
                except (FileNotFound, InvalidArgument):
                    torn.append(entry.name)
    return torn


def stored_files(store: ReplicaStore) -> dict:
    """Each file stored in the replica: its vector, merge-policy tag and
    contents, read from storage (a replica's own, not what a logical
    layer would select)."""
    held = {}
    for dir_fh in store.all_directory_handles():
        for entry in store.read_entries(dir_fh):
            if entry.live and entry.etype == EntryType.FILE and store.has_file(dir_fh, entry.fh):
                aux = store.read_record(entry.fh)
                held[entry.fh] = (aux.vv, aux.merge_policy, store.file_vnode(dir_fh, entry.fh).read_all())
    return held


def holds(fs, expected: dict) -> bool:
    """``expected`` maps a path to its contents, to :data:`DIR`, or to
    ``None`` for absent."""

    def found(path):
        if not fs.exists(path):
            return None
        return DIR if fs.stat(path).is_dir else fs.read_file(path)

    return all(found(path) == contents for path, contents in expected.items())


@pytest.mark.parametrize("scenario", SWEEP)
def test_crash_after_every_write_of_an_operation(scenario):
    host_name, prepare, operation, acknowledged, outcomes = SWEEP[scenario]
    torn = []
    for crash_point in itertools.count():
        system = settled_cluster()
        if prepare is not None:
            prepare(system)
        host = system.host(host_name)
        device = host.ufs.device
        device.plan_crash_after_writes(crash_point)
        try:
            operation(system)
        except (CrashInjected, IOError_):
            pass  # a crashed device fails every later write too: a close's bump
        completed = not device.failed
        if completed:
            device.clear_crash_plan()
        else:
            host.crash()
            device.recover()
            host.restart(system)
        (store,) = host.physical.stores.values()
        where = f"{scenario}, crash after write {crash_point}"

        if torn_records(store):
            torn.append(crash_point)
            continue
        ficus = ficus_fsck(store).problems
        ufs = {re.sub(r"nlink \d+, observed references \d+", "nlink differs from observed references", normalized(p)) for p in fsck(host.ufs).problems}
        assert ufs <= UFS_FINDINGS, where
        assert not ufs or 0 < crash_point and not completed, where
        # storage whose entry was never published is all ficus_fsck may find
        assert all("stray object" in problem for problem in ficus), (where, ficus)

        for _ in range(2):
            system.reconcile_everything()
        alpha, beta = (system.host(name) for name in ("alpha", "beta"))
        (a,), (b,) = alpha.physical.stores.values(), beta.physical.stores.values()
        divergence = diff_replicas(a, b)
        assert not (divergence.only_in_a or divergence.only_in_b or divergence.version_mismatches), where
        # what pruning needs: converged replicas answer a probe alike
        assert a.subtree_digest(a.root_handle()) == b.subtree_digest(b.root_handle()), where
        # converged replicas store the same tag and contents under each vector
        held_a, held_b = stored_files(a), stored_files(b)
        assert all(held_a[fh] == held_b[fh] for fh in held_a.keys() & held_b.keys()), where
        for replica in (alpha, beta):
            (replica_store,) = replica.physical.stores.values()
            assert all("stray object" in p for p in ficus_fsck(replica_store).problems), where
            assert holds(replica.fs(), acknowledged), where
        reached = [outcome for outcome in outcomes if holds(alpha.fs(), outcome)]
        assert len(reached) == 1 and holds(beta.fs(), reached[0]), where
        if completed:
            assert reached == outcomes[-1:], where
            break
    assert torn == TORN[scenario]
    assert crash_point == CRASH_POINTS[scenario]


def test_a_repeated_directory_reconcile_writes_nothing():
    system = settled_cluster()
    alpha, beta = system.host("alpha"), system.host("beta")
    fs = alpha.fs()
    fs.write_file("/d/new", PAYLOAD)
    fs.unlink("/d/g")
    (store,) = beta.physical.stores.values()
    (peer,) = (loc for loc in system.root_locations if loc.host == "alpha")
    dir_fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "d")
    remote_dir = beta.fabric.volume_root(peer.host, peer.volrep).lookup_fh(dir_fh)

    with DeviceWrites(beta) as first:
        assert reconcile_directory(beta.physical, store, dir_fh, remote_dir).changed
    with DeviceWrites(beta) as second:
        assert not reconcile_directory(beta.physical, store, dir_fh, remote_dir).changed
    # the merge, once: the entry file, the records' table block, then the free
    assert first.labels.count("data[fdir]") == first.labels.count("data[attr]") == 1
    assert second.labels == []
