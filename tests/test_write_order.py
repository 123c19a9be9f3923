"""What one update writes, in order — ARCHITECTURE.md's table, enforced.

Three oracles, all reading ``BlockDevice.write_block`` directly:

* the device-write sequence of the six tabled operations on a quiet
  two-replica cluster, every write labelled from the superblock's ranges
  and the UFS tree, equal to the sequences ARCHITECTURE.md prints ("What
  one update writes, in order") — with no bitmap write where no block
  changes hands and no block written twice in a row with the same bytes;
* a crash after every device write of the store's record replace
  (``.meta``, a file's aux record, a directory's aux record), both arms:
  what the record reads after recovery and a remount is the table's
  "what a crash leaves" column;
* ``fs().write_file`` trims instead of truncating first, and the trim
  neither leaks blocks nor lets old bytes resurface.

One-block assumption: every record written here, and every record the
workloads write, fits one device block (a few hundred bytes against
4 KiB), so the in-place arm's single data write carries the whole record.
A record longer than a block would be spliced by a crash between its
block writes.
"""

import itertools
import re

import pytest

from repro.errors import CrashInjected
from repro.physical import EntryType, FicusPhysicalLayer
from repro.physical.store import ReplicaStore
from repro.physical.wire import AUX_SUFFIX, FAUX_NAME, FDIR_NAME, META_NAME
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
    directory (a shadow exists only inside an operation, so never here)."""
    if name.endswith(AUX_SUFFIX):
        return "faux"
    return {META_NAME: "meta", FDIR_NAME: "fdir", FAUX_NAME: "daux"}.get(name, "contents")


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
    (``contents``, ``faux``, ``daux``, ``fdir``, ``meta``), prefixed ``+``
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

#: The sequences ARCHITECTURE.md prints, one line per step of the
#: operation.  R(x), the store's record replace, appears as its in-place
#: arm ``data[x] inode[x]`` (``data[x]`` alone when the inode's bytes did
#: not change: same size, and the virtual clock had not moved since its
#: last write) or its resized arm ``bitmap inode[x] bitmap data[x]
#: inode[x]``.
TABLE = {
    "overwrite": """
        data[contents] inode[contents]
        data[faux] inode[faux]
        data[daux] inode[daux]
    """,
    "create": """
        data[meta] inode[meta]
        data[meta]
        inode[+contents] inode[+contents] udir inode[udir]
        inode[+faux] inode[+faux] udir
        bitmap data[+faux] inode[+faux]
        data[daux] inode[daux]
        bitmap inode[fdir] bitmap data[fdir] inode[fdir]
        data[daux]
        data[daux]
        bitmap data[+contents] inode[+contents]
        bitmap inode[+faux] bitmap data[+faux] inode[+faux]
        data[daux] inode[daux]
    """,
    "unlink": """
        bitmap inode[fdir] bitmap data[fdir] inode[fdir]
        data[daux] inode[daux]
        udir inode[udir] bitmap inode[-contents]
        udir bitmap inode[-faux]
        data[daux]
        data[daux]
    """,
    "rename, same directory": """
        data[meta] inode[meta]
        bitmap inode[fdir] bitmap data[fdir] inode[fdir]
        data[daux] inode[daux]
        data[daux]
        bitmap inode[fdir] bitmap data[fdir] inode[fdir]
        data[daux]
        data[daux]
    """,
    "rename, across directories": """
        data[meta] inode[meta]
        udir inode[udir] inode[contents]
        udir inode[faux]
        bitmap inode[daux] bitmap data[daux] inode[daux]
        bitmap data[fdir] inode[fdir]
        bitmap inode[daux] bitmap data[daux] inode[daux]
        bitmap inode[daux] bitmap data[daux] inode[daux]
        bitmap inode[fdir] bitmap data[fdir] inode[fdir]
        data[daux] inode[daux]
        udir inode[udir] inode[contents]
        udir inode[faux]
        data[daux]
        data[daux]
    """,
    "shadow commit": """
        inode[+contents] inode[+contents] udir inode[udir]
        bitmap data[+contents] inode[+contents]
        udir
        bitmap inode[-contents]
        data[faux] inode[faux]
        data[daux] inode[daux]
    """,
}


@pytest.fixture(scope="module")
def recorded() -> dict[str, DeviceWrites]:
    """The six operations, each on one host's device; the clock moves
    between operations (as it does between a user's) and not inside one."""
    system = FicusSystem(["alpha", "beta"], daemon_config=QUIET)
    alpha, beta = system.host("alpha"), system.host("beta")
    fs = alpha.fs()
    fs.mkdir("/d")
    fs.mkdir("/e")
    for name in "fgh":
        fs.write_file(f"/d/{name}", PAYLOAD)
    system.reconcile_everything()
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
    return out


@pytest.mark.parametrize("operation", TABLE)
def test_device_writes_are_the_table(recorded, operation):
    assert recorded[operation].labels == TABLE[operation].split()


@pytest.mark.parametrize("operation", TABLE)
def test_no_block_is_rewritten_with_the_bytes_it_holds(recorded, operation):
    assert recorded[operation].rewrites() == []


def test_no_bitmap_write_where_no_block_changes_hands(recorded):
    # a same-size overwrite — contents, then the session close's
    # version-vector bump in the file's and the directory's aux records
    assert "bitmap" not in recorded["overwrite"].labels


# -- (ii) a crash at every write of the record replace --------------------------------

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
    root.insert("f", EntryType.FILE, eid=store.new_entry_id(), fh=fh)
    root.lookup_fh(fh).write(0, b"x")
    if prepare is not None:
        prepare(store, fh)
    clock.advance(1.0)
    return device, store, fh


def meta_vnode(store, fh):
    return store._meta_vnode()


def file_aux_vnode(store, fh):
    return store.aux_vnode(store.root_handle(), fh)


def dir_aux_vnode(store, fh):
    return store._unix_child(store.root_handle(), FAUX_NAME)


def mint_entry_id(store, fh):
    store.new_entry_id()


def mint_entry_ids_up_to_nine(store, fh):
    while store.new_entry_id().seq != 8:  # leaves "next_seq=9" on disk
        pass


def set_merge_policy(tag):
    def replace(store, fh):
        aux = store.read_file_aux(store.root_handle(), fh)
        aux.merge_policy = tag
        store.write_file_aux(store.root_handle(), fh, aux)

    return replace


def merge_dir_vv(remote):
    def replace(store, fh):
        aux = store.read_dir_aux(store.root_handle())
        aux.vv = aux.vv.merge(VersionVector(remote))
        store.write_dir_aux(store.root_handle(), aux)

    return replace


#: (what the record's file holds, what UFS ``fsck`` says) after recovery
#: from a crash that let k device writes of the replace through — the
#: "what a crash leaves" column of ARCHITECTURE.md's two-arm table.  The
#: in-place arm is ``data`` ``inode``: no block changes hands, so the
#: tables cannot disagree, and the one data write is the commit point.
IN_PLACE = [("old", "clean"), ("new", "clean")]
#: The resized arm is ``bitmap`` (free) ``inode`` (size 0) ``bitmap``
#: (take) ``data`` ``inode`` (size): what ``truncate(0)`` + ``write`` has
#: always left, an empty record at three of its four interior points.
RESIZED = [
    ("old", "clean"),
    ("old", "in use but free in bitmap"),
    ("empty", "clean"),
    ("empty", "marked used in bitmap but unreferenced"),
    ("empty", "marked used in bitmap but unreferenced"),
]

CASES = {
    # record: (its vnode, set-up, the replace, outcome at each crash point)
    "meta, same length": (meta_vnode, None, mint_entry_id, IN_PLACE),
    "meta, 9 -> 10": (meta_vnode, mint_entry_ids_up_to_nine, mint_entry_id, RESIZED),
    "file aux, same length": (file_aux_vnode, set_merge_policy("lww"), set_merge_policy("log"), IN_PLACE),
    "file aux, longer": (file_aux_vnode, None, set_merge_policy("log"), RESIZED),
    "directory aux, same length": (dir_aux_vnode, None, merge_dir_vv({1: 5}), IN_PLACE),
    "directory aux, longer": (dir_aux_vnode, None, merge_dir_vv({2: 1}), RESIZED),
}


@pytest.mark.parametrize("case", CASES)
def test_record_replace_crashed_at_every_write(case):
    vnode_of, prepare, replace, expected = CASES[case]
    device, store, fh = make_store(prepare)
    old = vnode_of(store, fh).read_all()
    replace(store, fh)
    new = vnode_of(store, fh).read_all()
    assert (len(old) == len(new)) == (expected is IN_PLACE) and old != new
    assert max(len(old), len(new)) <= device.block_size  # the one-block assumption
    reads = {old: "old", new: "new", b"": "empty"}

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
        # byte-equal to a record that was written whole, so it decodes to it
        holds = reads[vnode_of(store, fh).read_all()]
        problems = [re.sub(r"(inode|block) \d+:? ", "", line) for line in fsck(ufs).problems]
        outcomes.append((holds, ", ".join(problems) or "clean"))
        if completed:
            break
    assert outcomes == expected + [("new", "clean")]


def test_both_arms_are_counted_and_shown():
    system = FicusSystem(["alpha"], daemon_config=QUIET, telemetry=Telemetry())
    fs = system.host("alpha").fs()
    fs.write_file("/f", PAYLOAD)
    counters = system.telemetry.metrics

    def counts():
        return [counters.get(f"store.records_{arm}").value for arm in ("in_place", "resized")]

    before = counts()
    fs.write_file("/f", PAYLOAD[::-1])  # R(faux), R(daux): both keep their length
    assert counts() == [before[0] + 2, before[1]]
    fs.set_merge_policy("/f", "append-log")  # the file's aux record grows
    assert counts()[1] == before[1] + 1
    in_place, resized = counts()
    assert f"record replaces: {in_place} in place, {resized} resized" in render_system(system)
    # and a system that records nothing says nothing
    assert "record replaces" not in render_system(FicusSystem(["alpha"], daemon_config=QUIET))


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
