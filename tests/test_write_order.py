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

from repro.errors import CrashInjected, InvalidArgument
from repro.inspect import diff_replicas
from repro.physical import EntryType, FicusPhysicalLayer
from repro.physical.check import ficus_fsck
from repro.physical.store import ReplicaStore, entries_fold, file_component
from repro.physical.wire import (
    AUX_SUFFIX,
    EMPTY_DIGEST,
    FAUX_NAME,
    FDIR_NAME,
    META_NAME,
    AuxAttributes,
    xor_fold,
)
from repro.recon import reconcile_directory
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
        inode[+contents] udir inode[udir]
        inode[+faux] udir
        bitmap data[+faux] inode[+faux]
        bitmap inode[fdir] bitmap data[fdir] inode[fdir]
        data[daux] inode[daux]
        bitmap data[+contents] inode[+contents]
        bitmap inode[+faux] bitmap data[+faux] inode[+faux]
        data[daux] inode[daux]
    """,
    "unlink": """
        bitmap inode[fdir] bitmap data[fdir] inode[fdir]
        data[daux] inode[daux]
        udir inode[udir] bitmap inode[-contents]
        udir bitmap inode[-faux]
    """,
    "rename, same directory": """
        bitmap inode[fdir] bitmap data[fdir] inode[fdir]
        data[daux] inode[daux]
        bitmap inode[fdir] bitmap data[fdir] inode[fdir]
        data[daux]
    """,
    "rename, across directories": """
        inode[contents] udir inode[udir]
        inode[faux] udir
        bitmap data[fdir] inode[fdir]
        bitmap inode[daux] bitmap data[daux] inode[daux]
        bitmap inode[fdir] bitmap data[fdir] inode[fdir]
        data[daux] inode[daux]
        udir inode[udir] inode[contents]
        udir inode[faux]
    """,
    "shadow commit": """
        inode[+contents] udir inode[udir]
        bitmap data[+contents] inode[+contents]
        udir
        bitmap inode[-contents]
        data[faux] inode[faux]
        data[daux] inode[daux]
    """,
    # three notes of one directory (a create, an overwrite, an unlink) in
    # one group: each file's own writes in turn, then the directory once
    "grouped pass": """
        inode[+contents] udir inode[udir]
        bitmap data[+contents] inode[+contents]
        udir
        bitmap inode[-contents]
        data[faux] inode[faux]
        inode[-contents] udir inode[udir]
        inode[+faux] udir
        bitmap data[+faux] inode[+faux]
        inode[+contents] udir
        bitmap data[+contents] inode[+contents]
        udir
        inode[-contents]
        bitmap inode[+faux] bitmap data[+faux] inode[+faux]
        bitmap inode[fdir] bitmap data[fdir] inode[fdir]
        bitmap inode[daux] bitmap data[daux] inode[daux]
        udir bitmap inode[-contents]
        udir bitmap inode[-faux]
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
    # three notes, one directory: its entry file and its aux record are
    # each written once, after every file's own writes and before the
    # storage the unlink orphaned is freed
    labels = recorded["grouped pass"].labels
    assert labels.count("data[fdir]") == labels.count("data[daux]") == 1
    assert labels.index("data[fdir]") < labels.index("data[daux]") < labels.index("inode[-faux]")
    assert max(i for i, label in enumerate(labels) if label.startswith("data[+")) < labels.index("data[fdir]")


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


def use_up_entry_ids_through(last):
    """Mint through ``last``, the end of a reserved range: ``.meta`` holds
    ``next_seq=last+1`` and the next mint must write a new mark first."""

    def prepare(store, fh):
        while store.new_entry_id().seq != last:
            pass

    return prepare


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
    # the replace is the mint that reserves the next ID_RANGE ids (65 -> 129);
    # the marks are fixed-width, so .meta has no resized arm left
    "meta, same length": (meta_vnode, use_up_entry_ids_through(64), mint_entry_id, IN_PLACE),
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
    # everything here was acknowledged at alpha before beta's pass began,
    # so there is one outcome: beta ends up holding all of it
    "grouped pass": (
        "beta",
        three_notes_for_beta,
        lambda system: system.host("beta").propagation_daemon.tick(),
        {"/d/h": PAYLOAD},
        [{"/d/made": PAYLOAD, "/d/f": PAYLOAD[::-1], "/d/g": None}],
    ),
}

#: what UFS ``fsck`` may say after a crash inside one of these operations:
#: the resized replace's two bitmap/inode disagreements, and the two
#: windows of UFS's own create/unlink/link (an inode written before the
#: name that reaches it, a name removed before the link count is)
UFS_FINDINGS = {
    "in use but free in bitmap",
    "marked used in bitmap but unreferenced",
    "allocated but unreachable from root",
    "nlink differs from observed references",
}
#: crash points that leave a *published* one-record file empty — the
#: interior of the resized replace ``R*`` of a live file's aux record (in
#: the create, its version vector gains its first entry) or a directory's
#: (in the rename and the link, the empty target gains both folds and a
#: vector).  An empty record does not decode: ``ficus_fsck`` reports it and
#: the replica cannot serve that directory until it is repaired.  Not new
#: and not the flush's: ROADMAP item 1's fixed slots retire ``R*``.  (The
#: grouped pass tears records too, at six points, and so does the mkdir at
#: two, but of storage nothing has published yet: recovery drops it, and
#: the next pass pulls the file again.)
TORN = {
    "create": [20, 21, 22],
    "mkdir": [],
    "link, across directories": [10, 11, 12],
    "unlink": [],
    "rename, same directory": [],
    "rename, across directories": [10, 11, 12],
    "grouped pass": [],
}


def normalized(problem: str) -> str:
    """A UFS ``fsck`` finding without the inode and block it names."""
    return re.sub(r"(inode|block) \d+:? ", "", problem)


def torn_records(store: ReplicaStore) -> list[str]:
    """The aux records of one replica, published or not, that do not decode."""
    torn = []
    for dir_fh in store.all_directory_handles():
        unix_dir = store.dir_unix_vnode(dir_fh)
        for name in (entry.name for entry in unix_dir.readdir()):
            if name == FAUX_NAME or name.endswith(AUX_SUFFIX):
                try:
                    AuxAttributes.from_bytes(unix_dir.lookup(name).read_all())
                except InvalidArgument:
                    torn.append(name)
    return torn


def stored_folds_are_recomputed(store: ReplicaStore) -> bool:
    for dir_fh in store.all_directory_handles():
        entries, aux = store.read_entries(dir_fh), store.read_dir_aux(dir_fh)
        files = ""
        for fh in {e.fh for e in entries if e.live and e.etype in (EntryType.FILE, EntryType.SYMLINK)}:
            if store.has_file(dir_fh, fh):
                files = xor_fold(files, file_component(fh, store.read_file_aux(dir_fh, fh).vv))
        if (aux.dig_entries or EMPTY_DIGEST) != (entries_fold(entries) or EMPTY_DIGEST):
            return False
        if (aux.dig_files or EMPTY_DIGEST) != (files or EMPTY_DIGEST):
            return False
    return True


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
        except CrashInjected:
            pass
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
        assert stored_folds_are_recomputed(store), where

        for _ in range(2):
            system.reconcile_everything()
        alpha, beta = (system.host(name) for name in ("alpha", "beta"))
        (a,), (b,) = alpha.physical.stores.values(), beta.physical.stores.values()
        divergence = diff_replicas(a, b)
        assert not (divergence.only_in_a or divergence.only_in_b or divergence.version_mismatches), where
        for replica in (alpha, beta):
            (replica_store,) = replica.physical.stores.values()
            assert all("stray object" in p for p in ficus_fsck(replica_store).problems), where
            assert stored_folds_are_recomputed(replica_store), where
            assert holds(replica.fs(), acknowledged), where
        reached = [outcome for outcome in outcomes if holds(alpha.fs(), outcome)]
        assert len(reached) == 1 and holds(beta.fs(), reached[0]), where
        if completed:
            assert reached == outcomes[-1:], where
            break
    assert torn == TORN[scenario]


def test_a_repeated_directory_reconcile_writes_nothing():
    system = settled_cluster()
    alpha, beta = system.host("alpha"), system.host("beta")
    fs = alpha.fs()
    fs.write_file("/d/new", PAYLOAD)
    fs.unlink("/d/g")
    (store,) = beta.physical.stores.values()
    (peer,) = (loc for loc in system.root_locations if loc.host == "alpha")
    dir_fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "d")
    remote_dir = beta.fabric.volume_root(peer.host, peer.volrep).lookup_dir(dir_fh)

    with DeviceWrites(beta) as first:
        assert reconcile_directory(beta.physical, store, dir_fh, remote_dir).changed
    with DeviceWrites(beta) as second:
        assert not reconcile_directory(beta.physical, store, dir_fh, remote_dir).changed
    # the merge, once: the entry file, the aux record, then the free
    assert first.labels.count("data[fdir]") == first.labels.count("data[daux]") == 1
    assert second.labels == []
