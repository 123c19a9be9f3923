"""Differential test: the decoded-object caches never change an answer.

The replica store's decoded map (records, entry lists and vnodes, by
logical handle) and the UFS decoded-inode and decoded-directory caches are
maps the buffer cache hands out: it empties them when it goes cold, and at
capacity 0 they keep nothing.  That uncached configuration decodes from
disk blocks on every operation, so it is the reference implementation: one
scripted history must produce the same per-op results and the same
replicated state on a default cluster and on an uncached one.

The logical layer's cached name views and held handles get the same
treatment: ``ctx.no_cache`` re-resolves, re-fetches and re-reads on every
operation, so the same history run under it is their reference.
"""

from dataclasses import replace

from repro.core import FicusFileSystem
from repro.core.filesystem import StatResult
from repro.errors import FicusError
from repro.physical.store import ReplicaStore
from repro.sim import DaemonConfig, FicusSystem, HostConfig
from repro.storage import BlockDevice
from repro.ufs import ROOT_INO, Ufs
from repro.vnode import UfsLayer
from repro.vnode.interface import ROOT_CTX, OpContext
from repro.vv import VersionVector
from repro.workload.verify import state_fingerprint

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)
UNCACHED = HostConfig(cache_blocks=0, name_cache_size=0)
BIG = bytes(range(256)) * 40  # several blocks, so pulls have something to diff


def run_history(host_config: HostConfig | None, ctx: OpContext = ROOT_CTX):
    """Drive the scripted history; returns (system, per-op results)."""
    system = FicusSystem(["alpha", "beta"], daemon_config=QUIET, host_config=host_config)
    alpha, beta = system.host("alpha"), system.host("beta")
    results = []

    def op(host, method, *args):
        try:
            out = getattr(FicusFileSystem(host.logical, ctx), method)(*args)
        except FicusError as exc:
            out = type(exc).__name__
        results.append((host.name, method, args, out))

    def observe(*paths):
        for host in (alpha, beta):
            op(host, "walk_tree")
            for path in paths:
                op(host, "stat", path)
                op(host, "read_file", path)

    # create / overwrite / append / rename / unlink / mkdir on one side
    op(alpha, "mkdir", "/d")
    op(alpha, "write_file", "/d/a", b"first")
    op(alpha, "write_file", "/d/a", BIG)
    op(alpha, "append_file", "/d/a", b"tail")
    op(alpha, "write_file", "/d/b", b"to be renamed")
    op(alpha, "rename", "/d/b", "/d/c")
    op(alpha, "write_file", "/d/gone", b"x")
    op(alpha, "unlink", "/d/gone")
    op(alpha, "mkdir", "/d/sub")
    op(alpha, "write_file", "/d/both", b"common ancestor")
    op(alpha, "read_file", "/d/gone")  # FileNotFound, both ways
    op(alpha, "mkdir", "/d")  # FileExists, both ways
    system.reconcile_everything()
    observe("/d/a", "/d/c")

    # both sides update across a partition, then heal
    system.partition([{"alpha"}, {"beta"}])
    op(alpha, "write_file", "/d/a", BIG[::-1])
    op(alpha, "rename", "/d/c", "/d/sub/c")
    op(beta, "write_file", "/d/sub/x", b"beta side")
    op(beta, "mkdir", "/e")
    op(beta, "append_file", "/d/c", b" + beta")  # concurrent with the rename
    op(alpha, "write_file", "/d/both", b"alpha's version")
    op(beta, "write_file", "/d/both", b"beta's version")  # a file conflict
    op(beta, "unlink", "/d/nope")
    system.heal()
    system.reconcile_everything()
    results.append(("conflicts", system.total_conflicts()))
    observe("/d/a", "/d/both", "/d/sub/c", "/d/sub/x")

    # a cold buffer cache mid-run must take the decoded caches with it
    for host in (alpha, beta):
        host.ufs.cache.invalidate_all()
    observe("/d/a", "/d/sub/x")
    op(beta, "write_file", "/d/sub/x", b"after invalidate")

    # a notified pull installs the new version into the file's own inode
    op(alpha, "write_file", "/d/a", BIG + b"v4")
    results.append(("pulled", beta.propagation_daemon.tick()))
    op(beta, "read_file", "/d/a")

    # a crashed host misses an update, reboots cold and catches up
    beta.crash()
    op(alpha, "write_file", "/d/sub/late", b"while beta was down")
    op(alpha, "unlink", "/d/sub/x")
    beta.restart(system)
    system.reconcile_everything()
    observe("/d/a", "/d/sub/late", "/d/sub/x")

    # the rebooted host's store resolves each file's name through the DNLC,
    # which keeps hits and misses alike; a cold buffer cache takes the
    # store's map and the decoded directories, and the DNLC answers again
    beta.ufs.cache.invalidate_all()
    system.reconcile_everything()
    observe("/d/a", "/d/sub/late")
    return system, results


def test_uncached_reference_and_cached_cluster_agree():
    cached, cached_results = run_history(None)
    reference, reference_results = run_history(UNCACHED)

    # the comparison is only worth something if each side is what it claims
    for host in reference.hosts.values():
        assert host.ufs.cache.stats.hits == 0 and host.ufs.namecache.stats.hits == 0
        assert not host.ufs._icache and not host.ufs._dcache
    for host in cached.hosts.values():
        assert host.ufs.cache.stats.hits > 0 and host.ufs.namecache.stats.hits > 0
        assert host.ufs._icache and host.ufs._dcache

    assert cached_results == reference_results
    assert state_fingerprint(cached) == state_fingerprint(reference)
    # and the same device writes: what an operation stages and when it is
    # flushed — or skipped as byte-identical — does not lean on a cache
    writes = {name: host.ufs.device.counters.writes for name, host in cached.hosts.items()}
    assert writes == {name: host.ufs.device.counters.writes for name, host in reference.hosts.items()}

    # every decoded directory a host still holds is what a cold mount of
    # the same device parses, block by block, entry order included
    for host in cached.hosts.values():
        cold = Ufs.mount(host.ufs.device)
        for ino, blocks in host.ufs._dcache.items():
            cold.readdir(ino)
            assert [list(block.items()) for block in blocks] == [list(block.items()) for block in cold._dcache[ino]]


def test_logical_name_views_and_held_handles_never_change_an_answer():
    cached, cached_results = run_history(None)
    reference, reference_results = run_history(None, ROOT_CTX.with_no_cache())

    # each side is what it claims: the reference never served a batch (and
    # so never a view) from the cache, the default side mostly did
    for host in reference.hosts.values():
        assert host.logical.attr_cache.stats.hits == 0
    for host in cached.hosts.values():
        stats = host.logical.attr_cache.stats
        assert stats.hits > stats.misses

    # every RPC takes virtual time and the reference issues more of them,
    # so the two runs stamp different mtimes and ledger times
    def timeless(results):
        return [
            (*row[:-1], replace(row[-1], mtime=0.0)) if isinstance(row[-1], StatResult) else row
            for row in results
        ]

    def timeless_state(system):
        state = state_fingerprint(system)
        for host in state.values():
            for event in host["prov"]:
                del event["at"]
        return state

    assert timeless(cached_results) == timeless(reference_results)
    assert timeless_state(cached) == timeless_state(reference)


def test_decoded_directory_follows_every_rewrite():
    """One scripted namespace history on a cached ``Ufs`` and on the
    capacity-0 reference: equal listings after every step, the cached side
    answering from the blocks its edits kept decoded (no buffer
    cache lookup at all), the reference never holding one."""
    cached = Ufs.mkfs(BlockDevice(256), num_inodes=64)
    reference = Ufs.mkfs(BlockDevice(256), num_inodes=64, cache_blocks=0, name_cache_size=0)
    script = [
        ("mkdir", ROOT_INO, "d"),
        ("create", 3, "b"),
        ("create", 3, "a"),  # sorts before "b" on disk: order is the disk's
        ("create", 3, "name with spaces"),
        ("rename", 3, "b", 3, "c"),
        ("link", 4, ROOT_INO, "hard"),
        ("rename", 3, "a", ROOT_INO, "moved"),
        ("unlink", 3, "c"),
        ("mkdir", 3, "sub"),
        ("rmdir", 3, "sub"),
    ]
    for method, *args in script:
        for fs in (cached, reference):
            getattr(fs, method)(*args)
        for directory in (ROOT_INO, 3):
            before = cached.cache.stats.lookups
            listing = cached.readdir(directory)
            assert cached.cache.stats.lookups == before, f"{method}{args}: re-read from blocks"
            assert list(listing.items()) == list(reference.readdir(directory).items())
            listing["scribble"] = 0  # callers own what they are handed
            assert "scribble" not in cached.readdir(directory)
    assert not reference._dcache and not reference._icache

    # a cold buffer cache takes the decoded copy with it
    cached.cache.invalidate_all()
    before = cached.cache.stats.misses
    cached.readdir(3)
    assert cached.cache.stats.misses > before


def test_skipped_inode_write_still_refreshes_the_decoded_inode():
    """``_put_inode`` writes nothing when the slot already holds the packed
    bytes, but the decoded copy it keeps must still become current: here
    the one held went stale with the buffer cache between get and put."""
    fs = Ufs.mkfs(BlockDevice(256), num_inodes=64)
    ino = fs.create(ROOT_INO, "f")
    inode = fs.get_inode(ino)
    fs.cache.invalidate_all()
    writes = fs.device.counters.writes
    fs._put_inode(inode)
    assert fs.device.counters.writes == writes  # byte-identical: skipped
    assert fs._icache[ino] == inode
    lookups = fs.cache.stats.lookups
    assert fs.get_inode(ino) == inode
    assert fs.cache.stats.lookups == lookups, "re-read from the table block"

    reference = Ufs.mkfs(BlockDevice(256), num_inodes=64, cache_blocks=0, name_cache_size=0)
    reference._put_inode(reference.get_inode(reference.create(ROOT_INO, "f")))
    assert not reference._icache


def one_file_replica():
    """A one-host system holding ``/f``: (host, its store, root, f's handle)."""
    system = FicusSystem(["alpha"], daemon_config=QUIET)
    host = system.host("alpha")
    host.fs().write_file("/f", b"x")
    store = host.physical.store_for(system.root_locations[0].volrep)
    root = store.root_handle()
    (fh,) = [entry.fh for entry in store.read_entries(root) if entry.name == "f"]
    return host, store, root, fh


def test_a_cold_buffer_cache_empties_the_store_map():
    """Cold as E3/E4 make it — the buffer cache and the name cache emptied
    — means every entry list and record the store decoded, and every file
    name it resolved through the name cache, is read from the device
    again, once."""
    host, store, root, fh = one_file_replica()
    device = host.ufs.device
    probes = {
        "read_entries": lambda: store.read_entries(root),
        "read_record": lambda: store.read_record(fh),
        "stored_file": lambda: store.stored_file(root, fh),
    }
    for name, probe in probes.items():
        probe()
        host.ufs.cache.invalidate_all()
        host.ufs.namecache.invalidate_all()
        reads = device.counters.reads
        probe()
        assert device.counters.reads > reads, f"{name} answered from a decoded copy"
        reads = device.counters.reads
        probe()
        assert device.counters.reads == reads, f"{name} read the device again"


def test_a_cold_buffer_cache_inside_an_operation_keeps_what_is_staged():
    """The buffer cache may go cold while a store operation is open: what
    the operation staged is not a decoded copy, so it is still what reads
    answer, and the flush lands it."""
    host, store, root, fh = one_file_replica()
    entries = [entry.killed() if entry.fh == fh else entry for entry in store.read_entries(root)]
    record = store.read_record(fh)
    record = record._replace(vv=record.vv.merge(VersionVector({7: 1})))
    with store.operation():
        store.write_entries(root, entries)
        store.write_record(fh, record)
        host.ufs.cache.invalidate_all()
        assert store.read_entries(root) == entries
        assert store.read_record(fh) == record
    assert store.flushed()
    fresh = ReplicaStore.attach(UfsLayer(Ufs.mount(host.ufs.device)).root(), store.volrep)
    assert fresh.read_entries(root) == entries
    assert fresh.read_record(fh) == record
