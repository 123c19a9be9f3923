"""The replica store's recon bookkeeping never answers stale.

A store memoizes each directory's subtree digest and its stored-children
view (the one scan of its stored files, which its digest and its
attribute batch read) and drops both along the edges the views read
(``ReplicaStore._changed``); it memoizes each file's digest component at
the vector it was computed for; and it re-reads a file for its merge
ancestor only when the record's (vector, ancestor) pair moved
(``ReplicaStore.note_file_synced``).  All are caches of what the store
would compute from scratch, so the oracle is a fresh
``ReplicaStore.attach`` of the same storage: a seeded mix of namespace
and update operations runs through a three-host cluster, and after every
step and every reconciliation pass each stored directory of each live
store must digest the same through its memo as from nothing, and every
view and component it holds must be the fresh store's.  At every EQUAL
sync point the record's ancestor must be the one its contents give.
"""

import random

import pytest

from repro.errors import FicusError
from repro.physical import ReplicaStore
from repro.physical.store import _ancestor_of, file_component
from repro.sim import DaemonConfig, FicusSystem, HostConfig
from repro.sim.daemons import ReconciliationDaemon

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)
#: the A2 "no caches" ablation: the store's decoded map keeps nothing
UNCACHED = HostConfig(cache_blocks=0, name_cache_size=0)
HOSTS = ("a", "b", "c")
DIRS = ("/d0", "/d1", "/d1/deep")
NAMES = ("f0", "f1", "f2", "f3")


def outcome(digest, fh):
    try:
        return digest(fh)
    except FicusError as error:
        return type(error).__name__


def check_digests(system, where: str) -> None:
    """Every stored directory of every live store digests through its memo
    as it does from a fresh attach of the same storage, and every
    stored-children view and file component the store holds memoized is
    the one the fresh store computes."""
    for loc in system.root_locations:
        if not system.network.host_is_up(loc.host):
            continue
        store = system.host(loc.host).physical.store_for(loc.volrep)
        fresh = ReplicaStore.attach(store.lower_root, store.volrep)
        for fh in store.all_directory_handles():
            known = store._known.get(fh)
            view = known.children if known is not None else None
            if view is not None:
                assert view == outcome(fresh.stored_children, fh), (
                    f"{loc.host}: stale stored-children view of {fh} after {where}"
                )
                for child, aux in view.items():
                    memo = store._known.get(child)
                    if memo is not None and memo.component is not None and memo.component[0] == aux.vv:
                        assert memo.component[1] == file_component(child, aux.vv), (
                            f"{loc.host}: wrong digest component of {child} after {where}"
                        )
            assert outcome(store.subtree_digest, fh) == outcome(fresh.subtree_digest, fh), (
                f"{loc.host}: stale subtree digest of {fh} after {where}"
            )


class Oracle:
    """A cluster whose every recon pass and sync point is checked, and the
    counts that show each kind of event really happened."""

    def __init__(self, monkeypatch, seed: int, host_config: HostConfig | None = None):
        self.rng = random.Random(seed)
        self.system = FicusSystem(list(HOSTS), daemon_config=QUIET, host_config=host_config)
        self.system.enable_resolvers()
        self.sync_points = self.passes = self.purged = self.merged = self.sessions = 0
        reconcile_with = ReconciliationDaemon.reconcile_with
        note_file_synced = ReplicaStore.note_file_synced

        def checked_pass(daemon, volrep, peer):
            purged = daemon.tombstones_purged
            result = reconcile_with(daemon, volrep, peer)
            self.passes += 1
            self.purged += daemon.tombstones_purged - purged
            self.merged += result.conflicts_auto_resolved
            check_digests(self.system, f"{volrep} reconciling with {peer.host}")
            return result

        def checked_sync(store, parent, fh):
            note_file_synced(store, parent, fh)
            self.sync_points += 1
            contents = store.stored_file(parent, fh).read_all()
            assert store.read_record(fh).ancestor == _ancestor_of(contents), f"stale ancestor of {fh}"

        monkeypatch.setattr(ReconciliationDaemon, "reconcile_with", checked_pass)
        monkeypatch.setattr(ReplicaStore, "note_file_synced", checked_sync)

    def up(self) -> list[str]:
        return [name for name in HOSTS if self.system.network.host_is_up(name)]

    def fs(self, host: str | None = None):
        return self.system.host(host or self.rng.choice(self.up())).fs()

    def some_file(self, fs) -> str | None:
        files = [
            f"{d}/{name}"
            for d in DIRS
            if fs.exists(d)
            for name in fs.listdir(d)
            if name in NAMES or name.endswith(".log")
        ]
        return self.rng.choice(sorted(files)) if files else None

    def new_path(self) -> str:
        return f"{self.rng.choice(DIRS)}/{self.rng.choice(NAMES)}"

    # -- the steps -------------------------------------------------------------

    def create(self):
        self.fs().write_file(self.new_path(), b"new %d" % self.rng.randrange(1000))

    def overwrite(self):
        fs = self.fs()
        if path := self.some_file(fs):
            fs.write_file(path, bytes([self.rng.randrange(256)]) * self.rng.choice((10, 5000)))

    def session_across_a_pass(self):
        # a new file: the pass gives the peers its entry and defers its
        # contents, which the close's notification then has them pull
        fs = self.fs()
        self.sessions += 1
        with fs.open(f"{self.rng.choice(DIRS)}/s{self.sessions}.log", "w") as handle:
            handle.write(b"first half\n")
            self.system.reconcile_everything(rounds=1)
            handle.write(b"second half\n")
        check_digests(self.system, "the session's close")
        self.propagate()

    def propagate(self):
        for name in self.up():
            self.system.host(name).propagation_daemon.tick()

    def unlink(self):
        fs = self.fs()
        if path := self.some_file(fs):
            fs.unlink(path)

    def rename_across_directories(self):
        fs = self.fs()
        if path := self.some_file(fs):
            target = f"{self.rng.choice([d for d in DIRS if not path.startswith(d + '/')])}/f3"
            fs.rename(path, target)

    def hard_link(self):
        fs = self.fs()
        if path := self.some_file(fs):
            fs.link(path, f"{self.rng.choice(DIRS)}/f2")

    def mkdir_rmdir(self):
        fs = self.fs()
        fs.mkdir("/d0/tmp")
        self.system.reconcile_everything()
        check_digests(self.system, "mkdir")
        fs.rmdir("/d0/tmp")

    def tombstone_gc(self):
        fs = self.fs()
        fs.write_file("/d1/doomed", b"x")
        self.system.reconcile_everything()
        fs.unlink("/d1/doomed")
        self.system.reconcile_everything()
        self.system.reconcile_everything()

    def resolver_merge(self):
        first, second = self.rng.sample(HOSTS, 2)
        self.fs(first).write_file("/d0/m.log", b"base\n")
        self.system.reconcile_everything()
        self.system.partition([{first}, set(HOSTS) - {first}])
        try:
            self.fs(first).write_file("/d0/m.log", b"base\nfirst\n")
            self.fs(second).write_file("/d0/m.log", b"second\nbase\n")
            check_digests(self.system, "partitioned writes")
        finally:
            self.system.heal()
        self.system.reconcile_everything()

    def crash_and_restart(self):
        victim = self.rng.choice(HOSTS)
        host = self.system.host(victim)
        host.crash()
        try:
            check_digests(self.system, f"{victim} crashed")
            self.create()
        finally:
            host.restart(self.system)

    def reconcile(self):
        self.system.reconcile_everything(rounds=self.rng.choice((1, None)))

    EVERY = (
        create, overwrite, session_across_a_pass, unlink, rename_across_directories,
        hard_link, mkdir_rmdir, tombstone_gc, resolver_merge, crash_and_restart,
    )
    EXTRA = (create, overwrite, overwrite, unlink, rename_across_directories, propagate, reconcile)

    def run(self, extra: int) -> None:
        fs = self.fs("a")
        for d in DIRS:
            fs.mkdir(d)
        for i, name in enumerate(NAMES[:2]):
            fs.write_file(f"/d1/deep/{name}", bytes([i]) * 100)
        self.system.reconcile_everything()
        steps = list(self.EVERY) + [self.rng.choice(self.EXTRA) for _ in range(extra)]
        self.rng.shuffle(steps)
        for step in steps:
            try:
                step(self)
            except FicusError:
                pass  # a name another step took, or a file a step removed
            check_digests(self.system, step.__name__)
        self.system.reconcile_everything()
        check_digests(self.system, "the last reconciliation")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_memoized_bookkeeping_never_answers_stale(monkeypatch, seed):
    oracle = Oracle(monkeypatch, seed)
    oracle.run(extra=24)
    assert oracle.passes and oracle.sync_points
    assert oracle.purged, "no tombstone was collected"
    assert oracle.merged, "no resolver merge ran"


def test_the_uncached_store_memoizes_nothing_and_agrees(monkeypatch):
    """At capacity 0 the decoded map keeps nothing, so every view, digest
    and component is computed afresh through the same code — which must
    hold nothing back between calls."""
    oracle = Oracle(monkeypatch, seed=4, host_config=UNCACHED)
    oracle.run(extra=8)
    assert oracle.passes and oracle.sync_points
    for host in oracle.system.hosts.values():
        for store in host.physical.stores.values():
            assert not store._known


def test_an_entry_list_written_alone_drops_the_digests_above_it():
    # tombstone collection rewrites a list without staging the directory's
    # record: the write itself must drop the memo of the list's directory
    # and of every directory above it
    system = FicusSystem(["a"], daemon_config=QUIET)
    fs = system.host("a").fs()
    fs.makedirs("/d1/deep")
    fs.write_file("/d1/deep/f", b"x")
    store = system.host("a").physical.store_for(system.root_locations[0].volrep)
    fh = store.root_handle()
    for name in ("d1", "deep"):
        fh = next(entry.fh for entry in store.read_entries(fh) if entry.name == name)
    check_digests(system, "the set-up")
    store.write_entries(fh, [])
    check_digests(system, "a list written alone")
