"""Selective replication: volume replicas that decline some file contents."""

import pytest

from repro.errors import AllReplicasUnavailable
from repro.physical.policy import (
    CompositePolicy,
    GlobPolicy,
    SizeCapPolicy,
    StoragePolicy,
)
from repro.physical.wire import DirectoryEntry, EntryId, EntryType
from repro.sim import DaemonConfig, FicusSystem
from repro.util import FicusFileHandle, FileId, VolumeId

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


def entry(name: str) -> DirectoryEntry:
    return DirectoryEntry(
        eid=EntryId(1, 1),
        name=name,
        fh=FicusFileHandle(VolumeId(1, 1), FileId(1, 1)),
        etype=EntryType.FILE,
    )


class TestPolicies:
    def test_default_policy_stores_everything(self):
        assert StoragePolicy().wants(entry("anything.bin"))

    def test_glob_include_exclude(self):
        policy = GlobPolicy(include=("*.txt", "*.md"), exclude=("secret*",))
        assert policy.wants(entry("notes.txt"))
        assert policy.wants(entry("README.md"))
        assert not policy.wants(entry("image.png"))
        assert not policy.wants(entry("secret.txt"))

    def test_size_cap(self):
        policy = SizeCapPolicy(max_bytes=100)
        assert policy.wants(entry("f"), size_hint=50)
        assert not policy.wants(entry("f"), size_hint=200)
        assert policy.wants(entry("f"), size_hint=None)  # optimistic

    def test_composite_all_must_agree(self):
        policy = CompositePolicy(
            policies=(GlobPolicy(include=("*.txt",)), SizeCapPolicy(max_bytes=10))
        )
        assert policy.wants(entry("a.txt"), size_hint=5)
        assert not policy.wants(entry("a.txt"), size_hint=50)
        assert not policy.wants(entry("a.bin"), size_hint=5)


class TestSelectiveReplica:
    @pytest.fixture
    def system(self):
        system = FicusSystem(["full", "cache"], daemon_config=QUIET)
        cache_volrep = next(l.volrep for l in system.root_locations if l.host == "cache")
        system.host("cache").physical.set_storage_policy(
            cache_volrep, GlobPolicy(include=("*.txt",))
        )
        return system

    def test_declined_files_stay_entry_only(self, system):
        fs_full = system.host("full").fs()
        fs_full.write_file("/wanted.txt", b"text")
        fs_full.write_file("/unwanted.bin", b"binary blob")
        system.reconcile_everything()
        cache = system.host("cache")
        volrep = next(l.volrep for l in system.root_locations if l.host == "cache")
        store = cache.physical.store_for(volrep)
        entries = {e.name: e for e in store.read_entries(store.root_handle()) if e.live}
        assert set(entries) == {"wanted.txt", "unwanted.bin"}  # names replicate
        assert store.stored_file(store.root_handle(), entries["wanted.txt"].fh) is not None
        assert store.stored_file(store.root_handle(), entries["unwanted.bin"].fh) is None

    def test_declined_file_still_readable_through_full_replica(self, system):
        system.host("full").fs().write_file("/unwanted.bin", b"blob")
        system.reconcile_everything()
        # the cache host reads THROUGH the full replica transparently
        assert system.host("cache").fs().read_file("/unwanted.bin") == b"blob"

    def test_declined_file_unavailable_when_full_replica_cut_off(self, system):
        system.host("full").fs().write_file("/unwanted.bin", b"blob")
        system.host("full").fs().write_file("/wanted.txt", b"text")
        system.reconcile_everything()
        system.partition([{"cache"}, {"full"}])
        fs_cache = system.host("cache").fs()
        assert fs_cache.read_file("/wanted.txt") == b"text"  # stored locally
        with pytest.raises(AllReplicasUnavailable):
            fs_cache.read_file("/unwanted.bin")

    def test_propagation_daemon_honours_policy(self, system):
        fs_full = system.host("full").fs()
        fs_full.write_file("/a.txt", b"1")
        fs_full.write_file("/b.bin", b"2")
        cache = system.host("cache")
        cache.propagation_daemon.tick()
        volrep = next(l.volrep for l in system.root_locations if l.host == "cache")
        store = cache.physical.store_for(volrep)
        entries = {e.name: e for e in store.read_entries(store.root_handle()) if e.live}
        assert store.stored_file(store.root_handle(), entries["a.txt"].fh) is not None
        assert store.stored_file(store.root_handle(), entries["b.bin"].fh) is None

    def test_recon_reports_declined_counts(self, system):
        system.host("full").fs().write_file("/x.bin", b"z")
        cache = system.host("cache")
        results = cache.recon_daemon.tick()
        assert sum(r.files_declined_by_policy for r in results) == 1

    def test_updates_to_stored_files_keep_flowing(self, system):
        fs_full = system.host("full").fs()
        fs_full.write_file("/doc.txt", b"v1")
        system.reconcile_everything()
        fs_full.write_file("/doc.txt", b"v2 is longer")
        system.reconcile_everything()
        system.partition([{"cache"}, {"full"}])
        assert system.host("cache").fs().read_file("/doc.txt") == b"v2 is longer"
