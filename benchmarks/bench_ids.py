"""E12 (Sections 3.1, 4.2): uncoordinated identifier issuance.

"Each volume replica assigns file identifiers to new files independently.
To ensure that file-ids are uniquely issued, a file-id is prefixed with
the issuing volume replica's replica-id."  Plus the stated limits: 2^32
replicas of a file and 2^32 logical layers.

Shape tests: ids minted concurrently at partitioned replicas never
collide (zero messages exchanged); the bench measures the one file-id
mint, ``ReplicaStore.new_file_id``, whose mints inside a reserved range
are in memory and whose range reservations rewrite ``.meta``.
"""

import pytest

from repro.physical.store import ReplicaStore
from repro.sim import DaemonConfig, FicusSystem
from repro.storage import BlockDevice
from repro.ufs import Ufs
from repro.util import MAX_ID, FileId, IdAllocator, VolumeId, VolumeReplicaId
from repro.vnode import UfsLayer

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


class TestShape:
    def test_partitioned_replicas_mint_disjoint_file_ids(self):
        """Create files at every host of a fully fragmented system; after
        healing, every logical file id is distinct."""
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        system.partition([{"a"}, {"b"}, {"c"}])
        for name in ["a", "b", "c"]:
            fs = system.host(name).fs()
            for i in range(10):
                fs.write_file(f"/{name}{i}", b"x")
        system.heal()
        system.reconcile_everything()
        store = system.host("a").physical.store_for(system.root_locations[0].volrep)
        entries = [e for e in store.read_entries(store.root_handle()) if e.live]
        assert len(entries) == 30
        assert len({e.fh for e in entries}) == 30
        assert len({e.eid for e in entries}) == 30

    def test_ids_without_communication(self):
        """Minting happens with zero datagrams/RPCs between replicas: five
        replica stores of one volume, sharing nothing but a disk."""
        root = UfsLayer(Ufs.mkfs(BlockDevice(1024), num_inodes=64)).root()
        stores = [ReplicaStore.create(root, VolumeReplicaId(VolumeId(1, 1), r)) for r in range(1, 6)]
        ids = {store.new_file_id() for store in stores for _ in range(1000)}
        assert len(ids) == 5000

    def test_allocator_spaces_disjoint(self):
        allocs = [IdAllocator(allocator_id=a) for a in range(1, 11)]
        volumes = {a.new_volume_id() for a in allocs for _ in range(100)}
        assert len(volumes) == 1000

    def test_limits_are_two_to_the_thirty_two(self):
        assert MAX_ID == 2**32
        FileId(MAX_ID - 1, 1)  # the largest legal issuing replica
        VolumeReplicaId(VolumeId(1, 1), MAX_ID - 1)
        with pytest.raises(Exception):
            FileId(MAX_ID, 1)
        with pytest.raises(Exception):
            VolumeReplicaId(VolumeId(1, 1), MAX_ID)

    def test_persisted_mint_state_survives_restart(self):
        """A host restart must not re-issue ids (they are persisted in the
        volume replica's .meta file)."""
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        fs = host.fs()
        fs.write_file("/before", b"x")
        store = host.physical.store_for(system.root_locations[0].volrep)
        issued_before = {e.fh for e in store.read_entries(store.root_handle())}
        # simulate restart: re-attach to the same storage
        from repro.physical import FicusPhysicalLayer
        from repro.vnode import UfsLayer

        remounted = UfsLayer(host.ufs.remount())
        phys2 = FicusPhysicalLayer(remounted, "solo")
        store2 = phys2.attach_volume_replica(system.root_locations[0].volrep)
        fresh = store2.new_file_id()
        assert all(fresh != fh.file_id for fh in issued_before)


def test_bench_file_id_mint_persistent(benchmark):
    """Mints through the store: in memory inside a reserved range, a
    .meta read-modify-write at each range's end."""
    system = FicusSystem(["solo"], daemon_config=QUIET)
    store = system.host("solo").physical.store_for(system.root_locations[0].volrep)
    benchmark(store.new_file_id)


def test_bench_create_end_to_end(benchmark):
    """Full create: mint + entry insert + storage + notification path."""
    system = FicusSystem(["solo"], daemon_config=QUIET)
    root = system.host("solo").root()
    counter = iter(range(10**9))
    benchmark(lambda: root.create(f"f{next(counter)}"))
