"""Unit tests for Ficus identifiers (paper Section 4.2)."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidArgument
from repro.physical.store import ReplicaStore, handle_of
from repro.physical.wire import EntryId
from repro.storage import BlockDevice
from repro.ufs import Ufs
from repro.util import (
    MAX_ID,
    FicusFileHandle,
    FileId,
    IdAllocator,
    VolumeId,
    VolumeReplicaId,
)
from repro.vnode import UfsLayer

u32 = st.integers(min_value=0, max_value=MAX_ID - 1)


def replica_stores(count: int) -> list[ReplicaStore]:
    """``count`` replicas of one volume, replica-ids 1.., each minting in its
    own store; they share a disk and nothing else."""
    root = UfsLayer(Ufs.mkfs(BlockDevice(1024), num_inodes=64)).root()
    volume = VolumeId(1, 1)
    return [ReplicaStore.create(root, VolumeReplicaId(volume, r)) for r in range(1, count + 1)]


class TestVolumeId:
    def test_round_trip_hex(self):
        vid = VolumeId(7, 42)
        assert VolumeId.from_hex(vid.to_hex()) == vid

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgument):
            VolumeId(MAX_ID, 0)
        with pytest.raises(InvalidArgument):
            VolumeId(0, -1)

    def test_ordering_is_total(self):
        assert VolumeId(1, 2) < VolumeId(1, 3) < VolumeId(2, 0)

    def test_bad_hex_rejected(self):
        with pytest.raises(InvalidArgument):
            VolumeId.from_hex("zzz")

    @given(u32, u32)
    def test_hex_round_trip_property(self, alloc, vol):
        vid = VolumeId(alloc, vol)
        assert VolumeId.from_hex(vid.to_hex()) == vid


class TestFileId:
    def test_round_trip_hex(self):
        fid = FileId(3, 99)
        assert FileId.from_hex(fid.to_hex()) == fid

    def test_limits_enforced(self):
        with pytest.raises(InvalidArgument):
            FileId(0, MAX_ID)

    @given(u32, u32)
    def test_hex_round_trip_property(self, issuer, unique):
        fid = FileId(issuer, unique)
        assert FileId.from_hex(fid.to_hex()) == fid


class TestFileHandle:
    def test_hex_round_trip(self):
        fh = FicusFileHandle(VolumeId(1, 2), FileId(3, 4))
        # the stored name's five fields, the last the constant every name carries
        assert fh.to_hex() == "00000001.00000002.00000003.00000004.ffffffff"
        assert FicusFileHandle.from_hex(fh.to_hex()) == fh

    def test_hex_is_valid_ufs_name(self):
        """The handle encoding is used as a UFS pathname component."""
        fh = FicusFileHandle(VolumeId(1, 2), FileId(3, 4))
        text = fh.to_hex()
        assert "/" not in text and "\x00" not in text
        assert len(text) < 255

    def test_bad_handle_rejected(self):
        with pytest.raises(InvalidArgument):
            FicusFileHandle.from_hex("0.1.2")
        with pytest.raises(InvalidArgument):
            FicusFileHandle.from_hex("1.2.3.zz.ffffffff")

    def test_a_name_with_a_replica_id_is_not_a_handle(self):
        """No handle names a replica, so a stored name whose fifth field is
        anything but ``ffffffff`` is no file's name."""
        name = "00000001.00000002.00000003.00000004.00000005"
        with pytest.raises(InvalidArgument):
            FicusFileHandle.from_hex(name)
        assert handle_of(name) is None
        assert handle_of(name[:-8] + "ffffffff") == FicusFileHandle(VolumeId(1, 2), FileId(3, 4))

    @given(u32, u32, u32, u32)
    def test_round_trip_property(self, a, v, i, u):
        fh = FicusFileHandle(VolumeId(a, v), FileId(i, u))
        assert FicusFileHandle.from_hex(fh.to_hex()) == fh


class TestAllocators:
    def test_volume_ids_unique_per_allocator(self):
        alloc = IdAllocator(allocator_id=10)
        ids = {alloc.new_volume_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(v.allocator_id == 10 for v in ids)

    def test_two_allocators_never_collide(self):
        """Uncoordinated issuance: distinct allocator-ids guarantee global
        uniqueness with zero communication (paper Section 4.2)."""
        a, b = IdAllocator(1), IdAllocator(2)
        ids_a = {a.new_volume_id() for _ in range(50)}
        ids_b = {b.new_volume_id() for _ in range(50)}
        assert not ids_a & ids_b

    def test_file_ids_prefixed_by_replica(self):
        for store in replica_stores(5):
            assert store.new_file_id().issuing_replica == store.replica_id

    def test_two_replica_mints_never_collide(self):
        """Any two of five replica mints: no id is issued by both."""
        stores = replica_stores(5)
        ids = {store.new_file_id() for store in stores for _ in range(50)}
        assert len(ids) == 250

    def test_restore_skips_issued_ids(self):
        """A store attached again resumes past every id it issued."""
        store = replica_stores(5)[3]
        first = [store.new_file_id() for _ in range(5)]
        recovered = ReplicaStore.attach(store.lower_root, store.volrep)
        fresh = recovered.new_file_id()
        assert fresh.issuing_replica == 4
        assert fresh.unique > max(fid.unique for fid in first)


class TestVolumeReplicaId:
    def test_round_trip(self):
        vr = VolumeReplicaId(VolumeId(8, 9), 2)
        assert VolumeReplicaId.from_hex(vr.to_hex()) == vr

    def test_str_contains_components(self):
        vr = VolumeReplicaId(VolumeId(8, 9), 2)
        assert "8" in str(vr) and "9" in str(vr) and "2" in str(vr)


class TestTupleForm:
    """Ids are named tuples; these are the properties the layers rely on."""

    @given(u32, u32, u32, u32)
    def test_hash_is_the_plain_tuple_hash(self, a, b, c, d):
        # The value a frozen dataclass of the same fields generated, so dict
        # and set iteration orders do not depend on the representation.
        fh = FicusFileHandle(VolumeId(a, b), FileId(c, d))
        assert hash(fh) == hash(((a, b), (c, d)))
        assert hash(VolumeId(a, b)) == hash((a, b))
        assert hash(VolumeReplicaId(VolumeId(a, b), c)) == hash(((a, b), c))

    def test_fields_cannot_be_assigned(self):
        fh = FicusFileHandle(VolumeId(1, 2), FileId(3, 4))
        fields = [(fh, "file_id"), (fh, "volume"), (VolumeId(1, 2), "volume_num")]
        fields += [(FileId(1, 2), "unique"), (EntryId(1, 2), "seq")]
        for obj, name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)

    def test_construction_still_validates(self):
        # Beside the range checks of the classes above.
        with pytest.raises(InvalidArgument):
            VolumeReplicaId(VolumeId(1, 2), MAX_ID)
        with pytest.raises(InvalidArgument):
            FileId(-1, 0)

    @pytest.mark.parametrize("value", [
        VolumeId(1, 2),
        FileId(3, 4),
        VolumeReplicaId(VolumeId(1, 2), 5),
        FicusFileHandle(VolumeId(1, 2), FileId(3, 4)),
        EntryId(6, 7),
    ], ids=repr)
    def test_copy_and_pickle_keep_class_and_value(self, value):
        (value.encode if isinstance(value, EntryId) else value.to_hex)()  # fill the memo
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value)
            assert repr(clone) == repr(value)

    def test_repr_names_the_fields(self):
        fh = FicusFileHandle(VolumeId(1, 2), FileId(3, 4))
        assert repr(fh) == (
            "FicusFileHandle(volume=VolumeId(allocator_id=1, volume_num=2), "
            "file_id=FileId(issuing_replica=3, unique=4))"
        )
        assert str(fh) == "fh<1:2:3:4>"

    def test_equality_ignores_the_id_kind(self):
        """A documented property, not a wish: no dict may mix id kinds."""
        assert VolumeId(1, 2) == FileId(1, 2) == EntryId(1, 2) == (1, 2)
        assert len({VolumeId(1, 2), FileId(1, 2)}) == 1

    def test_order_is_field_order(self):
        # The "lowest entry id keeps the name" rule sorts on this.
        assert sorted([EntryId(2, 0), EntryId(1, 9), EntryId(1, 3)]) == [(1, 3), (1, 9), (2, 0)]
        handles = [FicusFileHandle(VolumeId(1, v), FileId(3, u)) for v, u in ((3, 0), (2, 5), (2, 4))]
        assert sorted(handles) == handles[::-1]
