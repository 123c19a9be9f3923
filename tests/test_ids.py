"""Unit tests for Ficus identifiers (paper Section 4.2)."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidArgument
from repro.physical.wire import EntryId
from repro.util import (
    MAX_ID,
    FicusFileHandle,
    FileId,
    FileIdAllocator,
    IdAllocator,
    VolumeId,
    VolumeReplicaId,
)

u32 = st.integers(min_value=0, max_value=MAX_ID - 1)


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
    def test_logical_strips_replica(self):
        fh = FicusFileHandle(VolumeId(1, 1), FileId(0, 5), replica_id=3)
        assert fh.logical.replica_id is None
        assert fh.logical.file_id == fh.file_id

    def test_at_replica_binds(self):
        fh = FicusFileHandle(VolumeId(1, 1), FileId(0, 5))
        assert fh.at_replica(9).replica_id == 9

    def test_hex_round_trip_with_and_without_replica(self):
        fh = FicusFileHandle(VolumeId(1, 2), FileId(3, 4), replica_id=5)
        assert FicusFileHandle.from_hex(fh.to_hex()) == fh
        logical = fh.logical
        assert FicusFileHandle.from_hex(logical.to_hex()) == logical

    def test_hex_is_valid_ufs_name(self):
        """The handle encoding is used as a UFS pathname component."""
        fh = FicusFileHandle(VolumeId(1, 2), FileId(3, 4), replica_id=5)
        text = fh.to_hex()
        assert "/" not in text and "\x00" not in text
        assert len(text) < 255

    def test_bad_handle_rejected(self):
        with pytest.raises(InvalidArgument):
            FicusFileHandle.from_hex("0.1.2")

    replica_ids = st.one_of(st.none(), st.integers(min_value=0, max_value=MAX_ID - 2))

    @given(u32, u32, u32, u32, replica_ids)
    def test_round_trip_property(self, a, v, i, u, r):
        fh = FicusFileHandle(VolumeId(a, v), FileId(i, u), replica_id=r)
        assert FicusFileHandle.from_hex(fh.to_hex()) == fh

    def test_sentinel_replica_id_rejected(self):
        with pytest.raises(InvalidArgument):
            FicusFileHandle(VolumeId(0, 0), FileId(0, 0), replica_id=MAX_ID - 1)


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
        mint = FileIdAllocator(replica_id=4)
        fid = mint.new_file_id()
        assert fid.issuing_replica == 4

    def test_two_replica_mints_never_collide(self):
        m1, m2 = FileIdAllocator(1), FileIdAllocator(2)
        ids = {m1.new_file_id() for _ in range(50)} | {m2.new_file_id() for _ in range(50)}
        assert len(ids) == 100

    def test_restore_skips_issued_ids(self):
        mint = FileIdAllocator(replica_id=1)
        first = [mint.new_file_id() for _ in range(5)]
        recovered = FileIdAllocator(replica_id=1)
        recovered.restore(highest_seen=5)
        fresh = recovered.new_file_id()
        assert fresh not in first
        assert fresh.unique == 6


class TestVolumeReplicaId:
    def test_round_trip(self):
        vr = VolumeReplicaId(VolumeId(8, 9), 2)
        assert VolumeReplicaId.from_hex(vr.to_hex()) == vr

    def test_str_contains_components(self):
        vr = VolumeReplicaId(VolumeId(8, 9), 2)
        assert "8" in str(vr) and "9" in str(vr) and "2" in str(vr)


class TestTupleForm:
    """Ids are named tuples; these are the properties the layers rely on."""

    @given(u32, u32, u32, u32, st.one_of(st.none(), st.integers(min_value=0, max_value=MAX_ID - 2)))
    def test_hash_is_the_plain_tuple_hash(self, a, b, c, d, r):
        # The value a frozen dataclass of the same fields generated, so dict
        # and set iteration orders do not depend on the representation.
        fh = FicusFileHandle(VolumeId(a, b), FileId(c, d), r)
        assert hash(fh) == hash(((a, b), (c, d), r))
        assert hash(VolumeId(a, b)) == hash((a, b))
        assert hash(VolumeReplicaId(VolumeId(a, b), c)) == hash(((a, b), c))

    def test_fields_cannot_be_assigned(self):
        fh = FicusFileHandle(VolumeId(1, 2), FileId(3, 4), 5)
        fields = [(fh, "replica_id"), (fh, "volume"), (VolumeId(1, 2), "volume_num")]
        fields += [(FileId(1, 2), "unique"), (EntryId(1, 2), "seq")]
        for obj, name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)

    def test_construction_still_validates(self):
        # Beside the range and sentinel checks of the classes above.
        with pytest.raises(InvalidArgument):
            VolumeReplicaId(VolumeId(1, 2), MAX_ID)
        with pytest.raises(InvalidArgument):
            FicusFileHandle(VolumeId(1, 2), FileId(3, 4), -1)
        with pytest.raises(InvalidArgument):
            FileId(-1, 0)

    @pytest.mark.parametrize("value", [
        VolumeId(1, 2),
        FileId(3, 4),
        VolumeReplicaId(VolumeId(1, 2), 5),
        FicusFileHandle(VolumeId(1, 2), FileId(3, 4), 5),
        FicusFileHandle(VolumeId(1, 2), FileId(3, 4)),
        EntryId(6, 7),
    ], ids=repr)
    def test_copy_and_pickle_keep_class_and_value(self, value):
        (value.encode if isinstance(value, EntryId) else value.to_hex)()  # fill the memo
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value)
            assert repr(clone) == repr(value)

    def test_logical_is_memoized(self):
        fh = FicusFileHandle(VolumeId(1, 2), FileId(3, 4), 5)
        assert fh.logical is fh.logical
        assert fh.logical.logical is fh.logical
        assert fh.logical.replica_id is None

    def test_repr_names_the_fields(self):
        fh = FicusFileHandle(VolumeId(1, 2), FileId(3, 4))
        assert repr(fh) == (
            "FicusFileHandle(volume=VolumeId(allocator_id=1, volume_num=2), "
            "file_id=FileId(issuing_replica=3, unique=4), replica_id=None)"
        )
        assert str(fh) == "fh<1:2:3:4:*>"

    def test_equality_ignores_the_id_kind(self):
        """A documented property, not a wish: no dict may mix id kinds."""
        assert VolumeId(1, 2) == FileId(1, 2) == EntryId(1, 2) == (1, 2)
        assert len({VolumeId(1, 2), FileId(1, 2)}) == 1

    def test_order_is_field_order(self):
        # The "lowest entry id keeps the name" rule sorts on this.
        assert sorted([EntryId(2, 0), EntryId(1, 9), EntryId(1, 3)]) == [(1, 3), (1, 9), (2, 0)]
        a = FicusFileHandle(VolumeId(1, 2), FileId(3, 4), 1)
        with pytest.raises(TypeError):
            a < a.logical
