"""Tests for the logical layer's advisory lock manager."""

import pytest

from repro.errors import PermissionDenied
from repro.logical import LockManager
from repro.util import FicusFileHandle, FileId, VolumeId

FH = FicusFileHandle(VolumeId(1, 1), FileId(1, 1))
FH2 = FicusFileHandle(VolumeId(1, 1), FileId(1, 2))


@pytest.fixture
def locks():
    return LockManager()


class TestSharedLocks:
    def test_multiple_readers(self, locks):
        locks.acquire_shared(FH, "r1")
        locks.acquire_shared(FH, "r2")
        assert locks.is_locked(FH)

    def test_release_all_unlocks(self, locks):
        locks.acquire_shared(FH, "r1")
        locks.release_shared(FH, "r1")
        assert not locks.is_locked(FH)

    def test_reader_blocks_writer(self, locks):
        locks.acquire_shared(FH, "r1")
        with pytest.raises(PermissionDenied):
            locks.acquire_exclusive(FH, "w1")

    def test_reentrant_shared(self, locks):
        locks.acquire_shared(FH, "r1")
        locks.acquire_shared(FH, "r1")
        locks.release_shared(FH, "r1")
        assert locks.is_locked(FH)
        locks.release_shared(FH, "r1")
        assert not locks.is_locked(FH)


class TestExclusiveLocks:
    def test_writer_blocks_writer(self, locks):
        locks.acquire_exclusive(FH, "w1")
        with pytest.raises(PermissionDenied):
            locks.acquire_exclusive(FH, "w2")

    def test_writer_blocks_reader(self, locks):
        locks.acquire_exclusive(FH, "w1")
        with pytest.raises(PermissionDenied):
            locks.acquire_shared(FH, "r1")

    def test_same_owner_upgrade_and_reentry(self, locks):
        locks.acquire_shared(FH, "o")
        locks.acquire_exclusive(FH, "o")  # upgrade allowed for sole owner
        locks.acquire_exclusive(FH, "o")  # re-entrant
        locks.release_exclusive(FH, "o")
        assert locks.is_locked(FH)
        locks.release_exclusive(FH, "o")
        locks.release_shared(FH, "o")
        assert not locks.is_locked(FH)

    def test_release_by_non_owner_ignored(self, locks):
        locks.acquire_exclusive(FH, "w1")
        locks.release_exclusive(FH, "w2")
        assert locks.is_locked(FH)

    def test_independent_files_independent_locks(self, locks):
        locks.acquire_exclusive(FH, "w1")
        locks.acquire_exclusive(FH2, "w2")  # no interference
