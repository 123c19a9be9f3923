"""Tests for the public FicusFileSystem facade."""

import pytest

from repro.errors import (
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
)
from repro.sim import DaemonConfig, FicusSystem

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


@pytest.fixture
def system():
    return FicusSystem(["alpha", "beta"], daemon_config=QUIET)


@pytest.fixture
def fs(system):
    return system.host("alpha").fs()


class TestFileIo:
    def test_write_and_read(self, fs):
        fs.write_file("/notes.txt", b"hello ficus")
        assert fs.read_file("/notes.txt") == b"hello ficus"

    def test_append(self, fs):
        fs.write_file("/log", b"one\n")
        fs.append_file("/log", b"two\n")
        assert fs.read_file("/log") == b"one\ntwo\n"

    def test_open_read_missing_raises(self, fs):
        with pytest.raises(FileNotFound):
            fs.open("/ghost", "r")

    def test_w_truncates(self, fs):
        fs.write_file("/f", b"a long first version")
        fs.write_file("/f", b"short")
        assert fs.read_file("/f") == b"short"

    def test_seek_tell_partial_reads(self, fs):
        fs.write_file("/f", b"0123456789")
        with fs.open("/f") as f:
            f.seek(4)
            assert f.read(3) == b"456"
            assert f.tell() == 7
            assert f.read() == b"789"

    def test_read_on_write_only_semantics(self, fs):
        with fs.open("/f", "w") as f:
            with pytest.raises(InvalidArgument):
                f.seek(-1)

    def test_write_on_read_handle_rejected(self, fs):
        fs.write_file("/f", b"x")
        with fs.open("/f", "r") as f:
            with pytest.raises(InvalidArgument):
                f.write(b"nope")

    def test_io_after_close_rejected(self, fs):
        fs.write_file("/f", b"x")
        f = fs.open("/f")
        f.close()
        with pytest.raises(InvalidArgument):
            f.read()

    def test_truncate_via_handle(self, fs):
        fs.write_file("/f", b"0123456789")
        with fs.open("/f", "r+") as f:
            f.truncate(4)
        assert fs.read_file("/f") == b"0123"

    def test_open_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            fs.open("/d", "r")

    def test_one_session_one_version_bump(self, fs, system):
        with fs.open("/f", "w") as f:
            for i in range(10):
                f.write(b"chunk")
        # ten writes, one update session: exactly one vv entry of count 1
        alpha = system.host("alpha")
        volrep = system.root_locations[0].volrep
        store = alpha.physical.store_for(volrep)
        entries = store.read_entries(store.root_handle())
        fh = next(e.fh for e in entries if e.name == "f")
        assert store.read_record(fh).vv.total_updates == 1


class TestNamespace:
    def test_mkdir_listdir(self, fs):
        fs.mkdir("/docs")
        fs.write_file("/docs/a", b"1")
        assert fs.listdir("/") == ["docs"]
        assert fs.listdir("/docs") == ["a"]

    def test_makedirs(self, fs):
        fs.makedirs("/a/b/c")
        fs.write_file("/a/b/c/leaf", b"x")
        assert fs.read_file("/a/b/c/leaf") == b"x"
        fs.makedirs("/a/b/c")  # idempotent

    def test_unlink_and_rmdir(self, fs):
        fs.mkdir("/d")
        fs.write_file("/d/f", b"x")
        fs.unlink("/d/f")
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_rename(self, fs):
        fs.write_file("/old", b"content")
        fs.rename("/old", "/new")
        assert fs.read_file("/new") == b"content"
        assert not fs.exists("/old")

    def test_a_directory_never_moves_into_its_own_subtree(self, system, fs):
        fs.mkdir("/p")
        fs.mkdir("/p/q")
        fs.write_file("/p/q/f", b"data")
        fs.symlink("/p/q", "/lnk")
        # the walk to the destination expands the symlink first
        for dst in ("/p/q/p", "/p/x", "/lnk/p"):
            with pytest.raises(InvalidArgument):
                fs.rename("/p", dst)
        assert fs.listdir("/") == ["lnk", "p"] and fs.read_file("/p/q/f") == b"data"
        fs.rename("/p/q/f", "/p/f")  # anything else still moves
        fs.rename("/p/q", "/q")
        system.reconcile_everything()
        other = system.host("beta").fs()
        assert other.listdir("/") == ["lnk", "p", "q"] and other.read_file("/p/f") == b"data"

    def test_link(self, fs):
        fs.write_file("/orig", b"shared")
        fs.link("/orig", "/alias")
        assert fs.read_file("/alias") == b"shared"

    def test_symlink_and_readlink(self, fs):
        fs.symlink("/target/path", "/lnk")
        assert fs.readlink("/lnk") == "/target/path"

    def test_stat(self, fs):
        fs.write_file("/f", b"12345")
        st = fs.stat("/f")
        assert st.is_file and st.size == 5
        fs.mkdir("/d")
        assert fs.stat("/d").is_dir

    def test_exists(self, fs):
        assert not fs.exists("/nope")
        fs.write_file("/yes", b"")
        assert fs.exists("/yes")

    def test_walk_tree(self, fs):
        fs.makedirs("/a/b")
        fs.write_file("/a/b/f", b"x")
        fs.write_file("/top", b"y")
        assert sorted(fs.walk_tree()) == ["/a", "/a/b", "/a/b/f", "/top"]

    def test_dot_paths_rejected(self, fs):
        with pytest.raises(InvalidArgument):
            fs.read_file("/a/../b")

    def test_listdir_of_file_rejected(self, fs):
        fs.write_file("/f", b"")
        with pytest.raises(NotADirectory):
            fs.listdir("/f")


class TestLocking:
    def test_concurrent_writers_on_one_host_blocked(self, fs):
        f1 = fs.open("/f", "w")
        with pytest.raises(PermissionDenied):
            fs.open("/f", "a")
        f1.close()
        fs.open("/f", "a").close()

    def test_readers_share(self, fs):
        fs.write_file("/f", b"x")
        r1 = fs.open("/f")
        r2 = fs.open("/f")
        r1.close()
        r2.close()

    def test_writer_blocked_by_reader(self, fs):
        fs.write_file("/f", b"x")
        reader = fs.open("/f")
        with pytest.raises(PermissionDenied):
            fs.open("/f", "w")
        reader.close()

    def test_locks_do_not_cross_hosts(self, system):
        """Concurrency control is local: one-copy availability forbids
        global mutual exclusion, so writers on different hosts are NOT
        serialized (conflicts are detected later instead)."""
        fs_a = system.host("alpha").fs()
        fs_b = system.host("beta").fs()
        fs_a.write_file("/f", b"base")
        system.reconcile_everything()
        wa = fs_a.open("/f", "a")
        wb = fs_b.open("/f", "a")  # allowed!
        wa.write(b"-alpha")
        wb.write(b"-beta")
        wa.close()
        wb.close()


class TestCrossHostVisibility:
    def test_write_on_alpha_read_on_beta(self, system):
        fs_a = system.host("alpha").fs()
        fs_b = system.host("beta").fs()
        fs_a.write_file("/shared.txt", b"cross-host")
        assert fs_b.read_file("/shared.txt") == b"cross-host"

    def test_namespace_converges_via_recon(self, system):
        fs_a = system.host("alpha").fs()
        fs_b = system.host("beta").fs()
        fs_a.makedirs("/proj/src")
        fs_a.write_file("/proj/src/main.py", b"print('hi')")
        system.reconcile_everything()
        system.partition([{"alpha"}, {"beta"}])
        assert fs_b.read_file("/proj/src/main.py") == b"print('hi')"
