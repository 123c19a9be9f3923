"""E10 (Section 2.3): Ficus operations across an unmodified NFS hop.

The paper smuggled open/close through the lookup service as encoded name
strings because NFS would pass a name "without interpretation or
interference", and paid for it in name length (footnote 2).  This repo's
NFS is its own: every Ficus operation is a vnode operation the RPC
protocol carries, and no request rides a name.

Shape tests: session boundaries traverse a real NFS hop and have their
effect at the far physical layer; plain vnode open/close does NOT; names
that would have collided with the encoding are ordinary names; the paper's
encoding, rendered here and used by nothing, costs "255 to about 200"
while the system's own limit is the UFS's ``MAX_NAME_LEN``.
"""

import pytest

from repro.errors import NameTooLong
from repro.sim import DaemonConfig, FicusSystem
from repro.ufs import MAX_NAME_LEN
from repro.util import FicusFileHandle

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


def paper_encoded_name(request: str, fh: FicusFileHandle, name: str) -> str:
    """Section 2.3's trick: an open/close request as one ASCII name
    component, which NFS hands to the far lookup uninterpreted."""
    return f"@@{request}|{fh.to_hex()}|{name}"


def paper_name_budget() -> int:
    """Footnote 2: what that encoding leaves of a name component."""
    widest = FicusFileHandle.from_hex("ffffffff.ffffffff.ffffffff.ffffffff.ffffffff")
    return MAX_NAME_LEN - len(paper_encoded_name("close", widest, ""))


def remote_world():
    """Logical layer on 'client', the only replica on 'server'."""
    system = FicusSystem(["server", "client"], root_volume_hosts=["server"], daemon_config=QUIET)
    return system, system.host("server"), system.host("client")


class TestShape:
    def test_open_close_effective_across_nfs(self):
        """Through the session ops, a 3-write session on a REMOTE replica
        still counts as one update."""
        system, server, client = remote_world()
        fs = client.fs()
        with fs.open("/f", "w") as f:
            f.write(b"one")
            f.write(b"two")
            f.write(b"three")
        volrep = system.root_locations[0].volrep
        store = server.physical.store_for(volrep)
        fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "f")
        assert store.read_record(fh).vv.total_updates == 1

    def test_plain_vnode_open_is_dropped_by_nfs(self):
        """The problem session ops solve: a plain open on an NFS client
        vnode never reaches the server's physical layer."""
        system, server, client = remote_world()
        remote_root = client.fabric.nfs_mount("server").root()
        rpcs = system.network.stats.rpcs_sent
        remote_root.open()
        remote_root.close()
        assert system.network.stats.rpcs_sent == rpcs

    def test_name_budget_about_200(self, capsys):
        """The paper's encoding costs "255 to about 200"; ours costs nothing."""
        budget = paper_name_budget()
        with capsys.disabled():
            print(
                f"\n[E10] name component: the paper's open/close encoding leaves {budget} "
                f"of {MAX_NAME_LEN} (paper: 255 -> about 200); this system's limit is {MAX_NAME_LEN}"
            )
        assert 190 <= budget <= 210
        system, server, client = remote_world()
        fs = client.fs()
        fs.write_file("/" + "n" * MAX_NAME_LEN, b"fits")
        assert fs.read_file("/" + "n" * MAX_NAME_LEN) == b"fits"
        with pytest.raises(NameTooLong):
            fs.write_file("/" + "n" * (MAX_NAME_LEN + 1), b"too long")

    def test_hostile_names_round_trip(self):
        system, server, client = remote_world()
        fs = client.fs()
        for name in ["with space", "eq=uals", "pi|pe", "back\\slash", "mixed =|\\ all", "@@dir|deadbeef"]:
            fs.write_file("/" + name, name.encode())
            assert fs.read_file("/" + name) == name.encode()


def test_bench_session_close_roundtrip(benchmark):
    """The one session operation: a session opens with its first write,
    which carries it, so only the close is an RPC of its own."""
    system, server, client = remote_world()
    fs = client.fs()
    fs.write_file("/f", b"x")
    volrep = system.root_locations[0].volrep
    remote_root = client.fabric.volume_root("server", volrep)
    store = server.physical.store_for(volrep)
    fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "f")

    benchmark(lambda: remote_root.session_close(fh))


def test_bench_session_write_vs_bare_writes(benchmark):
    """Cost of a 5-write session (incl. the one session RPC, its close)."""
    system, server, client = remote_world()
    fs = client.fs()
    fs.write_file("/f", b"x")

    def run():
        with fs.open("/f", "a") as f:
            for _ in range(5):
                f.write(b"y")

    benchmark(run)
