"""E13 (Section 1's scale argument): cost as the system grows.

The paper's design decisions are all justified by scale: no global state,
no quorums, per-replica independence.  These benchmarks check that the
implementation actually has the scaling shape those decisions buy:

* a local update's cost does not grow with the number of HOSTS in the
  system (only notification fan-out grows, and those are fire-and-forget
  datagrams);
* pathname translation cost is independent of cluster size;
* one reconciliation pass is pairwise — its cost tracks divergence, not
  cluster size;
* autograft lookup cost is independent of how many volumes exist;
* under all of it, a UFS create + write does not grow with the number of
  files the disk already holds (allocation searches from a bound, not
  from the first slot).
"""

import pytest

from repro.sim import DaemonConfig, FicusSystem
from repro.storage import BlockDevice
from repro.ufs import ROOT_INO, Ufs

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)

CLUSTER_SIZES = [2, 4, 8, 16]


def build(n_hosts: int, replicas: int = 2) -> FicusSystem:
    hosts = [f"h{i}" for i in range(n_hosts)]
    return FicusSystem(hosts, root_volume_hosts=hosts[:replicas], daemon_config=QUIET)


class TestShape:
    def test_update_rpc_cost_independent_of_cluster_size(self, capsys):
        """Writes touch one replica + datagrams; RPCs must not scale with
        the host count."""
        rows = {}
        for n in CLUSTER_SIZES:
            system = build(n)
            fs = system.host("h0").fs()
            fs.write_file("/warm", b"x")
            before = system.network.stats.rpcs_sent
            fs.write_file("/f", b"payload")
            rows[n] = system.network.stats.rpcs_sent - before
        with capsys.disabled():
            print("\n[E13] RPCs for one create+write vs cluster size:", rows)
        assert max(rows.values()) <= min(rows.values()) + 2

    def test_datagram_fanout_tracks_replicas_not_hosts(self):
        """Notification goes to hosts holding OTHER replicas — adding
        non-replica hosts must not add datagrams."""
        fanouts = {}
        for n in [4, 16]:
            system = build(n, replicas=3)
            fs = system.host("h0").fs()
            before = system.network.stats.datagrams_sent
            fs.write_file("/f", b"x")
            fanouts[n] = system.network.stats.datagrams_sent - before
        assert fanouts[4] == fanouts[16]

    def test_lookup_cost_independent_of_cluster_size(self, capsys):
        rows = {}
        for n in CLUSTER_SIZES:
            system = build(n)
            fs = system.host("h0").fs()
            fs.makedirs("/a/b/c")
            fs.write_file("/a/b/c/leaf", b"x")
            fs.read_file("/a/b/c/leaf")
            before = system.network.stats.rpcs_sent
            fs.read_file("/a/b/c/leaf")
            rows[n] = system.network.stats.rpcs_sent - before
        with capsys.disabled():
            print("[E13] RPCs for one deep read vs cluster size:", rows)
        assert max(rows.values()) <= min(rows.values()) + 2

    def test_recon_is_pairwise(self):
        """One reconciliation pass contacts ONE peer regardless of how
        many replicas the volume has."""
        costs = {}
        for replicas in [2, 4, 8]:
            system = build(8, replicas=replicas)
            system.host("h0").fs().write_file("/f", b"x")
            before = system.network.stats.rpcs_sent
            system.host("h1").recon_daemon.tick()
            costs[replicas] = system.network.stats.rpcs_sent - before
        assert max(costs.values()) <= min(costs.values()) + 2

    def test_ufs_create_write_cost_independent_of_live_files(self, capsys):
        """Block reads (exact: buffer-cache lookups, and reads the
        operation's own held writes answer) for one create + 4 KiB write
        into a fresh directory, on a disk already holding 100 and 1 500
        files spread over 20-entry directories so that no directory grows."""
        fs = Ufs.mkfs(BlockDevice(4096), num_inodes=2048)
        first_dir = None
        live = 0

        def populate(upto: int) -> None:
            nonlocal first_dir, live
            while live < upto:
                if live % 20 == 0:
                    directory = fs.mkdir(ROOT_INO, f"d{live // 20}")
                    first_dir = first_dir or directory
                fs.write_file(fs.create(directory, f"f{live}"), 0, bytes(4096))
                live += 1

        def create_write(directory: int, name: str) -> int:
            stats = fs.cache.stats
            before = stats.lookups + stats.held
            fs.write_file(fs.create(directory, name), 0, bytes(4096))
            return stats.lookups + stats.held - before

        rows = {}
        for files in (100, 1500):
            populate(files)
            rows[files] = create_write(fs.mkdir(ROOT_INO, f"probe{files}"), "f")

        # the worst case the bounds allow: free a low slot, allocate twice.
        # The first allocation refills the hole; the second walks from it
        # to the end of the live region, and pays per table block passed
        # (32 slots each; one bitmap block covers the disk), not per slot.
        probe = fs.mkdir(ROOT_INO, "probe-hole")
        fs.unlink(first_dir, "f0")
        refill = create_write(probe, "refill")
        walk = create_write(probe, "walk")
        table_blocks = fs.sb.bitmap_start - fs.sb.inode_table_start
        with capsys.disabled():
            print(
                "[E13] block reads for one UFS create + 4 KiB write vs live files:",
                rows,
                f"| after freeing a low slot: {refill}, then {walk} "
                f"(inode table is {table_blocks} blocks)",
            )
        assert rows[100] == rows[1500]
        assert refill == rows[1500]
        assert walk <= rows[1500] + table_blocks + 1


@pytest.mark.parametrize("n_hosts", CLUSTER_SIZES)
def test_bench_write_at_scale(benchmark, n_hosts):
    system = build(n_hosts)
    fs = system.host("h0").fs()
    counter = iter(range(10**9))
    benchmark(lambda: fs.write_file(f"/f{next(counter)}", b"scaled"))


@pytest.mark.parametrize("n_hosts", [2, 8])
def test_bench_cluster_construction(benchmark, n_hosts):
    benchmark(build, n_hosts)
