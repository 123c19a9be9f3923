"""Ablations of the design choices the paper motivates.

Each ablation turns one mechanism off (or swaps one design decision) and
measures what it was buying:

* A1 — kernel-resident vs application-level execution (Section 5's
  address-space-crossing penalty).
* A2 — the directory name lookup cache and buffer cache: what warm opens
  cost without them (the Section 6 claim depends on them).
* A3 — update notification vs reconciliation-only propagation: how stale
  a peer replica stays when the notification datagrams are lost.
* A4 — open/close session coalescing vs per-write version bumps: how much
  aux-file traffic the smuggled open/close information saves.
"""

import pytest

from repro.devel import measure_crossing_penalty
from repro.sim import DaemonConfig, FicusSystem, HostConfig
from repro.storage import BlockDevice
from repro.ufs import Ufs
from repro.vnode import UfsLayer

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


def ufs_factory():
    return UfsLayer(Ufs.mkfs(BlockDevice(2048), num_inodes=128))


class TestA1AddressSpaceCrossing:
    def test_user_level_penalty_exists_and_report(self, capsys):
        penalty = measure_crossing_penalty(ufs_factory, ops=500)
        with capsys.disabled():
            print(
                f"\n[A1] getattr: kernel {penalty.kernel_seconds_per_op * 1e6:.1f} us, "
                f"user-level {penalty.user_seconds_per_op * 1e6:.1f} us "
                f"({penalty.factor:.1f}x)"
            )
        assert penalty.factor > 1.0


class TestA2Caches:
    def _warm_open_reads(self, cache_blocks: int, name_cache: int) -> int:
        config = HostConfig(
            disk_blocks=65536, num_inodes=512,
            cache_blocks=cache_blocks, name_cache_size=name_cache,
            isolate_inodes=True,
        )
        system = FicusSystem(["solo"], daemon_config=QUIET, host_config=config)
        host = system.host("solo")
        fs = host.fs()
        fs.mkdir("/d")
        fs.write_file("/d/f", b"x")
        fs.stat("/d/f")  # warm (to whatever extent caches exist)
        if not cache_blocks:
            # the logical layer's name views have no off switch; with the
            # buffer cache ablated they are emptied so that nothing is cached
            host.logical.attr_cache.clear()
        snap = host.device.counters.snapshot()
        fs.stat("/d/f")
        return host.device.counters.delta_since(snap).reads

    def test_without_caches_every_open_hits_disk(self, capsys):
        with_caches = self._warm_open_reads(cache_blocks=512, name_cache=512)
        without = self._warm_open_reads(cache_blocks=0, name_cache=0)
        with capsys.disabled():
            print(f"\n[A2] warm open disk reads: caches on={with_caches}, caches off={without}")
        assert with_caches == 0
        # without caching every metadata object is re-fetched: the warm
        # open costs as much as the cold one
        assert without >= 6

    def test_name_cache_alone_saves_directory_scans(self):
        only_buffer = self._warm_open_reads(cache_blocks=512, name_cache=0)
        both = self._warm_open_reads(cache_blocks=512, name_cache=512)
        assert only_buffer == both == 0  # buffer cache covers repeat reads
        neither = self._warm_open_reads(cache_blocks=0, name_cache=512)
        assert neither > 0  # DNLC cannot substitute for data caching


class TestA3NotificationValue:
    def _staleness(self, drop_notifications: bool) -> float:
        config = DaemonConfig(
            propagation_period=1.0, propagation_min_age=0.0,
            recon_period=60.0, graft_prune_period=None,
        )
        system = FicusSystem(["w", "r"], daemon_config=config)
        writer = system.host("w").fs()
        reader = system.host("r")
        writer.write_file("/f", b"v0")
        system.run_for(65.0)  # fully settled
        if drop_notifications:
            # sever the datagram path only: clear the cache after the write
            writer.write_file("/f", b"v1")
            reader.physical._new_versions.clear()
        else:
            writer.write_file("/f", b"v1")
        written_at = system.clock.now()
        volrep = next(l.volrep for l in system.root_locations if l.host == "r")
        store = reader.physical.store_for(volrep)
        fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "f")
        while store.file_vnode(store.root_handle(), fh).read_all() != b"v1":
            system.run_for(1.0)
        return system.clock.now() - written_at

    def test_notifications_cut_staleness_vs_recon_only(self, capsys):
        with_notify = self._staleness(drop_notifications=False)
        recon_only = self._staleness(drop_notifications=True)
        with capsys.disabled():
            print(
                f"\n[A3] replica staleness: with notification {with_notify:.1f}s, "
                f"reconciliation-only {recon_only:.1f}s"
            )
        # notification converges within a couple propagation periods;
        # without it the next periodic recon (60 s) must come around
        assert with_notify <= 5.0
        assert recon_only > with_notify * 4


class TestA4SessionCoalescing:
    def _aux_writes_for_k_writes(self, use_session: bool, k: int = 20) -> int:
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        fs = host.fs()
        fs.write_file("/f", b"")
        snap = host.device.counters.snapshot()
        if use_session:
            with fs.open("/f", "a") as f:
                for _ in range(k):
                    f.write(b"x")
        else:
            vnode = host.root().lookup("f")
            for _ in range(k):
                vnode.write(0, b"x")  # bare writes: no session
        return host.device.counters.delta_since(snap).writes

    def test_sessions_cut_write_amplification(self, capsys):
        with_session = self._aux_writes_for_k_writes(True)
        without = self._aux_writes_for_k_writes(False)
        with capsys.disabled():
            print(
                f"\n[A4] device writes for 20 appends: session={with_session}, "
                f"bare={without} (each bare write rewrites the aux file)"
            )
        assert with_session < without

    def test_session_vv_stays_small(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        fs = system.host("solo").fs()
        with fs.open("/f", "w") as f:
            for _ in range(50):
                f.write(b"chunk")
        volrep = system.root_locations[0].volrep
        store = system.host("solo").physical.store_for(volrep)
        fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "f")
        assert store.read_file_aux(store.root_handle(), fh).vv.total_updates == 1


@pytest.mark.parametrize("user_level", [False, True])
def test_bench_execution_mode(benchmark, user_level):
    from repro.devel import build_switchable

    layer = build_switchable(ufs_factory, user_level, name=f"m{int(user_level)}")
    root = layer.root()
    root.create("probe").write(0, b"x")
    probe = root.lookup("probe")
    benchmark(probe.getattr)
