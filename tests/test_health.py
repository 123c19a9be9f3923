"""The consistency observability plane: gauges, flight recorder, routing."""

import os

import pytest

from repro.core.filesystem import FicusFileSystem
from repro.errors import RpcTimeout
from repro.logical import LogicalDirVnode
from repro.net import Network
from repro.nfs import NfsClientLayer, NfsServer
from repro.physical import EntryType, FicusPhysicalLayer
from repro.recon import PullOutcome, pull_file
from repro.sim import DaemonConfig, FicusSystem
from repro.storage import BlockDevice
from repro.telemetry import FLIGHT_RING_CAPACITY, HealthPlane, HostHealth, Telemetry, load_dump
from repro.ufs import Ufs
from repro.util import VolumeId, VolumeReplicaId
from repro.vnode import UfsLayer
from repro.vnode.interface import ROOT_CTX, OpContext
from repro.workload import (
    ChaosConfig,
    decode_schedule,
    replay_trace,
    run_chaos,
    state_fingerprint,
)
from repro.workload.replay import SCHEDULE_HEADER

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


def converged_cluster(names=("a", "b", "c")):
    system = FicusSystem(list(names), daemon_config=QUIET)
    fs = system.host(names[0]).fs()
    fs.write_file("/doc", b"agreed")
    system.reconcile_everything()
    return system, fs


class TestDivergenceGauges:
    def test_partitioned_write_raises_suspicion_immediately(self):
        """The updating side knows which replica hosts missed the write;
        suspicion appears without waiting for any daemon to run."""
        system, fs = converged_cluster()
        system.partition([{"a"}, {"b", "c"}])
        fs.write_file("/doc", b"partitioned edit")
        health = system.host("a").health()
        assert health.divergence_suspected
        volume = system.root_volume.to_hex()
        assert health.suspected == {volume: ["b", "c"]}

    def test_reconciliation_after_heal_clears_suspicion(self):
        system, fs = converged_cluster()
        system.partition([{"a"}, {"b", "c"}])
        fs.write_file("/doc", b"partitioned edit")
        system.heal()
        system.reconcile_everything()
        for name in system.hosts:
            health = system.host(name).health()
            assert not health.divergence_suspected, health.suspected

    def test_recon_abort_against_flapping_peer_raises_suspicion(self):
        """A round that dies mid-run leaves divergence *unknown*: suspect it."""
        system, fs = converged_cluster(("a", "b"))
        fs.write_file("/doc", b"newer")
        # outlast every retransmission: the run aborts while b is reachable
        system.network.faults.schedule_rpc("b", "a", ["timeout"] * 12)
        system.host("b").recon_daemon.tick()
        health = system.host("b").health()
        volume = system.root_volume.to_hex()
        assert health.suspected == {volume: ["a"]}
        system.network.faults.clear()
        system.reconcile_everything()
        assert not system.host("b").health().divergence_suspected

    def test_staleness_grows_under_partition_and_resets_after_heal(self):
        system, fs = converged_cluster()
        system.partition([{"a"}, {"b", "c"}])
        for _ in range(3):
            system.host("a").recon_daemon.tick()
        during = system.host("a").health()
        assert during.staleness_ticks["b"] >= 3
        assert during.staleness_ticks["c"] >= 3
        system.heal()
        system.reconcile_everything()
        # every peer completed a round recently; at most the final tick's
        # not-chosen peer is one round behind
        assert system.host("a").health().max_staleness <= 1

    def test_converged_quiesced_cluster_reports_clean_health(self):
        system, fs = converged_cluster()
        for name in system.hosts:
            system.host(name).propagation_daemon.tick()
        for name in system.hosts:
            health = system.host(name).health()
            assert health.host == name and health.up
            assert not health.divergence_suspected
            assert health.notes_pending == 0
            assert health.degraded_peers == []
            assert health.anomalies == {}

    def test_checked_read_flags_partitioned_volume(self):
        system, fs = converged_cluster()
        assert fs.read_file_checked("/doc").divergence_suspected is False
        system.partition([{"a"}, {"b", "c"}])
        fs.write_file("/doc", b"partitioned edit")
        checked = fs.read_file_checked("/doc")
        assert checked.data == b"partitioned edit"
        assert checked.divergence_suspected
        system.heal()
        system.reconcile_everything()
        assert fs.read_file_checked("/doc").divergence_suspected is False

    def test_checked_read_resolves_its_path_once(self, monkeypatch):
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        fs = system.host("a").fs()
        fs.makedirs("/x/y")
        fs.write_file("/x/y/f", b"once")
        lookups = []
        lookup = LogicalDirVnode.lookup

        def counting(self, name, *args, **kwargs):
            lookups.append(name)
            return lookup(self, name, *args, **kwargs)

        monkeypatch.setattr(LogicalDirVnode, "lookup", counting)
        assert fs.read_file("/x/y/f") == b"once"
        plain = list(lookups)
        lookups.clear()
        assert fs.read_file_checked("/x/y/f").data == b"once"
        assert lookups == plain == ["x", "y", "f"]


class TestFlightRecorder:
    def test_ring_stays_bounded(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        fs = system.host("solo").fs()
        for _ in range(FLIGHT_RING_CAPACITY // 4 + 40):  # 4+ ring entries each
            fs.write_file("/f", b"x")
        plane = system.host("solo").health_plane
        assert len(plane.recorder.ring) == FLIGHT_RING_CAPACITY

    @pytest.mark.parametrize(
        "payload",
        [None, "junk", 42, {}, {"trace_id": "xyz-not-hex"}, {"trace_id": "1"}, {"span_id": "2"}],
    )
    def test_a_trace_that_is_no_trace_context_is_recorded_as_none(self, payload):
        """The ring treats a malformed ``ctx.trace`` as ``Tracer.span`` does:
        as no trace.  The ops record exactly as under an untraced context."""

        def ring_after(ctx):
            host = FicusSystem(["solo"], daemon_config=QUIET).host("solo")
            fs = FicusFileSystem(host.logical, ctx=ctx)
            fs.write_file("/f", b"contents")
            assert fs.read_file("/f") == b"contents"
            return list(host.health_plane.recorder.ring)

        ring = ring_after(OpContext(trace=payload))
        assert ring == ring_after(OpContext())
        assert ring and all(trace is None for *_, trace in ring)

    def test_anomaly_dump_round_trips_and_renders(self, tmp_path):
        from repro.tools.ficus_top import render_dump

        system, fs = converged_cluster(("a", "b"))
        plane = system.host("a").health_plane
        plane.recorder.dump_dir = str(tmp_path)
        plane.anomaly("fsck_violation", detail_code=7)
        assert plane.anomaly_counts == {"fsck_violation": 1}
        path = plane.recorder.dump_paths[-1]
        snapshot = load_dump(path)
        assert snapshot["kind"] == "fsck_violation"
        assert snapshot["detail"] == {"detail_code": 7}
        assert snapshot["ops"], "ring should hold the preceding vnode ops"
        assert snapshot["health"]["host"] == "a"
        rendered = render_dump(path)
        assert "fsck_violation" in rendered
        assert "recorded ops" in rendered

    def test_dump_health_line_is_the_host_health_record(self, tmp_path):
        """A dump renders a host's health one way: the plane's
        :class:`HostHealth`, recon outcomes included, rebuilt as it was."""
        system, fs = converged_cluster()
        system.partition([{"a"}, {"b", "c"}])
        fs.write_file("/doc", b"partitioned edit")
        system.host("a").recon_daemon.tick()
        plane = system.host("a").health_plane
        path = plane.recorder.write_dump(plane.anomaly("fsck_violation"), str(tmp_path / "a.jsonl"))
        rebuilt = HostHealth(**load_dump(path)["health"])
        assert rebuilt == plane.host_health()
        assert rebuilt.last_recon and rebuilt.suspected and rebuilt.staleness_ticks

    def test_dump_names_the_peers_the_host_routes_around(self):
        """The one peer-health record a host keeps is what both its live
        health and an anomaly dump report: a peer the recon daemon marked
        flapping shows in both, and both daemons and replica selection
        route around it."""
        system, _ = converged_cluster()
        a = system.host("a")
        a.health_plane.peer_health.record_failure("b")
        dumped = a.health_plane.anomaly("probe")["health"]
        assert dumped["degraded_peers"] == a.health().degraded_peers == ["b"]
        assert a.health_plane.peer_health is a.logical.health.peer_health

    def test_dump_reads_the_live_notes_and_up(self):
        """A dump's health line is the host's live health: its pending
        notes are the new-version cache as it is, and a crashed host is
        down, whatever was last rendered or ticked."""
        system = FicusSystem(["a", "b"], daemon_config=QUIET, telemetry=Telemetry())
        a_fs, b = system.host("a").fs(), system.host("b")
        a_fs.write_file("/one", b"1")
        assert b.health().notes_pending == 1
        a_fs.write_file("/two", b"2")
        dumped = b.health_plane.anomaly("probe")["health"]
        gauge = system.telemetry.metrics.get("health.notes_pending.b").value
        assert dumped["notes_pending"] == b.health().notes_pending == gauge == 2
        assert b.physical.new_version_cache_size == 2
        b.crash()
        assert b.health_plane.anomaly("probe")["health"]["up"] is b.health().up is False
        b.restart(system)  # the new-version cache is volatile
        a_fs.write_file("/three", b"3")
        dumped = b.health_plane.anomaly("probe")["health"]
        gauge = system.telemetry.metrics.get("health.notes_pending.b").value
        assert (dumped["up"], dumped["notes_pending"], gauge) == (True, 1, 1)

    def test_dump_labels_file_ops_by_handle_and_notifications_by_sender(self, tmp_path):
        """A dump names a file op's target by the file's hex handle and a
        heard update notification as ``"<src>:<hex>"``."""
        system, fs = converged_cluster(("a", "b"))
        b_fs = system.host("b").fs()
        b_fs.write_file("/doc", b"edited on b")
        b_fs.write_file("/doc", b"on b")  # shorter: the trim is an op
        assert b_fs.read_file("/doc") == b"on b"
        fs.write_file("/doc", b"edited on a")  # notifies b
        hex_fh = b_fs.resolve("/doc").fh.to_hex()
        plane = system.host("b").health_plane
        snapshot = plane.anomaly("fsck_violation")
        path = plane.recorder.write_dump(snapshot, str(tmp_path / "b.jsonl"))
        ops = load_dump(path)["ops"]
        file_ops = [(op, target) for _, op, target, _ in ops if op.startswith("file.")]
        assert {"file.open", "file.write", "file.truncate", "file.read", "file.close"} <= {
            op for op, _ in file_ops
        }
        assert all(target == hex_fh for _, target in file_ops)
        heard = [target for _, op, target, _ in ops if op == "notification.recv"]
        assert heard and heard[-1] == f"a:{hex_fh}"

    def test_conflict_detection_fires_the_recorder(self):
        system, fs = converged_cluster(("a", "b"))
        system.partition([{"a"}, {"b"}])
        fs.write_file("/doc", b"side a")
        system.host("b").fs().write_file("/doc", b"side b")
        system.heal()
        system.reconcile_everything()
        planes = [system.host(name).health_plane for name in ("a", "b")]
        detected = sum(p.anomaly_counts.get("conflict_detected", 0) for p in planes)
        assert detected >= 1
        assert any(
            dump["kind"] == "conflict_detected" for p in planes for dump in p.recorder.dumps
        )

    def test_timeline_marks_a_write_and_its_pull_as_one_thread(self, tmp_path):
        """A write on one host and its propagation pull on another carry
        spans of one trace, so the merged timeline flags both lines."""
        from repro.tools.ficus_top import render_timeline

        system = FicusSystem(["a", "b"], daemon_config=QUIET, telemetry=Telemetry())
        system.host("a").fs().write_file("/doc", b"traced")
        system.host("b").propagation_daemon.tick()
        paths = []
        for name in ("a", "b"):
            plane = system.host(name).health_plane
            snapshot = plane.anomaly("fsck_violation")
            paths.append(plane.recorder.write_dump(snapshot, str(tmp_path / f"{name}.jsonl")))
        lines = render_timeline(paths).splitlines()
        write = [line for line in lines if " a  version write " in line]
        pull = [line for line in lines if " b  version pull " in line]
        assert write and pull
        assert all(line.endswith("<-- spans hosts") for line in write + pull)


class TestBlockCorruptionFallback:
    def _multi_block_setup(self):
        from repro.physical.wire import DELTA_BLOCK_SIZE

        system = FicusSystem(["alpha", "beta"], daemon_config=QUIET)
        contents = bytes(i % 251 for i in range(4 * DELTA_BLOCK_SIZE))
        system.host("alpha").fs().write_file("/big", contents)
        system.reconcile_everything()
        mutated = bytearray(contents)
        mutated[0] ^= 0x55
        system.host("alpha").fs().write_file("/big", bytes(mutated))
        beta_store = next(iter(system.host("beta").physical.stores.values()))
        alpha_loc = next(loc for loc in system.root_locations if loc.host == "alpha")
        remote = system.host("beta").fabric.volume_root("alpha", alpha_loc.volrep)
        root_fh = beta_store.root_handle()
        entry = next(e for e in beta_store.read_entries(root_fh) if e.name == "big")
        return system, beta_store, remote, root_fh, entry, bytes(mutated)

    def test_corrupted_block_payload_installs_nothing(self, tmp_path):
        """A block payload corrupted in flight is caught by digest
        verification and fires the anomaly; the pull installs nothing (the
        wrong bytes never land, the local copy is untouched), and the next
        pull installs the correct version."""
        system, store, remote, root_fh, entry, expected = self._multi_block_setup()
        before = store.stored_file(root_fh, entry.fh).read_all()
        plane = system.host("beta").health_plane
        plane.recorder.dump_dir = str(tmp_path)
        system.network.faults.schedule_block_corruption("beta", "alpha")
        result = pull_file(store, root_fh, entry.fh, remote, health=plane)
        assert result.outcome is PullOutcome.UNREACHABLE
        assert store.stored_file(root_fh, entry.fh).read_all() == before != expected
        assert system.network.faults.injected.get("block_corrupt") == 1
        assert plane.anomaly_counts.get("pull_digest_mismatch") == 1
        # the anomaly left an offline-renderable evidence bundle behind
        from repro.tools.ficus_top import render_dump

        assert "pull_digest_mismatch" in render_dump(plane.recorder.dump_paths[-1])
        result = pull_file(store, root_fh, entry.fh, remote, health=plane)
        assert result.outcome is PullOutcome.PULLED
        assert store.stored_file(root_fh, entry.fh).read_all() == expected
        assert plane.anomaly_counts.get("pull_digest_mismatch") == 1

    def test_clean_link_keeps_the_delta_path(self):
        system, store, remote, root_fh, entry, expected = self._multi_block_setup()
        plane = system.host("beta").health_plane
        result = pull_file(store, root_fh, entry.fh, remote, health=plane)
        assert result.outcome is PullOutcome.PULLED
        assert result.bytes_saved > 0  # the delta path ran
        assert plane.anomaly_counts == {}


class TestDegradedReadRouting:
    def test_reads_route_around_flapping_peer(self):
        """Replica selection stops tail-probing a degraded peer when a
        healthy replica can answer, and counts every spared probe."""
        from repro.core import FicusFileSystem

        system, _ = converged_cluster()
        alpha = system.host("a")
        # no_cache reads force a fresh probe of every replica batch
        fs = FicusFileSystem(alpha.logical, ctx=ROOT_CTX.with_no_cache())

        fs.read_file("/doc")  # warm handles/mounts
        before = system.network.stats.rpcs_sent
        fs.read_file("/doc")
        healthy_rpcs = system.network.stats.rpcs_sent - before

        for _ in range(4):  # mark b as flapping: failing while reachable
            alpha.health_plane.peer_health.record_failure("b")
        assert alpha.health_plane.peer_health.is_degraded("b")
        skips_before = alpha.logical.degraded_skips
        before = system.network.stats.rpcs_sent
        assert fs.read_file("/doc") == b"agreed"
        degraded_rpcs = system.network.stats.rpcs_sent - before
        assert degraded_rpcs < healthy_rpcs
        assert alpha.logical.degraded_skips > skips_before

    def test_degraded_peer_still_probed_when_it_is_the_only_copy(self):
        from repro.core import FicusFileSystem

        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        system.host("a").fs().write_file("/doc", b"v1")
        system.reconcile_everything()
        b = system.host("b")
        for _ in range(4):
            b.health_plane.peer_health.record_failure("a")
        # b's own replica answers, and when we force remote-only coverage
        # (degrade the only peer) availability still wins over routing
        fs = FicusFileSystem(b.logical, ctx=ROOT_CTX.with_no_cache())
        assert fs.read_file("/doc") == b"v1"


class TestAmbiguousTimeoutAnomaly:
    def test_non_idempotent_ambiguous_failure_fires_anomaly(self):
        """A Ficus insert leaves its ids for the server to mint, like the
        create it used to travel as: the timeout surfaces, nothing replays."""
        net = Network()
        net.add_host("server")
        net.add_host("client")
        ufs_layer = UfsLayer(Ufs.mkfs(BlockDevice(4096), num_inodes=256, clock=net.clock))
        volrep = VolumeReplicaId(VolumeId(1, 1), 1)
        physical = FicusPhysicalLayer(ufs_layer, "server")
        store = physical.create_volume_replica(volrep)
        NfsServer(net, "server", physical)
        plane = HealthPlane("client")
        client = NfsClientLayer(net, "client", "server", health=plane)
        root = client.root().lookup(volrep.to_hex())  # before the fault: these are RPCs too
        sent = net.stats.rpcs_sent
        net.faults.schedule_rpc("client", "server", ["reply_lost", "ok"])
        with pytest.raises(RpcTimeout):
            root.insert("minted", EntryType.FILE)
        assert net.stats.rpcs_sent - sent == 1  # the scripted "ok" was never consumed
        assert plane.anomaly_counts == {"ambiguous_timeout": 1}
        assert plane.recorder.dumps[-1]["detail"]["op"] == "insert"
        assert [e.name for e in store.read_entries(store.root_handle())] == ["minted"]


class TestCrashChaos:
    # the CI crash-matrix configuration: default shape + crash epochs
    FAST_CRASH = ChaosConfig(crash_prob=0.25)

    def test_crash_seed_converges_and_recovery_sweeps_clean(self):
        report = run_chaos(31, self.FAST_CRASH)
        assert report.converged, report.problems
        assert report.crashes >= 1
        assert report.restarts == report.crashes
        assert report.flight_dumps == []

    def test_crash_runs_replay_deterministically(self):
        first = run_chaos(31, self.FAST_CRASH)
        second = run_chaos(31, self.FAST_CRASH)
        assert first.crashes == second.crashes
        assert first.tree == second.tree
        assert first.faults_injected == second.faults_injected

    def test_oracle_failure_dumps_flight_recorders(self, tmp_path, monkeypatch):
        """A diverged run must leave renderable evidence bundles behind."""
        import repro.workload.chaos as chaos_module
        from repro.tools.ficus_top import render_dump

        real_check = chaos_module._check_convergence
        fingerprints = []

        def failing_check(system, host_names, report, config):
            real_check(system, host_names, report, config)
            fingerprints.append(state_fingerprint(system, host_names))
            report.problems.append("synthetic oracle failure (test)")

        monkeypatch.setattr(chaos_module, "_check_convergence", failing_check)
        dump_dir = tmp_path / "dumps"  # created on demand
        config = ChaosConfig(rounds=2, ops_per_round=2)
        report = run_chaos(11, config, dump_dir=str(dump_dir))
        assert not report.converged
        assert len(report.flight_dumps) == 3  # one per host
        for path in report.flight_dumps:
            assert os.path.dirname(path) == str(dump_dir)
            rendered = render_dump(path)
            assert "chaos_oracle_failure" in rendered
        # the schedule left beside the dumps, under its format version,
        # reproduces the failed run
        text = (dump_dir / "chaos_11.schedule").read_text()
        assert text.splitlines()[0] == SCHEDULE_HEADER == "schedule=8"
        schedule = decode_schedule(text)
        assert schedule == report.schedule
        system, host_names = chaos_module.build_cluster(11, config)
        replay_trace(system, schedule)
        chaos_module.quiesce(system, host_names)
        assert state_fingerprint(system, host_names) == fingerprints[0]

    def test_restarted_host_health_survives_the_reboot(self):
        system, fs = converged_cluster(("a", "b"))
        a = system.host("a")
        a.health_plane.anomaly("fsck_violation", probe=True)
        a.crash()
        assert not a.health().up
        a.restart(system)
        assert a.health().up
        # the plane is the host's black box: counts survive the reboot,
        # and the rebuilt layers are wired back into the same plane
        assert a.health().anomalies == {"fsck_violation": 1}
        assert a.physical.health is a.health_plane
        assert a.logical.health is a.health_plane
        fs2 = a.fs()
        fs2.write_file("/doc", b"post-reboot")
        assert len(a.health_plane.recorder.ring) > 0
