"""Tests for the provenance plane: ledgers, the version DAG, replay verify.

The invariants held here are the ones ARCHITECTURE.md promises:

* every live ``(fh, vv)`` pair in a store has a ledger node (within ring
  retention), and merge/resolve nodes carry >= 2 distinct parents;
* the composed DAG is a pure function of the event set (order-free);
* ``feeds_of_conflict`` names the exact cross-host write set feeding each
  branch of a conflict — handcrafted and chaos-produced alike;
* a recorded chaos history replays on a fresh cluster to byte-identical
  trees and version-vector maps (replicate-and-verify).
"""

import pytest

from repro.sim import DaemonConfig, FicusSystem
from repro.telemetry import MINT_KINDS, ProvEvent, VersionDAG, load_dump, snapshot_to_jsonl
from repro.workload import TraceOp, replay_trace
from repro.workload.chaos import ChaosConfig, run_chaos
from repro.workload.verify import replicate_and_verify, state_fingerprint

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


def _converge(system, rounds=6):
    """Heal + enough reconcile rounds to ride out transient backoffs."""
    system.heal()
    system.reconcile_everything(rounds=rounds)


def _conflicted_file_dag(system):
    """The (fh, dag) of the single conflicted/merged file in a scenario."""
    dag = system.provenance_dag()
    for fh in dag.file_handles():
        heads = dag.heads(fh)
        if len(heads) >= 2 or any(n.is_merge for n in dag.nodes_for(fh)):
            return fh, dag
    raise AssertionError("scenario produced no conflicted file")


class TestLedgerHooks:
    def test_create_and_write_lineage_single_host(self):
        system = FicusSystem(["west", "east"])
        west = system.host("west").fs()
        west.mkdir("/d")
        west.write_file("/d/f", b"v1")
        west.write_file("/d/f", b"v2")
        dag = system.provenance_dag()
        fh = dag.file_handles()[0]
        lineage = dag.lineage(fh)
        assert [sorted(n.kinds) for n in lineage] == [["create"], ["write"], ["write"]]
        # genesis node has the empty vv and no parents
        assert lineage[0].vv == "" and lineage[0].parents == set()
        # each write's parent is exactly the version it replaced
        assert lineage[1].parents == {""}
        assert lineage[2].parents == {lineage[1].vv}

    def test_pull_records_origin_host(self):
        system = FicusSystem(["west", "east"])
        west = system.host("west").fs()
        west.mkdir("/d")
        west.write_file("/d/f", b"v1")
        system.reconcile_everything()
        east_events = system.host("east").health_plane.provenance.events()
        pulls = [e for e in east_events if e.kind == "pull"]
        assert pulls and all(e.origin == "west" for e in pulls)

    def test_who_wrote_names_the_writer(self):
        system = FicusSystem(["west", "east"])
        west = system.host("west").fs()
        west.mkdir("/d")
        west.write_file("/d/f", b"v1")
        system.reconcile_everything()
        dag = system.provenance_dag()
        fh = dag.file_handles()[0]
        head = dag.heads(fh)[0]
        writers = dag.who_wrote(fh, head.vv)
        assert [w[0] for w in writers] == ["west"]
        assert writers[0][2] == "write"


class TestConflictLineage:
    def test_three_replica_conflict_and_resolve(self):
        """Lineage across a 3-replica partition conflict + auto-resolve."""
        system = FicusSystem(["a", "b", "c"])
        system.enable_resolvers()
        fs_a = system.host("a").fs()
        fs_a.mkdir("/d")
        fs_a.write_file("/d/box.log", b"base\n")
        fs_a.set_merge_policy("/d/box.log", "append-log")
        system.reconcile_everything()
        system.partition([{"a"}, {"b"}, {"c"}])
        for name in ("a", "b", "c"):
            fs = system.host(name).fs()
            fs.write_file("/d/box.log", b"base\n" + f"from-{name}\n".encode())
        _converge(system, rounds=8)
        contents = {system.host(n).fs().read_file("/d/box.log") for n in ("a", "b", "c")}
        assert contents == {b"base\nfrom-a\nfrom-b\nfrom-c\n"}

        fh, dag = _conflicted_file_dag(system)
        # every host's concurrent write is a node, and the final head is a
        # merge that transitively descends from all three
        writes = [
            n for n in dag.nodes_for(fh) if "write" in n.kinds and len(n.parents) == 1
        ]
        assert len(writes) >= 3
        heads = dag.heads(fh)
        assert len(heads) == 1 and heads[0].is_merge
        assert len(heads[0].parents) >= 2

    @pytest.mark.parametrize(
        "tag,base,side_a,side_b",
        [
            ("append-log", b"base\n", b"base\na\n", b"base\nb\n"),
            ("kv", b"k=0\n", b"k=0\nx=1\n", b"k=0\ny=2\n"),
            ("lww", b"base", b"left", b"right"),
            (
                "threeway",
                b"A" * 4096 + b"B" * 4096,
                b"a" * 4096 + b"B" * 4096,
                b"A" * 4096 + b"b" * 4096,
            ),
        ],
    )
    def test_merge_edges_from_each_resolver_kind(self, tag, base, side_a, side_b):
        """Each shipped resolver's merge lands as a >=2-parent DAG node."""
        system = FicusSystem(["west", "east"])
        system.enable_resolvers()
        west = system.host("west").fs()
        east = system.host("east").fs()
        west.mkdir("/d")
        west.write_file("/d/f", base)
        west.set_merge_policy("/d/f", tag)
        system.reconcile_everything()
        system.partition([{"west"}, {"east"}])
        west.write_file("/d/f", side_a)
        east.write_file("/d/f", side_b)
        _converge(system, rounds=6)
        assert system.total_conflicts() == 0

        fh, dag = _conflicted_file_dag(system)
        merges = [n for n in dag.nodes_for(fh) if n.is_merge]
        assert merges, f"no merge node ledgered for resolver {tag!r}"
        for node in merges:
            assert len(node.parents) >= 2
            # the resolver tag is annotated on the merge event
            assert any(tag in e.detail for e in node.events if e.kind == "merge")

    def test_feeds_of_conflict_exact_write_sets(self):
        """feeds_of_conflict returns exactly the per-side writes, not the base."""
        system = FicusSystem(["west", "east"])
        west = system.host("west").fs()
        east = system.host("east").fs()
        west.mkdir("/d")
        west.write_file("/d/f", b"base")
        system.reconcile_everything()
        system.partition([{"west"}, {"east"}])
        west.write_file("/d/f", b"west-1")
        west.write_file("/d/f", b"west-2")
        east.write_file("/d/f", b"east-1")
        _converge(system)

        fh, dag = _conflicted_file_dag(system)
        feeds = dag.feeds_of_conflict(fh)
        assert len(feeds) == 2
        by_host = {
            tuple(sorted({e.host for e in events})): sorted(e.vv for e in events)
            for events in feeds.values()
        }
        # west's branch is fed by exactly its two partition-era writes,
        # east's by exactly its one; the shared base write feeds neither
        assert set(by_host) == {("west",), ("east",)}
        assert len(by_host[("west",)]) == 2
        assert len(by_host[("east",)]) == 1
        all_feed_events = [e for events in feeds.values() for e in events]
        assert all(e.kind in MINT_KINDS for e in all_feed_events)


class TestDagComposition:
    def _partitioned_system(self):
        system = FicusSystem(["west", "east"])
        west = system.host("west").fs()
        east = system.host("east").fs()
        west.mkdir("/d")
        west.write_file("/d/f", b"base")
        system.reconcile_everything()
        system.partition([{"west"}, {"east"}])
        west.write_file("/d/f", b"w")
        east.write_file("/d/f", b"e")
        _converge(system)
        return system

    def test_cross_host_dag_equality_after_convergence(self):
        """Composing the ledgers in any order yields the same graph."""
        system = self._partitioned_system()
        ledgers = [
            system.host(name).health_plane.provenance for name in ("west", "east")
        ]
        forward = VersionDAG.compose(ledgers)
        backward = VersionDAG.compose(list(reversed(ledgers)))
        as_dicts = lambda dag: {  # noqa: E731
            key: (sorted(node.parents), sorted(node.hosts), sorted(node.kinds))
            for key, node in dag.nodes.items()
        }
        assert as_dicts(forward) == as_dicts(backward)

    def test_every_live_version_has_a_node(self):
        """DAG invariant: every stored (fh, vv) pair appears as a node."""
        system = self._partitioned_system()
        dag = system.provenance_dag()
        for name in ("west", "east"):
            host = system.host(name)
            for store in host.physical.stores.values():
                for dir_fh in store.all_directory_handles():
                    for entry in store.read_entries(dir_fh):
                        fh = entry.fh.logical
                        if not entry.live or not store.has_file(dir_fh, fh):
                            continue
                        vv = store.read_file_aux(dir_fh, fh).vv
                        if not vv:
                            continue  # directories / never-written files
                        node = dag.node(fh.to_hex(), vv.encode())
                        assert node is not None, f"{name}: no node for {vv.encode()}"

    def test_prov_rides_flight_dump_round_trip(self, tmp_path):
        system = self._partitioned_system()
        plane = system.host("west").health_plane
        snapshot = plane.anomaly("test_dump")
        path = tmp_path / "flight.jsonl"
        path.write_text("\n".join(snapshot_to_jsonl(snapshot)) + "\n")
        loaded = load_dump(str(path))
        assert loaded["prov"], "prov records missing from the dump"
        rebuilt = VersionDAG.from_records(loaded["prov"])
        original = VersionDAG().add_events(plane.provenance.events())
        assert set(rebuilt.nodes) == set(original.nodes)

    def test_event_dict_round_trip(self):
        event = ProvEvent(
            at=1.5, host="h", kind="merge", fh="aa", vv="1:2,2:1",
            parents=("1:2", "2:1"), origin="", detail="log[append-log]", trace="a:b",
        )
        assert ProvEvent.from_dict(event.to_dict()) == event


class TestChaosProvenance:
    def test_feeds_of_conflict_on_chaos_produced_conflict(self):
        """Acceptance: the write set of a chaos conflict is exact."""
        from repro.sim import make_topology
        from repro.workload.chaos import _QUIET

        # run_chaos tears its system down, so record seed 11's history and
        # replay it onto a cluster we keep — same seed, same fault schedule
        config = ChaosConfig(record_history=True)
        report = run_chaos(11, config)
        assert report.converged
        assert report.unresolved_conflicts > 0, "seed 11 is expected to conflict"
        system = FicusSystem(
            ["h0", "h1", "h2"],
            daemon_config=_QUIET,
            topology=make_topology("full_mesh", seed=11),
        )
        system.network.faults.reseed(11)
        system.network.faults.set_default(config.faults)
        replay_trace(system, report.history, strict=False)
        system.heal()
        system.network.faults.clear()
        system.network.flush_deferred_datagrams()
        for name in ("h0", "h1", "h2"):
            system.host(name).propagation_daemon.peer_health.reset()
            system.host(name).recon_daemon.peer_health.reset()
        system.reconcile_everything(rounds=5)

        dag = system.provenance_dag()
        conflicted = [fh for fh in dag.file_handles() if len(dag.heads(fh)) >= 2]
        assert conflicted, "replayed seed 11 should hold open conflicts"
        checked = 0
        for fh in conflicted:
            feeds = dag.feeds_of_conflict(fh)
            if not feeds:
                continue  # heads outside ring retention have no feed events
            checked += 1
            branch_vvs = set(feeds)
            for branch, events in feeds.items():
                assert events, f"branch {branch} of {fh} has an empty feed set"
                for event in events:
                    assert event.kind in MINT_KINDS
                    # exactness: the event belongs to THIS branch only —
                    # no event may feed every branch (that would make it
                    # common history, which the glb subtraction removes)
                    assert not all(
                        any(e.vv == event.vv for e in feeds[b]) for b in branch_vvs
                    ), f"{event.vv} feeds every branch: common history leaked"
        assert checked, "no conflicted file retained its feed events"

    def test_replicate_and_verify_is_deterministic(self):
        report = run_chaos(7, ChaosConfig(verify_replication=True))
        assert report.converged, report.problems
        assert report.verify is not None and report.verify.identical
        assert report.verify.ops_replayed + report.verify.ops_failed == len(report.history)

    def test_verify_detects_a_tampered_baseline(self):
        """The byte-diff is not vacuous: corrupt one vv, expect a scream."""
        config = ChaosConfig(record_history=True)
        report = run_chaos(7, config)
        assert report.converged

        from repro.sim import make_topology
        from repro.workload.chaos import _QUIET

        system = FicusSystem(
            ["h0", "h1", "h2"],
            daemon_config=_QUIET,
            topology=make_topology("full_mesh", seed=7),
        )
        system.network.faults.reseed(7)
        system.network.faults.set_default(config.faults)
        replay_trace(system, report.history, strict=False)
        system.heal()
        system.network.faults.clear()
        system.network.flush_deferred_datagrams()
        for name in ("h0", "h1", "h2"):
            system.host(name).propagation_daemon.peer_health.reset()
            system.host(name).recon_daemon.peer_health.reset()
        system.reconcile_everything(rounds=5)
        for _ in range(2):
            for name in ("h0", "h1", "h2"):
                system.host(name).propagation_daemon.tick()

        baseline = state_fingerprint(system)
        tampered = False
        for host in baseline.values():
            for store in host["stores"].values():
                for fh, (contents, vv) in store["files"].items():
                    store["files"][fh] = (contents + b"!tampered", vv)
                    tampered = True
                    break
                if tampered:
                    break
            if tampered:
                break
        assert tampered
        verdict = replicate_and_verify(report.history, 7, config, baseline)
        assert not verdict.identical
        assert any("contents diverged" in p for p in verdict.problems)

    def test_recording_is_transparent(self):
        """A recorded run and a bare run of one seed are byte-identical."""
        bare = run_chaos(23, ChaosConfig())
        recorded = run_chaos(23, ChaosConfig(record_history=True))
        assert bare.converged and recorded.converged
        assert bare.faults_injected == recorded.faults_injected
        assert bare.tree == recorded.tree

    def test_recording_excludes_untraceable_features(self):
        with pytest.raises(ValueError):
            run_chaos(7, ChaosConfig(record_history=True, rename_storm=True))
        with pytest.raises(ValueError):
            run_chaos(7, ChaosConfig(verify_replication=True, crash_prob=0.2))


class TestReplayFidelity:
    def test_replay_mkdir_issues_one_rpc(self):
        """Fail-pre-fix: replaying op=mkdir must not probe path components.

        The replayer used ``makedirs`` for mkdir ops; its per-component
        existence probes consumed extra fault-plane draws, so recorded
        chaos histories replayed onto a *different* fault schedule and
        replicate-and-verify diverged on seeds whose schedule contained a
        mkdir (e.g. 17 and 42).
        """
        system = FicusSystem(["a"], daemon_config=QUIET)
        before = system.network.stats.rpcs_sent
        replay_trace(system, [TraceOp(at=0.0, op="mkdir", host="a", path="/d")])
        mkdir_rpcs = system.network.stats.rpcs_sent - before

        system2 = FicusSystem(["a"], daemon_config=QUIET)
        before = system2.network.stats.rpcs_sent
        system2.host("a").fs().mkdir("/d")
        direct_rpcs = system2.network.stats.rpcs_sent - before
        assert mkdir_rpcs == direct_rpcs

    def test_restart_does_not_leak_datagram_handlers(self):
        """Fail-pre-fix: a restarted host re-registers its datagram
        handlers; the dying stack's registrations must be withdrawn or
        the surviving health plane double-records every notification."""
        def fresh_recv_after_write(restarts: int) -> int:
            system = FicusSystem(["west", "east"], daemon_config=QUIET)
            west = system.host("west").fs()
            west.mkdir("/d")
            system.reconcile_everything()
            east = system.host("east")
            for _ in range(restarts):
                east.crash()
                east.restart(system)
            plane = east.health_plane
            baseline = sum(
                1 for entry in plane.recorder.ring if entry[1] == "notification.recv"
            )
            west.write_file("/d/f", b"after-restarts")
            return (
                sum(1 for e in plane.recorder.ring if e[1] == "notification.recv")
                - baseline
            )

        pristine = fresh_recv_after_write(restarts=0)
        assert pristine > 0
        # a leaked handler stack would multiply the count per reboot
        assert fresh_recv_after_write(restarts=1) == pristine
        assert fresh_recv_after_write(restarts=2) == pristine


class TestStalenessSlo:
    def test_staleness_accrues_and_heals(self):
        system = FicusSystem(["west", "east"])
        west = system.host("west").fs()
        west.mkdir("/d")
        west.write_file("/d/f", b"v1")
        system.reconcile_everything()
        assert system.host("west").health().max_staleness_seconds < 1.0
        system.partition([{"west"}, {"east"}])
        for _ in range(3):
            system.clock.advance(10.0)
            for name in ("west", "east"):
                system.host(name).recon_daemon.tick()
        stale = system.host("west").health().max_staleness_seconds
        assert stale >= 20.0
        system.heal()
        system.reconcile_everything(rounds=4)
        healed = system.host("west").health().max_staleness_seconds
        assert healed < 1.0

    def test_chaos_slo_gate_passes_after_heal(self):
        report = run_chaos(
            7, ChaosConfig(clock_step=1.0, staleness_slo_seconds=60.0)
        )
        assert report.converged, report.problems
        assert report.max_staleness_seconds <= 60.0

    def test_chaos_slo_gate_fires_when_impossible(self, tmp_path):
        """An SLO of 0 must be reported as violated, not silently passed."""
        report = run_chaos(
            7,
            ChaosConfig(clock_step=1.0, staleness_slo_seconds=-1.0),
            dump_dir=str(tmp_path),
        )
        assert any("staleness SLO violated" in p for p in report.problems)


class TestLedgerBounds:
    def test_ring_is_bounded_and_counts_evictions(self):
        from repro.telemetry import ProvenanceLedger

        ledger = ProvenanceLedger("h", capacity=8)
        for i in range(20):
            ledger.record("write", "aa", f"1:{i + 1}", parents=(f"1:{i}",))
        assert len(ledger.ring) == 8
        assert ledger.evicted == 12
