"""The automatic conflict-resolution subsystem.

Three layers of coverage: the resolvers as pure semilattice joins
(commutative/associative/idempotent, the determinism contract), the
registry's tag selection, and the full reconciliation path — divergent
replicas healing into byte-identical contents with the conflict log
staying clean for covered types.
"""

import pytest

from repro.physical import ficus_fsck
from repro.recon.conflicts import ConflictKind, ConflictReport
from repro.resolvers import (
    AppendLogResolver,
    ConflictPair,
    KeyValueResolver,
    LwwBlobResolver,
    ResolverError,
    ResolverRegistry,
    ThreeWayBlockResolver,
    default_registry,
)
from repro.sim import DaemonConfig, FicusSystem
from repro.vv import VersionVector

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)

VV_A = VersionVector({1: 2})
VV_B = VersionVector({1: 1, 2: 1})


def pair(local: bytes, remote: bytes, ancestor=None) -> ConflictPair:
    return ConflictPair(
        local=local,
        remote=remote,
        local_vv=VV_A,
        remote_vv=VV_B,
        local_ancestor=ancestor,
        remote_ancestor=ancestor,
    )


def store_bytes(system, host_name: str, name: str) -> list[bytes]:
    """Every stored replica's raw bytes for one file name, per store."""
    out = []
    host = system.host(host_name)
    for store in host.physical.stores.values():
        for dir_fh in store.all_directory_handles():
            for entry in store.read_entries(dir_fh):
                if entry.live and entry.name == name and store.has_file(dir_fh, entry.fh):
                    out.append(store.file_vnode(dir_fh, entry.fh).read_all())
    return out


def find_file(store, name: str):
    for dir_fh in store.all_directory_handles():
        for entry in store.read_entries(dir_fh):
            if entry.live and entry.name == name:
                return dir_fh, entry.fh
    raise AssertionError(f"{name} not stored")


def resolver_system(host_names=("a", "b")):
    system = FicusSystem(list(host_names), daemon_config=QUIET)
    system.enable_resolvers()
    return system


def seed_and_sync(system, path: str, contents: bytes) -> None:
    """Write on the first host, then converge so ancestors are retained."""
    first = sorted(system.hosts)[0]
    system.host(first).fs().write_file(path, contents)
    system.reconcile_everything()
    for name in system.hosts:
        system.host(name).propagation_daemon.tick()
    system.reconcile_everything()  # the converged pass refreshes ancestors


class TestAppendLogResolver:
    r = AppendLogResolver()

    def test_union_of_records(self):
        merged = self.r.merge(pair(b"seed\nalpha\n", b"seed\nbravo\n"))
        assert merged == b"alpha\nbravo\nseed\n"

    def test_commutative(self):
        assert self.r.merge(pair(b"x\ny\n", b"z\n")) == self.r.merge(pair(b"z\n", b"x\ny\n"))

    def test_associative_with_duplicate_lines(self):
        # the counterexample that kills prefix-preserving merges: a
        # repeated record must not make the cascade order observable
        a, b, c = b"x\nx\n", b"x\ny\n", b"y\n"
        left = self.r.merge(pair(self.r.merge(pair(a, b)), c))
        right = self.r.merge(pair(a, self.r.merge(pair(b, c))))
        assert left == right

    def test_idempotent(self):
        once = self.r.merge(pair(b"b\na\n", b"c\n"))
        assert self.r.merge(pair(once, once)) == once

    def test_empty_sides(self):
        assert self.r.merge(pair(b"", b"")) == b""
        assert self.r.merge(pair(b"", b"only\n")) == b"only\n"


class TestKeyValueResolver:
    r = KeyValueResolver()

    def test_per_key_union(self):
        merged = self.r.merge(pair(b"x=1\ny=2\n", b"x=1\nz=3\n"))
        assert merged == b"x=1\ny=2\nz=3\n"

    def test_both_changed_key_takes_max(self):
        merged = self.r.merge(pair(b"x=apple\n", b"x=zebra\n"))
        assert merged == b"x=zebra\n"
        assert merged == self.r.merge(pair(b"x=zebra\n", b"x=apple\n"))

    def test_bare_key_loses_to_assignment(self):
        assert self.r.merge(pair(b"flag\n", b"flag=on\n")) == b"flag=on\n"

    def test_idempotent_with_repeated_keys(self):
        once = self.r.merge(pair(b"k=1\nk=2\n", b"k=0\n"))
        assert once == b"k=2\n"
        assert self.r.merge(pair(once, once)) == once


class TestLwwBlobResolver:
    r = LwwBlobResolver()

    def test_deterministic_winner(self):
        winner = self.r.merge(pair(b"aaa", b"zzz"))
        assert winner in (b"aaa", b"zzz")
        assert self.r.merge(pair(b"zzz", b"aaa")) == winner

    def test_three_way_cascade_elects_one_winner(self):
        a, b, c = b"version-a", b"version-b", b"version-c"
        left = self.r.merge(pair(self.r.merge(pair(a, b)), c))
        right = self.r.merge(pair(a, self.r.merge(pair(b, c))))
        assert left == right


class TestThreeWayBlockResolver:
    r = ThreeWayBlockResolver()

    @staticmethod
    def digests(contents: bytes):
        from repro.physical.wire import content_digest, split_blocks

        return tuple(content_digest(block) for block in split_blocks(contents))

    def test_takes_the_changed_side(self):
        anc = self.digests(b"base")
        assert self.r.merge(pair(b"edited", b"base", ancestor=anc)) == b"edited"
        assert self.r.merge(pair(b"base", b"edited", ancestor=anc)) == b"edited"

    def test_refuses_when_both_changed(self):
        anc = self.digests(b"base")
        with pytest.raises(ResolverError):
            self.r.merge(pair(b"left", b"right", ancestor=anc))

    def test_refuses_without_ancestor(self):
        with pytest.raises(ResolverError):
            self.r.merge(pair(b"left", b"right", ancestor=None))

    def test_refuses_on_ancestor_disagreement(self):
        p = ConflictPair(
            local=b"left",
            remote=b"right",
            local_vv=VV_A,
            remote_vv=VV_B,
            local_ancestor=self.digests(b"one"),
            remote_ancestor=self.digests(b"two"),
        )
        with pytest.raises(ResolverError):
            self.r.merge(p)

    def test_one_side_deleted_tail_block(self):
        from repro.physical.wire import DELTA_BLOCK_SIZE

        base = b"A" * DELTA_BLOCK_SIZE + b"B" * DELTA_BLOCK_SIZE
        anc = self.digests(base)
        truncated = base[:DELTA_BLOCK_SIZE]
        edited = b"X" * DELTA_BLOCK_SIZE + b"B" * DELTA_BLOCK_SIZE
        merged = self.r.merge(pair(truncated, edited, ancestor=anc))
        assert merged == b"X" * DELTA_BLOCK_SIZE


class TestRegistry:
    def test_default_patterns_sniff(self):
        reg = default_registry()
        assert reg.sniff("inbox.log") == "append-log"
        assert reg.sniff("app.properties") == "kv"
        assert reg.sniff("avatar.lww") == "lww"
        assert reg.sniff("doc.3way") == "threeway"
        assert reg.sniff("plain.txt") == ""

    def test_first_pattern_wins(self):
        reg = ResolverRegistry()
        reg.register(AppendLogResolver(), ("*.both",))
        reg.register(KeyValueResolver(), ("*.both",))
        assert reg.sniff("x.both") == "append-log"

    def test_declared_tag_beats_sniffing(self):
        reg = default_registry()
        assert reg.policy_for("inbox.log", local_tag="kv") == "kv"

    def test_disagreeing_tags_select_nothing(self):
        reg = default_registry()
        assert reg.policy_for("inbox.log", local_tag="kv", remote_tag="lww") == ""

    def test_covers(self):
        reg = default_registry()
        assert reg.covers("inbox.log")
        assert reg.covers("anything", tag="lww")
        assert not reg.covers("plain.txt")
        assert not reg.covers("plain.txt", tag="no-such-resolver")


class TestAutomaticResolution:
    def diverge(self, name, local, remote, base=b""):
        system = resolver_system()
        seed_and_sync(system, name, base)
        system.partition([{"a"}, {"b"}])
        system.host("a").fs().write_file(name, local)
        system.host("b").fs().write_file(name, remote)
        system.heal()
        system.reconcile_everything(rounds=4)
        return system

    def test_append_logs_merge_to_record_union(self):
        system = self.diverge("/inbox.log", b"seed\nalpha\n", b"seed\nbravo\n", b"seed\n")
        expected = b"alpha\nbravo\nseed\n"
        assert store_bytes(system, "a", "inbox.log") == [expected]
        assert store_bytes(system, "b", "inbox.log") == [expected]
        assert system.total_conflicts() == 0

    def test_kv_conflict_merges_per_key(self):
        system = self.diverge("/conf.properties", b"x=1\ny=2\n", b"x=1\nz=3\n", b"x=1\n")
        assert store_bytes(system, "a", "conf.properties") == [b"x=1\ny=2\nz=3\n"]
        assert system.total_conflicts() == 0

    def test_lww_blob_converges(self):
        system = self.diverge("/state.lww", b"aaa", b"zzz", b"base")
        (a,) = store_bytes(system, "a", "state.lww")
        (b,) = store_bytes(system, "b", "state.lww")
        assert a == b in (b"aaa", b"zzz")
        assert system.total_conflicts() == 0

    def test_threeway_merges_single_sided_change(self):
        system = self.diverge("/doc.3way", b"edited", b"base", b"base")
        assert store_bytes(system, "a", "doc.3way") == [b"edited"]
        assert store_bytes(system, "b", "doc.3way") == [b"edited"]
        assert system.total_conflicts() == 0

    def test_threeway_both_changed_falls_back_to_manual(self):
        system = self.diverge("/doc.3way", b"LOCAL", b"REMOTE", b"base")
        # both versions preserved, conflict reported to the owner
        assert store_bytes(system, "a", "doc.3way") == [b"LOCAL"]
        assert store_bytes(system, "b", "doc.3way") == [b"REMOTE"]
        assert system.total_conflicts() > 0
        health = system.host("a").health()
        assert health.resolver_fallback_manual >= 1

    def test_uncovered_type_still_goes_to_the_owner(self):
        system = self.diverge("/plain.txt", b"LOCAL", b"REMOTE", b"base")
        assert system.total_conflicts() > 0
        assert store_bytes(system, "a", "plain.txt") == [b"LOCAL"]

    def test_resolved_vv_dominates_both_inputs(self):
        system = self.diverge("/inbox.log", b"seed\na\n", b"seed\nb\n", b"seed\n")
        store = next(iter(system.host("a").physical.stores.values()))
        dir_fh, fh = find_file(store, "inbox.log")
        vv = store.read_file_aux(dir_fh, fh).vv
        entry = system.host("a").health().last_resolutions[-1]
        assert vv.strictly_dominates(VersionVector.decode(entry["local_vv"]))
        assert vv.strictly_dominates(VersionVector.decode(entry["remote_vv"]))

    def test_independent_resolutions_are_byte_identical(self):
        """Opposite hosts resolving the same conflict produce one result."""

        def run(resolving_host):
            system = resolver_system()
            seed_and_sync(system, "/inbox.log", b"seed\n")
            system.partition([{"a"}, {"b"}])
            system.host("a").fs().write_file("/inbox.log", b"seed\nalpha\n")
            system.host("b").fs().write_file("/inbox.log", b"seed\nbravo\n")
            system.heal()
            system.host(resolving_host).recon_daemon.tick()
            return store_bytes(system, resolving_host, "inbox.log")

        assert run("a") == run("b") == [b"alpha\nbravo\nseed\n"]

    def test_third_replica_update_is_not_swallowed(self):
        """A resolution races a concurrent third-replica update: the merged
        vv must not dominate the unseen version, so it surfaces as a fresh
        conflict (and merges too) instead of being silently overwritten."""
        system = resolver_system(("a", "b", "c"))
        seed_and_sync(system, "/inbox.log", b"seed\n")
        system.partition([{"a"}, {"b"}, {"c"}])
        system.host("a").fs().write_file("/inbox.log", b"seed\nalpha\n")
        system.host("b").fs().write_file("/inbox.log", b"seed\nbravo\n")
        system.host("c").fs().write_file("/inbox.log", b"seed\ncharlie\n")
        system.partition([{"a", "b"}, {"c"}])
        system.host("a").recon_daemon.tick()  # a+b resolve while c is away
        system.heal()
        system.reconcile_everything(rounds=5)
        expected = b"alpha\nbravo\ncharlie\nseed\n"
        for host in ("a", "b", "c"):
            assert store_bytes(system, host, "inbox.log") == [expected]
        assert system.total_conflicts() == 0

    def test_resolvers_survive_crash_and_restart(self):
        system = resolver_system()
        registry = system.resolvers
        host = system.host("a")
        host.crash()
        host.restart(system)
        assert host.recon_daemon.resolvers is registry


class TestPolicyTags:
    def test_create_file_declares_policy(self):
        system = resolver_system()
        fs = system.host("a").fs()
        fs.create_file("/notes", b"seed\n", merge_policy="append-log")
        assert fs.merge_policy("/notes") == "append-log"

    def test_declared_policy_propagates_and_resolves(self):
        """A tag on an arbitrary name (no pattern match) rides the aux
        record to the peer and selects the resolver there."""
        system = resolver_system()
        fs_a = system.host("a").fs()
        fs_a.create_file("/notes", b"seed\n", merge_policy="append-log")
        system.reconcile_everything()
        for name in system.hosts:
            system.host(name).propagation_daemon.tick()
        system.reconcile_everything()
        assert system.host("b").fs().merge_policy("/notes") == "append-log"

        system.partition([{"a"}, {"b"}])
        fs_a.write_file("/notes", b"seed\nalpha\n")
        system.host("b").fs().write_file("/notes", b"seed\nbravo\n")
        system.heal()
        system.reconcile_everything(rounds=4)
        assert store_bytes(system, "a", "notes") == [b"alpha\nbravo\nseed\n"]
        assert store_bytes(system, "b", "notes") == [b"alpha\nbravo\nseed\n"]
        assert system.total_conflicts() == 0

    def test_set_merge_policy_on_existing_file(self):
        system = resolver_system()
        fs = system.host("a").fs()
        fs.write_file("/existing", b"seed\n")
        fs.set_merge_policy("/existing", "append-log")
        assert fs.merge_policy("/existing") == "append-log"

    def test_policy_change_propagates_like_an_update(self):
        system = resolver_system()
        fs_a = system.host("a").fs()
        fs_a.write_file("/existing", b"seed\n")
        system.reconcile_everything()
        for name in system.hosts:
            system.host(name).propagation_daemon.tick()
        fs_a.set_merge_policy("/existing", "kv")
        system.reconcile_everything()
        assert system.host("b").fs().merge_policy("/existing") == "kv"


class TestManualResolvePrimitive:
    """``resolve_file_conflict`` edge cases (the owner-driven path)."""

    def conflicted(self):
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        system.host("a").fs().write_file("/f", b"base")
        system.reconcile_everything()
        system.partition([{"a"}, {"b"}])
        system.host("a").fs().write_file("/f", b"version A")
        system.host("b").fs().write_file("/f", b"version B")
        system.heal()
        system.reconcile_everything()
        return system

    def test_empty_chosen_contents(self):
        system = self.conflicted()
        host = system.host("a")
        report = host.conflict_log.unresolved()[0]
        host.fs().resolve_conflict(report, b"", host.conflict_log)
        system.reconcile_everything()
        assert store_bytes(system, "a", "f") == [b""]
        assert store_bytes(system, "b", "f") == [b""]
        assert not host.conflict_log.unresolved()

    def test_resolution_racing_concurrent_third_replica_update(self):
        """Resolving from stale observations must not swallow a third
        replica's concurrent version: the conflict log keeps the episode
        open until a genuinely superseding version lands."""
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        system.host("a").fs().write_file("/f", b"base")
        system.reconcile_everything()
        for name in system.hosts:
            system.host(name).propagation_daemon.tick()
        system.partition([{"a"}, {"b"}, {"c"}])
        system.host("a").fs().write_file("/f", b"version A")
        system.host("b").fs().write_file("/f", b"version B")
        system.host("c").fs().write_file("/f", b"version C")
        system.partition([{"a", "b"}, {"c"}])
        system.host("a").recon_daemon.tick()
        host = system.host("a")
        report = host.conflict_log.unresolved()[0]
        # resolve a-vs-b while c's concurrent write is still unseen
        host.fs().resolve_conflict(report, b"A+B", host.conflict_log)
        system.heal()
        system.reconcile_everything(rounds=5)
        # c's version was not silently overwritten: the collision with the
        # resolution surfaced as a new conflict for the owner
        open_reports = [
            r
            for h in system.hosts
            for r in system.host(h).conflict_log.unresolved()
            if r.name == "f"
        ]
        assert open_reports
        contents = {
            bytes(b) for h in system.hosts for b in store_bytes(system, h, "f")
        }
        assert b"version C" in contents or b"A+B" in contents

    def test_resolution_during_partition_healing_mid_commit(self):
        """A crash between shadow write and commit leaves an orphan shadow;
        recovery scavenges it and the conflict stays open for a retry."""
        system = self.conflicted()
        host = system.host("a")
        store = next(iter(host.physical.stores.values()))
        dir_fh, fh = find_file(store, "f")
        report = host.conflict_log.unresolved()[0]
        # the owner starts a resolution: shadow written, commit never runs
        shadow = store.shadow_vnode(dir_fh, fh, create=True)
        shadow.truncate(0)
        shadow.write(0, b"half-committed")
        host.crash()
        host.restart(system)
        store = next(iter(host.physical.stores.values()))
        assert store.scavenge_shadows(dir_fh) == 0  # recovery already swept
        assert store.file_vnode(dir_fh, fh).read_all() == b"version A"
        # the retry goes through cleanly after the heal; the crash left
        # the peer-health tracker suspicious of `a`, so reset it the way
        # the operator playbook (and the chaos harness) does
        host.fs().resolve_conflict(report, b"A + B merged", host.conflict_log)
        for name in system.hosts:
            system.host(name).recon_daemon.peer_health.reset()
        system.reconcile_everything(rounds=4)
        assert store_bytes(system, "b", "f") == [b"A + B merged"]


class TestFsckResolutionAudit:
    def make_store(self):
        system = resolver_system()
        seed_and_sync(system, "/inbox.log", b"seed\n")
        host = system.host("a")
        store = next(iter(host.physical.stores.values()))
        dir_fh, fh = find_file(store, "inbox.log")
        return system, host, store, dir_fh, fh

    def synthetic_report(self, store, dir_fh, fh, resolved):
        return ConflictReport(
            kind=ConflictKind.FILE_UPDATE,
            volume=store.volume,
            parent_fh=dir_fh,
            fh=fh.logical,
            name="inbox.log",
            local_vv=VersionVector({1: 99}),
            remote_vv=VersionVector({2: 99}),
            remote_host="b",
            detected_at=0.0,
            resolved=resolved,
        )

    def test_bogus_resolved_mark_is_flagged(self):
        system, host, store, dir_fh, fh = self.make_store()
        host.conflict_log._reports.append(
            self.synthetic_report(store, dir_fh, fh, resolved=True)
        )
        report = ficus_fsck(store, conflict_log=host.conflict_log)
        assert any("does not strictly dominate" in p for p in report.problems)

    def test_unresolved_covered_file_is_flagged(self):
        system, host, store, dir_fh, fh = self.make_store()
        host.conflict_log._reports.append(
            self.synthetic_report(store, dir_fh, fh, resolved=False)
        )
        report = ficus_fsck(
            store, conflict_log=host.conflict_log, resolvers=system.resolvers
        )
        assert any("sits unresolved" in p for p in report.problems)
        # without a registry the same log passes the audit
        assert ficus_fsck(store, conflict_log=host.conflict_log).clean

    def test_genuine_resolution_passes_the_audit(self):
        system = resolver_system()
        seed_and_sync(system, "/inbox.log", b"seed\n")
        system.partition([{"a"}, {"b"}])
        system.host("a").fs().write_file("/inbox.log", b"seed\na\n")
        system.host("b").fs().write_file("/inbox.log", b"seed\nb\n")
        system.heal()
        system.reconcile_everything(rounds=4)
        for name in system.hosts:
            host = system.host(name)
            for store in host.physical.stores.values():
                assert ficus_fsck(
                    store, conflict_log=host.conflict_log, resolvers=system.resolvers
                ).clean


class TestObservability:
    def resolved_system(self):
        system = resolver_system()
        seed_and_sync(system, "/inbox.log", b"seed\n")
        system.partition([{"a"}, {"b"}])
        system.host("a").fs().write_file("/inbox.log", b"seed\nalpha\n")
        system.host("b").fs().write_file("/inbox.log", b"seed\nbravo\n")
        system.heal()
        system.reconcile_everything(rounds=4)
        return system

    def resolving_host(self, system):
        for name in sorted(system.hosts):
            if system.host(name).health().resolver_auto_resolved:
                return system.host(name)
        raise AssertionError("no host auto-resolved")

    def test_health_surfaces_resolution_counters(self):
        host = self.resolving_host(self.resolved_system())
        health = host.health()
        assert health.resolver_auto_resolved >= 1
        assert health.resolver_fallback_manual == 0
        entry = health.last_resolutions[-1]
        assert entry["name"] == "inbox.log"
        assert entry["tag"] == "append-log"
        assert entry["local_vv"] and entry["remote_vv"] and entry["resolved_vv"]

    def test_op_ring_records_both_input_vvs(self):
        host = self.resolving_host(self.resolved_system())
        ops = [
            op
            for op in host.health_plane.recorder.ring
            if op[1] == "conflict_auto_resolved"
        ]
        assert ops
        entry = host.health().last_resolutions[-1]
        assert entry["local_vv"] in ops[-1][2] and entry["remote_vv"] in ops[-1][2]

    def test_telemetry_counters(self):
        from repro.telemetry import Telemetry

        system = FicusSystem(["a", "b"], daemon_config=QUIET, telemetry=Telemetry())
        system.enable_resolvers()
        seed_and_sync(system, "/inbox.log", b"seed\n")
        system.partition([{"a"}, {"b"}])
        system.host("a").fs().write_file("/inbox.log", b"seed\nalpha\n")
        system.host("b").fs().write_file("/inbox.log", b"seed\nbravo\n")
        system.heal()
        system.reconcile_everything(rounds=4)
        # one hub serves the deployment: the view adds every host's plane
        assert system.telemetry.metrics.get("resolver.auto_resolved").value == sum(
            system.host(n).health_plane.resolver_auto_resolved for n in system.hosts
        ) >= 1

    def test_ficus_top_renders_resolver_column(self):
        from repro.tools.ficus_top import render_health_table

        system = self.resolved_system()
        table = render_health_table([system.host(n).health() for n in sorted(system.hosts)])
        assert "resolved" in table.splitlines()[0]
        assert any("+0m" in line for line in table.splitlines()[2:])


class TestChaosWithResolvers:
    def test_small_resolver_chaos_run_converges(self):
        from repro.workload.chaos import ChaosConfig, run_chaos

        report = run_chaos(42, ChaosConfig(rounds=4, ops_per_round=3, resolvers=True))
        assert report.converged, report.problems

    def test_resolver_gate_keeps_legacy_schedules_identical(self):
        from repro.workload.chaos import ChaosConfig, run_chaos

        before = run_chaos(17, ChaosConfig(rounds=3, ops_per_round=3))
        again = run_chaos(17, ChaosConfig(rounds=3, ops_per_round=3))
        assert before.ops_attempted == again.ops_attempted
        assert before.tree == again.tree
        assert before.faults_injected == again.faults_injected
