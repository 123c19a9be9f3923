"""E21: the provenance plane — lineage fidelity and replay verify.

Two claims (the ledger is always on, so its cost is not an A/B here: it
is one bounded-deque append per version, read off the repo benchmark's
``telemetry.self_share``):

* **The DAG tells the truth.**  After a partition conflict and an
  automatic resolve, the composed cross-host DAG holds the invariants
  ARCHITECTURE.md promises: every live ``(fh, vv)`` has a node, the
  merge head has >= 2 parents, and ``feeds_of_conflict`` names exactly
  the per-branch write sets.

* **Schedules replay byte-identically.**  A chaos run's schedule executed
  again on a fresh cluster converges to the same trees, version vectors,
  and provenance ledgers (replicate-and-verify), and every step is
  accounted for: replayed or failed as in the first run.

``provenance_snapshot()`` produces the BENCH_provenance.json payload
that report_all.py writes.  Run directly (``python
benchmarks/bench_provenance.py``) it exits non-zero if any bound is
violated — the CI gate.
"""

import json
import sys

from repro.sim import FicusSystem
from repro.workload.chaos import ChaosConfig, run_chaos

#: the chaos seed replicate-and-verify replays (must stay deterministic)
VERIFY_SEED = 7


def lineage_scenario() -> dict:
    """Conflict + auto-resolve; check the published DAG invariants."""
    system = FicusSystem(["west", "east"])
    system.enable_resolvers()
    west = system.host("west").fs()
    east = system.host("east").fs()
    west.mkdir("/d")
    west.write_file("/d/box.log", b"base\n")
    west.set_merge_policy("/d/box.log", "append-log")
    system.reconcile_everything()

    system.partition([{"west"}, {"east"}])
    west.write_file("/d/box.log", b"base\nwest\n")
    east.write_file("/d/box.log", b"base\neast\n")

    # snapshot the feed sets while the conflict is open
    pre = system.provenance_dag()
    conflicted = [fh for fh in pre.file_handles() if len(pre.heads(fh)) >= 2]
    feeds_exact = False
    if conflicted:
        feeds = pre.feeds_of_conflict(conflicted[0])
        hosts_per_branch = sorted(
            tuple(sorted({e.host for e in events})) for events in feeds.values()
        )
        feeds_exact = hosts_per_branch == [("east",), ("west",)]

    system.heal()
    system.reconcile_everything(rounds=6)
    dag = system.provenance_dag()

    merge_parent_counts = []
    live_versions = 0
    versions_ledgered = 0
    for name in ("west", "east"):
        host = system.host(name)
        for store in host.physical.stores.values():
            for dir_fh in store.all_directory_handles():
                for entry in store.read_entries(dir_fh):
                    fh = entry.fh
                    if not entry.live or store.stored_file(dir_fh, fh) is None:
                        continue
                    vv = store.read_record(fh).vv
                    if not vv:
                        continue
                    live_versions += 1
                    if dag.node(fh.to_hex(), vv.encode()) is not None:
                        versions_ledgered += 1
    for fh in dag.file_handles():
        for node in dag.nodes_for(fh):
            if node.is_merge:
                merge_parent_counts.append(len(node.parents))
    return {
        "conflict_detected": bool(conflicted),
        "feeds_of_conflict_exact": feeds_exact,
        "converged_identical": (
            west.read_file("/d/box.log") == east.read_file("/d/box.log")
        ),
        "open_conflicts_after": system.total_conflicts(),
        "live_versions": live_versions,
        "versions_ledgered": versions_ledgered,
        "every_live_version_has_node": live_versions == versions_ledgered,
        "merge_nodes": len(merge_parent_counts),
        "all_merges_have_2plus_parents": bool(merge_parent_counts)
        and all(n >= 2 for n in merge_parent_counts),
    }


def verify_scenario(seed: int = VERIFY_SEED) -> dict:
    """Run one chaos schedule, then execute it again on a fresh cluster."""
    report = run_chaos(seed, ChaosConfig(verify_replication=True))
    verify = report.verify
    return {
        "seed": seed,
        "converged": report.converged,
        "ops_recorded": len(report.schedule),
        "ops_replayed": verify.ops_replayed if verify else 0,
        # steps that raised at the client, as they did in the first run
        "ops_failed": verify.ops_failed if verify else 0,
        "replay_identical": bool(verify and verify.identical),
        "problems": list(verify.problems) if verify else ["verify did not run"],
    }


def provenance_snapshot() -> dict:
    """The BENCH_provenance.json payload."""
    return {
        "lineage_scenario": lineage_scenario(),
        "replicate_and_verify": verify_scenario(),
    }


def check_bounds(snapshot: dict) -> list[str]:
    """The CI gate: returns a list of violated bounds (empty = pass)."""
    violations = []
    scenario = snapshot["lineage_scenario"]
    for key in (
        "conflict_detected",
        "feeds_of_conflict_exact",
        "converged_identical",
        "every_live_version_has_node",
        "all_merges_have_2plus_parents",
    ):
        if not scenario[key]:
            violations.append(f"lineage scenario: {key} is False")
    if scenario["open_conflicts_after"] != 0:
        violations.append(
            f"lineage scenario left {scenario['open_conflicts_after']} open conflicts"
        )
    verify = snapshot["replicate_and_verify"]
    if not verify["converged"]:
        violations.append(f"chaos seed {verify['seed']} did not converge")
    if verify["ops_replayed"] + verify["ops_failed"] != verify["ops_recorded"]:
        violations.append(
            f"seed {verify['seed']}: {verify['ops_replayed']} replayed + "
            f"{verify['ops_failed']} failed != {verify['ops_recorded']} recorded"
        )
    if not verify["replay_identical"]:
        violations.append(
            f"replicate-and-verify diverged on seed {verify['seed']}: "
            + "; ".join(verify["problems"][:3])
        )
    return violations


class TestShape:
    def test_lineage_scenario_invariants(self):
        scenario = lineage_scenario()
        assert scenario["conflict_detected"]
        assert scenario["feeds_of_conflict_exact"]
        assert scenario["converged_identical"]
        assert scenario["open_conflicts_after"] == 0
        assert scenario["every_live_version_has_node"]
        assert scenario["all_merges_have_2plus_parents"]

    def test_replicate_and_verify_identical(self):
        verify = verify_scenario()
        assert verify["converged"]
        assert verify["replay_identical"], verify["problems"]
        assert verify["ops_replayed"] > 0


def main() -> int:
    snapshot = provenance_snapshot()
    print(json.dumps(snapshot, indent=2, default=str))
    violations = check_bounds(snapshot)
    for violation in violations:
        print(f"BOUND VIOLATED: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
