"""E18: the automatic conflict-resolution subsystem.

Two claims:

* **Resolution throughput.**  The resolver engine merges a
  concurrent-update conflict in one reconciliation visit — read both
  versions, join, shadow-commit — so a backlog of covered conflicts
  clears at wire speed rather than waiting on an owner.  Measured as
  resolutions/second over a batch of conflicted append-logs.

* **Convergence rounds.**  With resolvers enabled, a cluster whose
  covered files all diverged reaches byte-identical replicas with zero
  open conflicts within a bounded number of reconciliation rounds.  The
  manual baseline (same workload, no registry) never gets there on its
  own: the conflicts sit in the log until an owner acts.

``resolvers_snapshot()`` produces the BENCH_resolvers.json payload that
report_all.py writes.  Run directly (``python benchmarks/bench_resolvers.py
--fast``) it sizes the workload down and exits non-zero if a bound is
violated — the CI gate.
"""

import json
import sys
import time

from repro.sim import DaemonConfig, FicusSystem

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)

#: acceptance bounds: every covered conflict must auto-resolve, replicas
#: must be byte-identical within this many post-heal recon rounds, and a
#: conflicted-log backlog must clear faster than an owner plausibly could
CONVERGENCE_ROUND_BOUND = 3
MIN_RESOLUTIONS_PER_SEC = 5.0


def build_conflicted(files: int, resolvers: bool) -> FicusSystem:
    """Two replicas holding ``files`` append-logs, every one conflicted."""
    system = FicusSystem(["a", "b"], daemon_config=QUIET)
    if resolvers:
        system.enable_resolvers()
    fs_a = system.host("a").fs()
    for i in range(files):
        fs_a.write_file(f"/m{i}.log", b"seed\n")
    system.reconcile_everything()
    for name in system.hosts:
        system.host(name).propagation_daemon.tick()
    system.reconcile_everything()  # converged pass retains merge ancestors
    system.partition([{"a"}, {"b"}])
    fs_b = system.host("b").fs()
    for i in range(files):
        fs_a.write_file(f"/m{i}.log", f"seed\nfrom-a-{i}\n".encode())
        fs_b.write_file(f"/m{i}.log", f"seed\nfrom-b-{i}\n".encode())
    system.heal()
    return system


def covered_logs_identical(system: FicusSystem) -> bool:
    """Do all replicas hold byte-identical contents for every *.log file?"""
    per_name: dict[str, set[bytes]] = {}
    for host_name in system.hosts:
        for store in system.host(host_name).physical.stores.values():
            for dir_fh in store.all_directory_handles():
                for entry in store.read_entries(dir_fh):
                    if (
                        entry.live
                        and entry.name.endswith(".log")
                        and store.has_file(dir_fh, entry.fh)
                    ):
                        per_name.setdefault(entry.name, set()).add(
                            store.file_vnode(dir_fh, entry.fh).read_all()
                        )
    return bool(per_name) and all(len(v) == 1 for v in per_name.values())


def measure_throughput(files: int) -> dict:
    """Resolutions/second clearing a backlog of covered conflicts."""
    system = build_conflicted(files, resolvers=True)
    daemon = system.host("a").recon_daemon
    start = time.perf_counter()
    daemon.tick()
    elapsed = time.perf_counter() - start
    resolved = daemon.stats.total_auto_resolved
    return {
        "conflicted_files": files,
        "auto_resolved": resolved,
        "seconds": elapsed,
        "resolutions_per_sec": resolved / elapsed if elapsed else float("inf"),
    }


def measure_convergence(files: int, resolvers: bool, round_cap: int = 8) -> dict:
    """Post-heal recon rounds until identical covered contents (or cap)."""
    system = build_conflicted(files, resolvers=resolvers)
    rounds = None
    for round_index in range(1, round_cap + 1):
        for host_name in sorted(system.hosts):
            host = system.host(host_name)
            host.recon_daemon.tick()
            host.propagation_daemon.tick()
        if covered_logs_identical(system) and system.total_conflicts() == 0:
            rounds = round_index
            break
    return {
        "mode": "resolvers" if resolvers else "manual-baseline",
        "conflicted_files": files,
        "rounds_to_convergence": rounds,  # None: never within the cap
        "round_cap": round_cap,
        "unresolved_conflicts": system.total_conflicts(),
        "auto_resolved": sum(
            system.host(n).recon_daemon.stats.total_auto_resolved for n in system.hosts
        ),
    }


def resolvers_snapshot(fast: bool = False) -> dict:
    """The BENCH_resolvers.json payload."""
    files = 8 if fast else 32
    return {
        "throughput": measure_throughput(files),
        "convergence_with_resolvers": measure_convergence(files, resolvers=True),
        "convergence_manual_baseline": measure_convergence(files, resolvers=False),
    }


def check_bounds(snapshot: dict) -> list[str]:
    """The CI gate: returns a list of violated bounds (empty = pass)."""
    violations = []
    throughput = snapshot["throughput"]
    if throughput["auto_resolved"] != throughput["conflicted_files"]:
        violations.append(
            f"only {throughput['auto_resolved']} of "
            f"{throughput['conflicted_files']} covered conflicts auto-resolved"
        )
    if throughput["resolutions_per_sec"] < MIN_RESOLUTIONS_PER_SEC:
        violations.append(
            f"resolution throughput {throughput['resolutions_per_sec']:.1f}/s "
            f"(bound: >= {MIN_RESOLUTIONS_PER_SEC}/s)"
        )
    auto = snapshot["convergence_with_resolvers"]
    if auto["rounds_to_convergence"] is None:
        violations.append("resolver-enabled run never converged within the round cap")
    elif auto["rounds_to_convergence"] > CONVERGENCE_ROUND_BOUND:
        violations.append(
            f"resolver-enabled convergence took {auto['rounds_to_convergence']} rounds "
            f"(bound: {CONVERGENCE_ROUND_BOUND})"
        )
    if auto["unresolved_conflicts"] != 0:
        violations.append(
            f"{auto['unresolved_conflicts']} covered conflicts left unresolved"
        )
    manual = snapshot["convergence_manual_baseline"]
    if manual["unresolved_conflicts"] == 0:
        violations.append(
            "manual baseline reported no conflicts — the workload stopped conflicting"
        )
    return violations


class TestShape:
    def test_backlog_fully_resolves_in_one_visit(self):
        stats = measure_throughput(files=6)
        assert stats["auto_resolved"] == 6

    def test_resolvers_converge_within_bound(self):
        stats = measure_convergence(files=6, resolvers=True)
        assert stats["rounds_to_convergence"] is not None
        assert stats["rounds_to_convergence"] <= CONVERGENCE_ROUND_BOUND
        assert stats["unresolved_conflicts"] == 0

    def test_manual_baseline_stays_conflicted(self):
        stats = measure_convergence(files=6, resolvers=False, round_cap=4)
        assert stats["rounds_to_convergence"] is None
        assert stats["unresolved_conflicts"] > 0
        assert stats["auto_resolved"] == 0

    def test_fast_snapshot_passes_its_own_gate(self):
        assert check_bounds(resolvers_snapshot(fast=True)) == []


def test_bench_resolution_backlog(benchmark):
    def clear_backlog():
        system = build_conflicted(4, resolvers=True)
        system.host("a").recon_daemon.tick()
        return system

    benchmark(clear_backlog)


def main(argv: list[str]) -> int:
    fast = "--fast" in argv
    snapshot = resolvers_snapshot(fast=fast)
    print(json.dumps(snapshot, indent=2, default=str))
    violations = check_bounds(snapshot)
    for violation in violations:
        print(f"BOUND VIOLATED: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
