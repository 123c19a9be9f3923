#!/usr/bin/env python3
"""Regenerate the full evaluation in one command.

Prints every experiment table from EXPERIMENTS.md (E1–E21 and the A1–A4
ablations; E19 is a dated record, not a measurement) by invoking the same
measurement code the pytest benchmarks use, rewrites the tracked
BENCH_*.json snapshots at the repository root, and exits 1 if any
snapshot violates its bounds.  No pytest required:

    python benchmarks/report_all.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import bench_attr_cache  # noqa: E402
import bench_delta_sync  # noqa: E402
import bench_health  # noqa: E402
import bench_provenance  # noqa: E402
import bench_resolvers  # noqa: E402
import bench_scale_out  # noqa: E402
import bench_telemetry  # noqa: E402
from bench_layers import STACKS, op_script  # noqa: E402
from bench_open_io import PAPER_EXTRA_IOS, ficus_open_reads, ufs_open_reads  # noqa: E402


def e1_layers() -> None:
    results = {name: op_script(factory()) for name, factory in STACKS.items()}
    baseline = next(iter(results.values()))
    verdict = "identical" if all(r == baseline for r in results.values()) else "DIVERGED"
    print(f"[E1] op-script results across {', '.join(results)}: {verdict}")


def e2_crossing() -> None:
    import time

    from bench_crossing import DEPTHS, make_stack

    samples = {}
    for depth in DEPTHS:
        _, root = make_stack(depth)
        probe = root.lookup("probe")
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(2000):
                probe.getattr()
            best = min(best, (time.perf_counter() - start) / 2000)
        samples[depth] = best
    per_crossing = (samples[max(DEPTHS)] - samples[0]) / max(DEPTHS)
    print(
        f"[E2] layer crossing: base getattr {samples[0] * 1e6:.2f} us, "
        f"per-crossing {per_crossing * 1e6:.2f} us "
        f"({per_crossing / samples[0]:.1%} of base)"
    )


def e3_e4_open_io() -> None:
    ufs_cold, ufs_warm = ufs_open_reads()
    ficus_cold, ficus_warm = ficus_open_reads()
    print(
        f"[E3] cold open: UFS={ufs_cold} reads, Ficus={ficus_cold} reads, "
        f"extra={ficus_cold - ufs_cold} (paper: {PAPER_EXTRA_IOS}, "
        f"+2 batched dir aux, amortized by the attr cache)"
    )
    print(f"[E4] warm open: UFS={ufs_warm} reads, Ficus={ficus_warm} reads (paper: 0 extra)")


def e5_availability() -> None:
    from repro.workload import AvailabilityExperiment

    policies = ["one-copy", "primary-copy", "majority-voting", "weighted-voting", "quorum-consensus"]
    print("[E5] write availability (5 replicas, 120 epochs/point):")
    print(f"  {'p(down)':>8} | " + " | ".join(f"{p:>16}" for p in policies))
    for prob in [0.1, 0.3, 0.5, 0.7, 0.9]:
        results = AvailabilityExperiment(
            num_hosts=5, link_failure_prob=prob, epochs=120, seed=42
        ).run()
        row = " | ".join(f"{results[p].write_availability:>16.3f}" for p in policies)
        print(f"  {prob:>8.1f} | {row}")


def e6_propagation() -> None:
    from bench_propagation import DELAYS, run_with_delay

    print("[E6] propagation delay vs pulls (bursty updates):")
    for delay in DELAYS:
        updates, pulls, copied = run_with_delay(delay)
        print(f"  min_age={delay:>6.1f}s: {updates} updates -> {pulls} pulls ({copied} bytes)")


def e7_commit() -> None:
    from bench_commit import SIZES, insert_file, make_world, point_update_via_shadow

    print("[E7] shadow-commit cost of a 16-byte point update:")
    for size in SIZES:
        _, _, store, root = make_world()
        fh, vnode = insert_file(store, root, "f", size)
        writes = point_update_via_shadow(store, root, fh, vnode.read_all())
        print(f"  file {size >> 10:>5} KiB -> {writes:>5} device writes")


def e8_reconciliation() -> None:
    from bench_reconciliation import QUIET, diverge

    from repro.sim import FicusSystem

    print("[E8] contended files -> reported conflicts:")
    for contended in [0, 2, 5, 10]:
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        diverge(system, creates_per_side=5, shared_conflicts=contended)
        system.reconcile_everything()
        found = len(system.host("a").conflict_log.unresolved())
        print(f"  {contended:>3} contended -> {found:>3} reported")


def e9_grafting() -> None:
    from bench_grafting import NUM_VOLUMES, build_forest

    system, hub = build_forest()
    fs = hub.fs()
    for i in range(NUM_VOLUMES):
        fs.read_file(f"/vol{i}/data")
    print(
        f"[E9] autografting: {hub.logical.grafter.grafts_performed} grafts for "
        f"{NUM_VOLUMES} volumes, {hub.logical.grafter.active_grafts} active"
    )


def e10_overload() -> None:
    from bench_lookup_overload import paper_name_budget

    from repro.ufs import MAX_NAME_LEN

    print(
        f"[E10] name budget: the paper's open/close encoding leaves {paper_name_budget()} of "
        f"{MAX_NAME_LEN} (paper: 'about 200'); this system's limit is {MAX_NAME_LEN} — "
        f"every Ficus operation is an NFS op, none rides a name"
    )


def e11_locality() -> None:
    from bench_locality import SKEWS, replay

    print("[E11] disk reads per open vs Zipf skew (48-block cache):")
    for skew in SKEWS:
        ios, locality = replay(skew)
        print(f"  skew={skew:>5.2f} locality={locality:>5.3f} -> {ios:>6.3f} reads/open")


def e13_scale() -> None:
    from bench_scale import CLUSTER_SIZES, build

    rows = {}
    for n in CLUSTER_SIZES:
        system = build(n)
        fs = system.host("h0").fs()
        fs.write_file("/warm", b"x")
        before = system.network.stats.rpcs_sent
        fs.write_file("/f", b"payload")
        rows[n] = system.network.stats.rpcs_sent - before
    print(f"[E13] RPCs per create+write vs cluster size: {rows}")


def a1_to_a4_ablations() -> None:
    from repro.devel import measure_crossing_penalty
    from repro.storage import BlockDevice
    from repro.ufs import Ufs
    from repro.vnode import UfsLayer

    penalty = measure_crossing_penalty(
        lambda: UfsLayer(Ufs.mkfs(BlockDevice(2048), num_inodes=128)), ops=500
    )
    print(
        f"[A1] address-space crossing: kernel {penalty.kernel_seconds_per_op * 1e6:.1f} us "
        f"vs user-level {penalty.user_seconds_per_op * 1e6:.1f} us ({penalty.factor:.1f}x)"
    )

    from bench_ablations import TestA3NotificationValue

    probe = TestA3NotificationValue()
    fast = probe._staleness(drop_notifications=False)
    slow = probe._staleness(drop_notifications=True)
    print(f"[A3] staleness: with notification {fast:.1f}s, reconciliation-only {slow:.1f}s")

    from bench_ablations import TestA4SessionCoalescing

    coalesce = TestA4SessionCoalescing()
    with_session = coalesce._aux_writes_for_k_writes(True)
    without = coalesce._aux_writes_for_k_writes(False)
    print(f"[A4] 20 appends: {with_session} writes in a session vs {without} bare")


def e14_summary(snap: dict) -> str:
    spans = snap["spans"]
    return (
        f"telemetry: {spans['finished']} spans / {spans['traces']} traces, "
        f"{len(snap['metrics'])} metrics"
    )


def e15_summary(snap: dict) -> str:
    return (
        f"attribute plane: cold selection {snap['cold']['rpcs']} RPCs "
        f"({snap['cold']['rpcs_per_remote_replica']:.1f}/remote replica, "
        f"un-batched would be {snap['unbatched_equivalent_rpcs']}), "
        f"warm {snap['warm']['rpcs']} RPCs; diskless warm ops "
        + ", ".join(f"{op} {n}" for op, n in snap["warm_op_rpcs"].items())
    )


def e16_summary(snap: dict) -> str:
    round_ = snap["no_change_round"]
    delta = snap["delta_propagation"]
    return (
        f"incremental sync: no-change round over {round_['directories']} dirs "
        f"= {round_['rpcs_per_peer']:.0f} RPCs/peer (un-pruned: 2 per directory "
        f"= {2 * round_['directories']}); "
        f"1-block edit of {delta['file_bytes'] >> 10} KiB file copied "
        f"{delta['bytes_copied']} bytes ({delta['reduction_factor']:.0f}x less)"
    )


def e17_summary(snap: dict) -> str:
    scenario = snap["partition_scenario"]
    recorder = snap["flight_recorder"]
    return (
        f"observability plane: partitioned write suspects "
        f"{','.join(scenario['suspected_peers'])}, cleared after recon: "
        f"{scenario['suspicion_cleared_after_recon']}; flight ring "
        f"{recorder['ring_size']}/{recorder['ring_capacity']} entries"
    )


def e18_summary(snap: dict) -> str:
    throughput = snap["throughput"]
    auto = snap["convergence_with_resolvers"]
    manual = snap["convergence_manual_baseline"]
    return (
        f"conflict resolvers: {throughput['auto_resolved']}/"
        f"{throughput['conflicted_files']} covered conflicts cleared in one visit "
        f"({throughput['resolutions_per_sec']:.0f}/s); convergence in "
        f"{auto['rounds_to_convergence']} rounds with 0 open conflicts vs manual "
        f"baseline stuck at {manual['unresolved_conflicts']}"
    )


def e20_summary(snap: dict) -> str:
    gossip = snap["gossip"]
    mesh = snap["full_mesh_baseline"]
    return (
        f"scale-out anti-entropy: {snap['hosts']} hosts, "
        f"{gossip['volumes']} volumes; gossip converged in "
        f"{gossip['rounds_to_converge']} rounds (bound "
        f"{snap['bounds']['rounds_bound']}) at <= "
        f"{gossip['max_host_rpcs_per_round']} RPCs/host/round (bound "
        f"{snap['bounds']['rpc_bound']}); full-mesh baseline peaked at "
        f"{mesh['max_host_rpcs_per_round']} RPCs/host/round "
        f"({snap['load_ratio_full_mesh_over_gossip']:.1f}x gossip)"
    )


def e21_summary(snap: dict) -> str:
    lineage = snap["lineage_scenario"]
    verify = snap["replicate_and_verify"]
    return (
        f"provenance plane: {lineage['versions_ledgered']}/"
        f"{lineage['live_versions']} live versions ledgered, feeds-of-conflict "
        f"exact: {lineage['feeds_of_conflict_exact']}; replicate-and-verify "
        f"seed {verify['seed']}: {verify['ops_replayed']}/{verify['ops_recorded']} "
        f"ops replayed, identical: {verify['replay_identical']}"
    )


#: Every tracked BENCH_*.json at the repository root, one row each: label,
#: file name, summary line / snapshot callable, its kwargs, bounds check.
FAST = {"fast": True}
EXPORTS = (
    ("E14", "BENCH_telemetry.json", e14_summary,
     bench_telemetry.telemetry_snapshot, {}, None),
    ("E15", "BENCH_attr_cache.json", e15_summary,
     bench_attr_cache.attr_cache_snapshot, {}, bench_attr_cache.check_bounds),
    ("E16", "BENCH_delta_sync.json", e16_summary,
     bench_delta_sync.delta_sync_snapshot, {}, bench_delta_sync.check_bounds),
    ("E17", "BENCH_health.json", e17_summary,
     bench_health.health_snapshot, {}, bench_health.check_bounds),
    ("E18", "BENCH_resolvers.json", e18_summary,
     bench_resolvers.resolvers_snapshot, FAST, bench_resolvers.check_bounds),
    ("E20", "BENCH_scale_out.json", e20_summary,
     bench_scale_out.scale_out_snapshot, FAST, bench_scale_out.check_bounds),
    ("E21", "BENCH_provenance.json", e21_summary,
     bench_provenance.provenance_snapshot, {}, bench_provenance.check_bounds),
)


def export_snapshots() -> int:
    """Write every tracked snapshot; returns how many bounds were violated."""
    root = Path(__file__).resolve().parent.parent
    violated = 0
    for label, file_name, summary, snapshot, kwargs, check_bounds in EXPORTS:
        snap = snapshot(**kwargs)
        (root / file_name).write_text(json.dumps(snap, indent=2, sort_keys=True, default=str) + "\n")
        print(f"[{label}] {summary(snap)} -> {file_name}")
        for violation in check_bounds(snap) if check_bounds else ():
            violated += 1
            print(f"  BOUND VIOLATED: {violation}")
        print()
    return violated


def main() -> int:
    print("=" * 72)
    print("Ficus reproduction — full evaluation regeneration")
    print("=" * 72)
    for section in (
        e1_layers,
        e2_crossing,
        e3_e4_open_io,
        e5_availability,
        e6_propagation,
        e7_commit,
        e8_reconciliation,
        e9_grafting,
        e10_overload,
        e11_locality,
        e13_scale,
        a1_to_a4_ablations,
    ):
        section()
        print()
    return 1 if export_snapshots() else 0


if __name__ == "__main__":
    sys.exit(main())
