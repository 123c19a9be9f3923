"""E17: the consistency observability plane tells the truth.

A write during a partition raises divergence suspicion for the
unreachable replica hosts immediately; a completed reconciliation round
after heal clears it.  The flight ring stays bounded no matter how many
operations run, and an anomaly dump renders offline through ``ficus_top``.

The plane is always on, so there is no plane-off run to compare a cost
against: what the hooks cost is read off the repo benchmark's
``telemetry.self_share`` (``benchmarks/e2e``, ``--trace 1``).

``health_snapshot()`` produces the BENCH_health.json payload that
report_all.py writes.  Run directly (``python benchmarks/bench_health.py``)
it exits non-zero if any bound is violated — the CI gate.
"""

import json
import sys
import tempfile

from repro.sim import DaemonConfig, FicusSystem
from repro.telemetry import FLIGHT_RING_CAPACITY

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


def partition_scenario() -> dict:
    """Suspicion raised by a partitioned write, cleared by reconciliation."""
    system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
    fs = system.host("a").fs()
    fs.write_file("/doc", b"agreed")
    system.reconcile_everything()

    system.partition([{"a"}, {"b", "c"}])
    fs.write_file("/doc", b"partitioned edit")
    during = system.host("a").health()
    raised = during.divergence_suspected
    suspected_peers = sorted(
        {peer for peers in during.suspected.values() for peer in peers}
    )
    flagged_read = fs.read_file_checked("/doc").divergence_suspected

    system.heal()
    system.reconcile_everything()
    after = system.host("a").health()
    cleared = not after.divergence_suspected
    clean_read = not fs.read_file_checked("/doc").divergence_suspected
    return {
        "suspicion_raised_during_partition": raised,
        "suspected_peers": suspected_peers,
        "checked_read_flagged": flagged_read,
        "suspicion_cleared_after_recon": cleared,
        "checked_read_clean_after_recon": clean_read,
    }


def recorder_scenario(ops: int = FLIGHT_RING_CAPACITY + 44) -> dict:
    """The flight ring stays bounded; an anomaly dump renders offline."""
    from repro.tools.ficus_top import render_dump

    system = FicusSystem(["solo"], daemon_config=QUIET)
    fs = system.host("solo").fs()
    for i in range(ops):
        fs.write_file("/f", b"x")
    plane = system.host("solo").health_plane
    ring_size = len(plane.recorder.ring)

    with tempfile.TemporaryDirectory() as tmp:
        plane.recorder.dump_dir = tmp
        plane.anomaly("pull_digest_mismatch", fh="synthetic", block=0)
        rendered = render_dump(plane.recorder.dump_paths[-1])
    return {
        "ops_recorded": ops * 4,  # open/truncate/write/close per write_file
        "ring_capacity": FLIGHT_RING_CAPACITY,
        "ring_size": ring_size,
        "ring_bounded": ring_size <= FLIGHT_RING_CAPACITY,
        "dump_renders": "pull_digest_mismatch" in rendered,
    }


def health_snapshot() -> dict:
    """The BENCH_health.json payload."""
    return {
        "partition_scenario": partition_scenario(),
        "flight_recorder": recorder_scenario(),
    }


def check_bounds(snapshot: dict) -> list[str]:
    """The CI gate: returns a list of violated bounds (empty = pass)."""
    violations = []
    scenario = snapshot["partition_scenario"]
    for key in (
        "suspicion_raised_during_partition",
        "checked_read_flagged",
        "suspicion_cleared_after_recon",
        "checked_read_clean_after_recon",
    ):
        if not scenario[key]:
            violations.append(f"partition scenario: {key} is False")
    recorder = snapshot["flight_recorder"]
    if not recorder["ring_bounded"]:
        violations.append(f"flight ring grew to {recorder['ring_size']} entries")
    if not recorder["dump_renders"]:
        violations.append("flight-recorder dump did not render offline")
    return violations


class TestShape:
    def test_partition_scenario_gauges(self):
        scenario = partition_scenario()
        assert scenario["suspicion_raised_during_partition"]
        assert scenario["suspected_peers"] == ["b", "c"]
        assert scenario["checked_read_flagged"]
        assert scenario["suspicion_cleared_after_recon"]
        assert scenario["checked_read_clean_after_recon"]

    def test_flight_ring_bounded_and_dump_renders(self):
        recorder = recorder_scenario()
        assert recorder["ring_size"] == FLIGHT_RING_CAPACITY
        assert recorder["dump_renders"]


def main() -> int:
    snapshot = health_snapshot()
    print(json.dumps(snapshot, indent=2, default=str))
    violations = check_bounds(snapshot)
    for violation in violations:
        print(f"BOUND VIOLATED: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
