"""Telemetry: the export snapshot of one standard cross-host workload.

``telemetry_snapshot()`` is the full export (span/trace totals and every
metric) — what ``report_all.py`` serializes into
``BENCH_telemetry.json``.  What instrumentation costs is not measured
here: the repo benchmark reports it per layer (``telemetry.self_share``,
``trace.overhead_ratio`` in ``benchmarks/e2e``); the two pytest benchmarks
below only time one op with the opt-in hub off and on.
"""

import json

from repro.sim import DaemonConfig, FicusSystem
from repro.telemetry import Telemetry

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


def run_workload(telemetry: Telemetry | None = None) -> FicusSystem:
    """The standard two-host scenario: update, partition, heal, pull."""
    system = FicusSystem(["west", "east"], telemetry=telemetry)
    west = system.host("west").fs()
    west.write_file("/a.txt", b"before the partition")
    system.run_for(30.0)
    system.partition([{"west"}, {"east"}])
    west.write_file("/a.txt", b"updated during the partition")
    west.write_file("/b.txt", b"created during the partition")
    system.heal()
    system.run_for(120.0)
    system.reconcile_everything()
    return system


def telemetry_snapshot() -> dict:
    """The BENCH_telemetry.json payload: one instrumented workload, exported."""
    system = run_workload(telemetry=Telemetry())
    hub = system.telemetry
    tracer = hub.tracer
    spans = list(tracer.finished)
    return {
        "workload": "two-host update/partition/heal/pull (virtual time)",
        "spans": {
            "finished": len(spans),
            "traces": len(tracer.trace_ids()),
            "dropped": tracer.dropped,
            "by_layer": _count_by(spans, "layer"),
            "by_host": _count_by(spans, "host"),
        },
        "metrics": hub.metrics.snapshot(),
    }


def _count_by(spans, attr: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for span in spans:
        key = getattr(span, attr) or "-"
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def _steady_state_fs(telemetry: Telemetry | None):
    """A warmed single-host fs, optionally instrumented."""
    system = FicusSystem(["solo"], daemon_config=QUIET, telemetry=telemetry)
    fs = system.host("solo").fs()
    fs.write_file("/f", b"warm")
    return fs


class TestShape:
    def test_snapshot_covers_every_signal(self):
        snap = telemetry_snapshot()
        assert snap["spans"]["finished"] > 0
        assert {"west", "east"} <= set(snap["spans"]["by_host"])
        assert {"logical", "physical", "nfs-client", "nfs-server"} <= set(
            snap["spans"]["by_layer"]
        )
        # what was sent, lost, heard and pulled: each counted once, here
        for name in (
            "logical.notifications_sent",
            "net.datagrams_lost",
            "physical.notifications_received",
            "propagation.pulls_attempted",
        ):
            assert snap["metrics"][name]["value"] >= 1, name

    def test_disabled_hub_leaves_no_residue(self):
        system = run_workload(telemetry=None)
        assert len(system.telemetry.metrics) == 0
        assert len(system.telemetry.tracer.finished) == 0


def test_bench_write_read_telemetry_off(benchmark):
    fs = _steady_state_fs(None)

    def op():
        fs.write_file("/f", b"x" * 64)
        return fs.read_file("/f")

    benchmark(op)


def test_bench_write_read_telemetry_on(benchmark):
    fs = _steady_state_fs(Telemetry(max_spans=1000))

    def op():
        fs.write_file("/f", b"x" * 64)
        return fs.read_file("/f")

    benchmark(op)


if __name__ == "__main__":
    print(json.dumps(telemetry_snapshot(), indent=2, sort_keys=True))
