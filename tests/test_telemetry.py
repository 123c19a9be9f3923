"""Telemetry subsystem: tracing, metrics, and cross-host propagation.

The headline assertion mirrors the paper's layering claim (Section 1,
"performance monitoring" as a stackable service): one cross-host update —
open, write, notify, pull — must yield a *single* trace tree whose spans
live in the logical, NFS, and physical layers on at least two hosts.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.physical import ReplicaStore
from repro.sim import DaemonConfig, FicusSystem
from repro.storage import BlockDevice
from repro.telemetry import (
    NULL_SPAN,
    NULL_TELEMETRY,
    MetricsRegistry,
    Telemetry,
    Tracer,
)
from repro.telemetry.export import chrome_trace_json, spans_to_jsonl, summary
from repro.ufs import Ufs
from repro.util import VolumeId, VolumeReplicaId
from repro.vnode import UfsLayer


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


class TestTracer:
    def test_nesting_via_active_stack(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", layer="logical", host="a") as outer:
            with tracer.span("inner", layer="physical", host="a") as inner:
                assert inner.span.parent_id == outer.span.span_id
                assert inner.span.trace_id == outer.span.trace_id
        outer_span, inner_span = tracer.roots(outer.span.trace_id)[0], inner.span
        assert tracer.children_of(outer_span) == [inner_span]

    def test_siblings_share_a_parent_not_each_other(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root") as root:
            with tracer.span("first") as first:
                pass
            with tracer.span("second") as second:
                pass
        assert first.span.parent_id == root.span.span_id
        assert second.span.parent_id == root.span.span_id
        assert len(tracer.children_of(root.span)) == 2

    def test_separate_roots_get_separate_traces(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            pass
        assert len(tracer.trace_ids()) == 2

    def test_explicit_parent_beats_the_stack(self):
        """A deserialized wire context must win over local nesting — that
        is what joins an RPC server span to the *caller's* trace."""
        tracer = Tracer(clock=FakeClock())
        with tracer.span("remote-origin") as origin:
            wire_ctx = origin.context
        with tracer.span("unrelated-local"):
            with tracer.span("server-side", parent=wire_ctx) as joined:
                assert joined.span.trace_id == wire_ctx.trace_id
                assert joined.span.parent_id == wire_ctx.span_id

    def test_exception_marks_error_and_unwinds(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("failing"):
                    raise ValueError("boom")
        failing = next(s for s in tracer.finished if s.name == "failing")
        assert failing.status == "error"
        assert failing.tags["error"] == "ValueError"
        assert tracer.active_depth == 0

    def test_retention_is_bounded(self):
        tracer = Tracer(clock=FakeClock(), max_spans=10)
        for i in range(25):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished) == 10
        assert tracer.dropped == 15
        assert tracer.finished[0].name == "s15"  # oldest evicted first

    def test_timestamps_come_from_the_bound_clock(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("timed") as sp:
            pass
        assert sp.span.start == 1.0
        assert sp.span.end == 2.0
        assert sp.span.duration == 1.0


class TestTraceContext:
    @pytest.mark.parametrize(
        "payload",
        [None, "junk", 42, {}, {"trace_id": "xyz-not-hex"}, {"trace_id": "1"}, {"span_id": "2"}],
    )
    def test_malformed_wire_never_raises(self, payload):
        """A parent that arrives in a protocol field (an RPC's ``ctx.trace``,
        a notification's ``trace``) and is no TraceContext is ignored: the
        span starts a trace of its own instead of raising."""
        tracer = Tracer(clock=FakeClock())
        with tracer.span("remote-origin"):
            pass
        with tracer.span("server-side", parent=payload) as sp:
            pass
        assert sp.span.parent_id is None
        assert len(tracer.trace_ids()) == 2


class _Stats:
    def __init__(self) -> None:
        self.c = 0
        self.label = "not a number"
        self._private = 9


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        stats, levels = _Stats(), {"g": 2.5}
        registry.add_source("s", stats)
        registry.add_source("s", lambda: {"c": 1})
        registry.add_source("lvl", levels, kind="gauge")
        stats.c += 4
        levels["g"] -= 0.5
        # read at call time, same-named sources summed, only public numbers
        assert registry.get("s.c").value == 5
        assert registry.get("lvl.g").value == 2.0
        assert (registry.get("s.c").kind, registry.get("lvl.g").kind) == ("counter", "gauge")
        assert registry.names() == ["lvl.g", "s.c"]

    def test_snapshot_is_serializable(self):
        registry = MetricsRegistry()
        registry.add_source("a", {"n": 1})
        registry.add_source("b", {"level": 0.5}, kind="gauge")
        assert json.loads(json.dumps(registry.snapshot())) == {
            "a.n": {"kind": "counter", "value": 1},
            "b.level": {"kind": "gauge", "value": 0.5},
        }

    def test_disabled_registry_registers_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.add_source("c", {"n": 100})
        registry.add_source("g", lambda: {"level": 7}, kind="gauge")
        assert len(registry) == 0
        assert registry.snapshot() == {}
        assert registry.get("c.n") is None


QUICK = DaemonConfig(propagation_period=5.0, recon_period=None, graft_prune_period=None)


def _cross_host_workload() -> FicusSystem:
    system = FicusSystem(["west", "east"], telemetry=Telemetry(), daemon_config=QUICK)
    system.host("west").fs().write_file("/f.txt", b"cross-host payload")
    system.run_for(60.0)  # let the notification land and east's daemon pull
    return system


class TestCrossHostTrace:
    """The acceptance criterion: one update -> one tree over >=2 hosts."""

    def test_single_trace_tree_spans_layers_and_hosts(self):
        system = _cross_host_workload()
        tracer = system.telemetry.tracer
        root = next(s for s in tracer.finished if s.name == "fs.write_file")
        spans = tracer.spans(root.trace_id)
        names = {s.name for s in spans}
        layers = {s.layer for s in spans}
        hosts = {s.host for s in spans}
        assert "propagation.pull" in names  # the async continuation joined
        assert {"fs", "logical", "physical", "nfs-client", "nfs-server", "daemon"} <= layers
        assert {"west", "east"} <= hosts
        # east's pull fetched from west over NFS *within the same trace*
        assert any(s.layer == "nfs-client" and s.host == "east" for s in spans)
        assert any(s.layer == "nfs-server" and s.host == "west" for s in spans)

    def test_the_trace_is_a_well_formed_tree(self):
        system = _cross_host_workload()
        tracer = system.telemetry.tracer
        root = next(s for s in tracer.finished if s.name == "fs.write_file")
        spans = tracer.spans(root.trace_id)
        ids = {s.span_id for s in spans}
        orphans = [s for s in spans if s.parent_id is not None and s.parent_id not in ids]
        assert not orphans  # every parent reference resolves inside the trace
        assert [s for s in spans if s.parent_id is None] == [root]

    def test_pull_span_parented_across_the_datagram(self):
        system = _cross_host_workload()
        tracer = system.telemetry.tracer
        pull = next(s for s in tracer.finished if s.name == "propagation.pull")
        parent = next(s for s in tracer.finished if s.span_id == pull.parent_id)
        assert parent.host == "west"  # joined to the *originating* host's span
        assert pull.host == "east"
        assert pull.tags["outcome"] == "pulled"

    def test_events_and_metrics_recorded_alongside(self):
        system = _cross_host_workload()
        # each fact the deleted event log counted has one home in the registry
        metrics = system.telemetry.metrics
        assert metrics.get("logical.notifications_sent").value >= 1
        assert metrics.get("physical.notifications_received").value >= 1
        assert metrics.get("propagation.pulls_attempted").value >= 1
        assert metrics.get("propagation.pulls_succeeded").value >= 1

    def test_chrome_trace_export_is_valid_json_with_both_hosts(self):
        system = _cross_host_workload()
        doc = json.loads(chrome_trace_json(system.telemetry.tracer.finished))
        process_names = {
            e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
        }
        assert {"west", "east"} <= process_names
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete and all(e["dur"] >= 0 for e in complete)

    def test_jsonl_and_summary_exports(self):
        system = _cross_host_workload()
        lines = spans_to_jsonl(system.telemetry.tracer.finished).splitlines()
        assert all("name" in json.loads(line) for line in lines)
        digest = summary(system.telemetry)
        assert "spans:" in digest and "metrics:" in digest


class TestDisabledOverhead:
    """A system built without a hub must leave no telemetry footprint."""

    def test_default_system_shares_the_inert_null_hub(self):
        system = FicusSystem(["solo"], daemon_config=QUICK)
        assert system.telemetry is NULL_TELEMETRY
        fs = system.host("solo").fs()
        fs.write_file("/f", b"x")
        fs.read_file("/f")
        system.run_for(30.0)
        assert len(NULL_TELEMETRY.tracer.finished) == 0
        assert len(NULL_TELEMETRY.metrics) == 0

    def test_disabled_tracer_returns_the_shared_null_span(self):
        tracer = Tracer(enabled=False)
        sp = tracer.span("anything", layer="logical", host="a")
        assert sp is NULL_SPAN
        assert sp.context is None
        with sp as inner:
            inner.set_tag("k", "v")  # must be a silent no-op
        assert tracer.current_context() is None

    def test_null_hub_clock_binding_is_inert(self):
        """bind_clock on the disabled hub must not capture per-system
        clocks — the singleton outlives every FicusSystem."""
        before = NULL_TELEMETRY.tracer._clock
        FicusSystem(["a"])
        assert NULL_TELEMETRY.tracer._clock is before


def _bench_workload(hub: Telemetry) -> FicusSystem:
    """``bench_telemetry.run_workload``: two hosts, update, partition, heal, pull."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_telemetry.py"
    spec = importlib.util.spec_from_file_location("bench_telemetry", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run_workload(telemetry=hub)


def _total(objects) -> dict[str, float]:
    """Field-by-field sum of stats objects (or dicts), numbers only."""
    out: dict[str, float] = {}
    for obj in objects:
        for field, value in (obj if isinstance(obj, dict) else vars(obj)).items():
            if type(value) in (int, float):
                out[field] = out.get(field, 0) + value
    return out


def _health_gauges(system: FicusSystem) -> dict[str, int]:
    out = {}
    for name, host in system.hosts.items():
        health = host.health()
        out[f"divergence_suspected.{name}"] = sum(len(p) for p in health.suspected.values())
        out[f"notes_pending.{name}"] = host.health_plane.notes_pending
        for peer, ticks in health.staleness_ticks.items():
            out[f"staleness_ticks.{name}.{peer}"] = ticks
    return out


#: metric prefix -> the home of its numbers, read straight off the live
#: objects the e2e benchmark and the tools read (never through the registry)
VIEWED = {
    "net": lambda s: {
        **_total([s.network.stats]),
        "rpc_bytes_sent": sum(p.bytes_sent for p in s.network.stats.per_peer.values()),
        "rpc_bytes_received": sum(p.bytes_received for p in s.network.stats.per_peer.values()),
    },
    "net.faults": lambda s: s.network.faults.injected,
    "logical": lambda s: {
        "notifications_sent": sum(h.logical.notifications_sent for h in s.hosts.values()),
        "degraded_skips": sum(h.logical.degraded_skips for h in s.hosts.values()),
    },
    "logical.attr_cache": lambda s: _total(h.logical.attr_cache.stats for h in s.hosts.values()),
    "graft": lambda s: {
        "performed": sum(h.logical.grafter.grafts_performed for h in s.hosts.values()),
        "pruned": sum(h.logical.grafter.grafts_pruned for h in s.hosts.values()),
    },
    "propagation": lambda s: _total(h.propagation_daemon.stats for h in s.hosts.values()),
    "recon": lambda s: {
        **_total(
            [h.recon_daemon.stats for h in s.hosts.values()]
            + [
                {**vars(r), "aborted_by_partition": int(r.aborted_by_partition)}
                for h in s.hosts.values()
                for r in h.recon_daemon.stats.results
            ]
        ),
        "conflicts_reported": sum(len(h.conflict_log) for h in s.hosts.values()),
    },
    "health": _health_gauges,
    "health.anomaly": lambda s: _total(h.health_plane.anomaly_counts for h in s.hosts.values()),
    "resolver": lambda s: {
        "auto_resolved": sum(h.health().resolver_auto_resolved for h in s.hosts.values()),
        "fallback_manual": sum(h.health().resolver_fallback_manual for h in s.hosts.values()),
    },
    "store": lambda s: _total(
        store.stats for h in s.hosts.values() for store in h.physical.stores.values()
    ),
    "physical": lambda s: {
        "notifications_received": sum(h.physical.notifications_received for h in s.hosts.values()),
    },
    "nfs": lambda s: {
        "retries": sum(m.retries for h in s.hosts.values() for m in h.fabric._mounts.values()),
    },
}

#: names the registry holds itself rather than views: none
HELD: set[str] = set()


def _expected(system: FicusSystem, prefix: str) -> dict[str, float]:
    return {f"{prefix}.{field}": value for field, value in VIEWED[prefix](system).items()}


class TestMetricsAreViews:
    """A viewed metric is read off the stats object it names at snapshot
    time, so it cannot drift from it the way a hand-written mirror could."""

    @pytest.fixture(scope="class")
    def system(self):
        return _bench_workload(Telemetry())

    @pytest.mark.parametrize("prefix", sorted(VIEWED))
    def test_every_viewed_metric_equals_its_stats_field(self, system, prefix):
        snapshot = system.telemetry.metrics.snapshot()
        expected = _expected(system, prefix)
        assert expected or prefix in ("net.faults", "health.anomaly")
        assert {name: snapshot[name]["value"] for name in expected} == expected

    def test_snapshot_holds_nothing_but_views_and_the_held_few(self, system):
        names = set(system.telemetry.metrics.snapshot())
        viewed = {name for prefix in VIEWED for name in _expected(system, prefix)}
        assert viewed <= names
        assert names - viewed <= HELD

    def test_a_later_snapshot_moves_with_no_call_site_help(self, system):
        metrics = system.telemetry.metrics
        before = metrics.snapshot()
        system.host("west").fs().write_file("/later.txt", b"more work")
        system.run_for(30.0)
        after = metrics.snapshot()
        for name in ("net.rpcs_sent", "logical.notifications_sent", "propagation.pulls_succeeded"):
            assert after[name]["value"] > before[name]["value"], name
        assert after["net.rpcs_sent"]["value"] == system.network.stats.rpcs_sent

    def test_reset_zeroes_what_the_hub_holds_and_views_keep_reading(self):
        system = _bench_workload(Telemetry())
        hub, stats = system.telemetry, system.network.stats
        in_place = hub.metrics.get("store.records_in_place").value
        assert hub.tracer.finished and in_place > 0
        hub.reset()
        # the hub holds spans only; what it views is the components' live
        # state, which a hub reset does not own
        assert len(hub.tracer.finished) == 0
        assert hub.metrics.get("store.records_in_place").value == in_place
        assert hub.metrics.get("net.rpcs_sent").value == stats.rpcs_sent > 0
        sent = stats.rpcs_sent
        system.host("east").fs().read_file("/a.txt")
        system.reconcile_everything()
        assert hub.metrics.get("net.rpcs_sent").value == stats.rpcs_sent > sent
        assert hub.tracer.finished

    def test_a_store_counts_without_a_hub_and_a_reboot_keeps_the_sum(self):
        volrep = VolumeReplicaId(VolumeId(1, 1), 1)
        store = ReplicaStore.create(UfsLayer(Ufs.mkfs(BlockDevice(1024), num_inodes=64)).root(), volrep)
        store.new_file_id()  # reserves an id range: rewrites .meta in place
        assert store.stats.records_in_place >= 1

        system = FicusSystem(["solo"], daemon_config=QUICK, telemetry=Telemetry())
        host, metrics = system.host("solo"), system.telemetry.metrics

        def records() -> int:
            return sum(metrics.get(f"store.records_{arm}").value for arm in ("in_place", "resized"))

        host.fs().write_file("/f", b"before the reboot")
        (dead,) = host.physical.stores.values()
        before = records()
        assert before > 0
        host.crash()
        host.restart(system)
        host.fs().write_file("/f", b"after the reboot")
        (live,) = host.physical.stores.values()
        assert live is not dead and live.stats.records_in_place > 0
        # the dead store's counts stay in the sum; the rebuilt one adds to it
        assert records() == before + live.stats.records_in_place + live.stats.records_resized


class TestTelemetryHub:
    def test_reset_keeps_instrument_names(self):
        hub = Telemetry()
        hub.metrics.add_source("kept", {"n": 3})
        with hub.tracer.span("s"):
            pass
        hub.reset()
        assert len(hub.tracer.finished) == 0
        assert "kept.n" in hub.metrics
        assert hub.metrics.get("kept.n").value == 3

    def test_bind_clock_rebinds_tracer_and_events(self):
        hub = Telemetry()
        clock = FakeClock()
        hub.bind_clock(clock)
        with hub.tracer.span("s"):
            pass
        assert hub.tracer.finished[0].start == 1.0
