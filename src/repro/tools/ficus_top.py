"""``ficus_top``: the cluster consistency dashboard.

Renders the health table an operator reads before trusting a replica —
per host: pending new-version notes, reconciliation staleness, peers the
daemons are routing around, volumes suspected of divergence, anomaly
counts.  Works against a live :class:`~repro.sim.FicusSystem` (in-process)
or offline against a flight-recorder dump written when an anomaly fired::

    python -m repro.tools.ficus_top --demo          # live demo cluster
    python -m repro.tools.ficus_top dump.jsonl ...  # offline evidence

The offline mode is the second half of the flight-recorder story: a
failing chaos seed leaves ``ficus_flight_*.jsonl`` files behind, and this
tool turns one into the last-N-operations timeline plus the health state
at the moment the oracle fired.
"""

from __future__ import annotations

import argparse

from repro.telemetry import HostHealth, load_dump

#: ring-tail length shown per dump by default
DEFAULT_OPS_SHOWN = 16

_COLUMNS = [
    "host",
    "up",
    "topo",
    "fanout",
    "notes",
    "stale",
    "stale_s",
    "degraded",
    "suspected",
    "resolved",
    "anomalies",
]


def _table(rows: list[list[str]]) -> str:
    widths = [
        max(len(_COLUMNS[i]), max((len(row[i]) for row in rows), default=0))
        for i in range(len(_COLUMNS))
    ]
    lines = [
        "  ".join(name.ljust(widths[i]) for i, name in enumerate(_COLUMNS)),
        "  ".join("-" * widths[i] for i in range(len(_COLUMNS))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _row(health: HostHealth) -> list[str]:
    suspected = ";".join(
        f"{volume}<-{','.join(peers)}" for volume, peers in sorted(health.suspected.items())
    )
    return [
        health.host,
        "up" if health.up else "DOWN",
        health.topology,
        str(health.fanout),
        str(health.notes_pending),
        str(health.max_staleness),
        f"{health.max_staleness_seconds:g}",
        ",".join(health.degraded_peers) or "-",
        suspected or "-",
        f"{health.resolver_auto_resolved}+{health.resolver_fallback_manual}m"
        if health.resolver_auto_resolved or health.resolver_fallback_manual
        else "-",
        str(sum(health.anomalies.values())) or "0",
    ]


def render_health_table(healths: list[HostHealth]) -> str:
    """The cluster table from already-collected per-host health records."""
    return _table([_row(h) for h in healths])


def render_record_replaces(metrics) -> str:
    """How the replica stores replaced their one-record files: in place
    (the length held; two device writes) against resized (five) — and how
    many directory flushes carried how many staged record updates that
    never reached the device on their own.  Empty when the registry is not
    recording or no store has replaced one."""
    in_place, resized, flushes, coalesced = (
        getattr(metrics.get(f"store.{name}"), "value", 0)
        for name in ("records_in_place", "records_resized", "dir_flushes", "dir_writes_coalesced")
    )
    if not in_place + resized:
        return ""
    return (
        f"record replaces: {in_place} in place, {resized} resized "
        f"({in_place / (in_place + resized):.0%} in place); "
        f"directory flushes: {flushes}, {coalesced} staged writes coalesced"
    )


def render_system(system) -> str:
    """The live cluster health table of a :class:`~repro.sim.FicusSystem`."""
    healths = [system.host(name).health() for name in sorted(system.hosts)]
    header = f"ficus_top @ t={system.clock.now():.1f}s, {len(healths)} hosts"
    lines = [header, render_health_table(healths), render_record_replaces(system.telemetry.metrics)]
    return "\n".join(line for line in lines if line)


def render_dump(path: str, ops_shown: int = DEFAULT_OPS_SHOWN) -> str:
    """Render one flight-recorder JSONL dump for offline inspection."""
    snapshot = load_dump(path)
    lines = [
        f"flight recorder dump: {path}",
        f"  anomaly: {snapshot.get('kind', '?')} on host "
        f"{snapshot.get('host', '?')} at t={snapshot.get('at', 0.0)}",
    ]
    detail = snapshot.get("detail") or {}
    if detail:
        rendered = ", ".join(f"{key}={value}" for key, value in sorted(detail.items()))
        lines.append(f"  detail: {rendered}")

    health = snapshot.get("health") or {}
    if health:
        lines.append("")
        lines.append(
            render_health_table(
                [
                    HostHealth(
                        host=health.get("host", snapshot.get("host", "?")),
                        topology=health.get("topology", "full_mesh"),
                        fanout=health.get("fanout", 0),
                        notes_pending=health.get("notes_pending", 0),
                        staleness_ticks=health.get("staleness_ticks", {}),
                        staleness_seconds=health.get("staleness_seconds", {}),
                        suspected=health.get("suspected", {}),
                        anomalies=health.get("anomalies", {}),
                        resolver_auto_resolved=health.get("resolver_auto_resolved", 0),
                        resolver_fallback_manual=health.get("resolver_fallback_manual", 0),
                        last_resolutions=health.get("last_resolutions", []),
                    )
                ]
            )
        )

    resolutions = (health or {}).get("last_resolutions") or []
    if resolutions:
        lines.append("")
        lines.append("  recent automatic conflict resolutions:")
        for entry in resolutions:
            lines.append(
                f"    t={entry.get('at', 0.0)} {entry.get('name')}[{entry.get('tag')}] "
                f"{entry.get('local_vv')} x {entry.get('remote_vv')} "
                f"-> {entry.get('resolved_vv')}"
            )

    recon = snapshot.get("last_recon") or []
    if recon:
        lines.append("")
        lines.append("  recent reconciliation outcomes:")
        for outcome in recon:
            status = "ok" if outcome.get("ok") else "ABORTED"
            lines.append(
                f"    t={outcome.get('at', 0.0)} volume={outcome.get('volume')} "
                f"peer={outcome.get('peer')} {status} "
                f"conflicts={outcome.get('conflicts', 0)}"
            )

    ops = snapshot.get("ops") or []
    if ops:
        lines.append("")
        lines.append(f"  last {min(ops_shown, len(ops))} of {len(ops)} recorded ops:")
        for at, op, target, trace in ops[-ops_shown:]:
            suffix = f"  [trace {trace}]" if trace else ""
            lines.append(f"    t={at} {op} {target}{suffix}")
    return "\n".join(lines)


def render_timeline(paths: list[str], ops_shown: int = 0) -> str:
    """Merge several hosts' flight dumps into one incident timeline.

    Every recorded operation and provenance event from every dump lands
    on the shared virtual clock (the simulation has one clock, so ``at``
    values are directly comparable across hosts), prefixed with the host
    it happened on.  Trace ids that appear on more than one host are
    flagged — those are the cross-host causal threads (a write on one
    host surfacing as a pull on another) an operator follows first.
    """
    entries: list[tuple[float, str, str, str]] = []  # (at, host, text, trace)
    anomalies: list[str] = []
    for path in paths:
        snapshot = load_dump(path)
        host = snapshot.get("host", path)
        if snapshot.get("kind"):
            anomalies.append(
                f"  t={snapshot.get('at', 0.0):g} {host}: ANOMALY {snapshot['kind']}"
            )
        for at, op, target, trace in snapshot.get("ops", []):
            entries.append((float(at), host, f"{op} {target}", trace or ""))
        for rec in snapshot.get("prov", []):
            vv = rec.get("vv") or "genesis"
            origin = f" from {rec['origin']}" if rec.get("origin") else ""
            detail = f" [{rec['detail']}]" if rec.get("detail") else ""
            entries.append(
                (
                    float(rec.get("at", 0.0)),
                    rec.get("host", host),
                    f"version {rec.get('kind')} {rec.get('fh', '')[:8]} -> {vv}{origin}{detail}",
                    rec.get("trace", ""),
                )
            )
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    if ops_shown:
        entries = entries[-ops_shown:]

    trace_hosts: dict[str, set[str]] = {}
    for _, host, _, trace in entries:
        if trace:
            trace_hosts.setdefault(trace, set()).add(host)
    cross = {trace for trace, hosts in trace_hosts.items() if len(hosts) > 1}

    width = max((len(host) for _, host, _, _ in entries), default=4)
    lines = [f"incident timeline from {len(paths)} dump(s), {len(entries)} events"]
    lines.extend(anomalies)
    for at, host, text, trace in entries:
        suffix = ""
        if trace:
            marker = " <-- spans hosts" if trace in cross else ""
            suffix = f"  [trace {trace}]{marker}"
        lines.append(f"  t={at:<8g} {host.ljust(width)}  {text}{suffix}")
    return "\n".join(lines)


def _demo_system():
    """A tiny partitioned cluster whose health table is worth looking at."""
    from repro.sim import FicusSystem
    from repro.telemetry import Telemetry

    system = FicusSystem(["alpha", "beta", "gamma"], telemetry=Telemetry())
    fs = system.host("alpha").fs()
    fs.mkdir("/project")
    fs.write_file("/project/notes", b"first draft")
    system.reconcile_everything()
    system.partition([{"alpha"}, {"beta", "gamma"}])
    fs.write_file("/project/notes", b"partitioned edit")
    for name in system.hosts:
        system.host(name).recon_daemon.tick()
    return system


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Ficus cluster health inspector")
    parser.add_argument("dumps", nargs="*", help="flight-recorder JSONL dump files")
    parser.add_argument(
        "--demo", action="store_true", help="render a small partitioned demo cluster"
    )
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS_SHOWN)
    parser.add_argument(
        "--timeline",
        action="store_true",
        help="merge all dumps into one cross-host incident timeline",
    )
    args = parser.parse_args(argv)

    if not args.dumps and not args.demo:
        parser.error("give at least one dump file, or --demo")
    if args.demo:
        print(render_system(_demo_system()))
    if args.timeline and args.dumps:
        print(render_timeline(args.dumps))
        return 0
    for path in args.dumps:
        print(render_dump(path, ops_shown=args.ops))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
