"""``ficus_prov``: query the version-provenance DAG of an incident.

The per-host provenance ledgers ride along in every flight-recorder dump
(``prov`` records), so the operator workflow is: a chaos seed or a real
divergence leaves ``ficus_flight_*.jsonl`` files behind, and this tool
composes them into the cross-replica version DAG and answers the three
questions the paper leaves to the "owner": what is the lineage of this
file, who wrote this version, and which writes fed each side of a
conflict.

::

    python -m repro.tools.ficus_prov dump1.jsonl dump2.jsonl            # overview
    python -m repro.tools.ficus_prov dumps... --lineage <fh-prefix>
    python -m repro.tools.ficus_prov dumps... --who-wrote <fh> --vv 1:3
    python -m repro.tools.ficus_prov dumps... --feeds <fh-prefix>
    python -m repro.tools.ficus_prov dumps... --dot <fh-prefix> > dag.dot
    python -m repro.tools.ficus_prov --demo --feeds 0000

File handles may be abbreviated to any unique hex prefix.
"""

from __future__ import annotations

import argparse

from repro.telemetry import VersionDAG, load_dump


def dag_from_dumps(paths: list[str]) -> VersionDAG:
    """Compose one DAG from the ``prov`` records of several flight dumps."""
    return VersionDAG.from_records(rec for path in paths for rec in load_dump(path)["prov"])


def resolve_handle(dag: VersionDAG, prefix: str) -> str:
    """Expand an abbreviated file handle to the unique full one."""
    matches = [fh for fh in dag.file_handles() if fh.startswith(prefix)]
    if not matches:
        raise SystemExit(f"ficus_prov: no file handle matches {prefix!r}")
    if len(matches) > 1:
        listing = ", ".join(matches[:8])
        raise SystemExit(f"ficus_prov: ambiguous handle {prefix!r}: {listing}")
    return matches[0]


def render_overview(dag: VersionDAG) -> str:
    lines = [f"{len(dag.file_handles())} files, {len(dag.nodes)} versions"]
    for fh in dag.file_handles():
        nodes = dag.nodes_for(fh)
        heads = dag.heads(fh)
        flag = ""
        if len(heads) >= 2:
            flag = "  CONFLICT"
        elif len(heads) == 1 and heads[0].is_merge:
            flag = "  resolved"
        head_vvs = ",".join(h.vv or "genesis" for h in heads)
        lines.append(f"  {fh}  versions={len(nodes)} heads={head_vvs}{flag}")
    return "\n".join(lines)


def render_lineage(dag: VersionDAG, fh: str) -> str:
    lines = [f"lineage of {fh} (oldest first):"]
    for node in dag.lineage(fh):
        minted = node.minted_by()
        if minted:
            host, at, kind = minted[0]
            origin = f"{kind} by {host} at t={at:g}"
        elif node.events:
            event = node.events[0]
            origin = f"{event.kind} via {event.origin or event.host} at t={event.at:g}"
        else:
            origin = "(outside ring retention)"
        parents = ",".join(sorted(p or "genesis" for p in node.parents)) or "-"
        replicas = ",".join(sorted(node.hosts)) or "-"
        lines.append(
            f"  {node.vv or 'genesis':<16} <- {parents:<24} {origin}; on {replicas}"
        )
    return "\n".join(lines)


def render_who_wrote(dag: VersionDAG, fh: str, vv: str) -> str:
    writers = dag.who_wrote(fh, vv)
    if not writers:
        return f"no recorded minting event for {fh} @ {vv or 'genesis'}"
    lines = [f"version {vv or 'genesis'} of {fh} was minted by:"]
    for host, at, kind in writers:
        lines.append(f"  {host}  t={at:g}  ({kind})")
    return "\n".join(lines)


def render_feeds(dag: VersionDAG, fh: str) -> str:
    feeds = dag.feeds_of_conflict(fh)
    if not feeds:
        return f"{fh}: no conflict (fewer than two branches)"
    lines = [f"conflict branches of {fh} and the writes feeding them:"]
    for branch in sorted(feeds):
        lines.append(f"  branch {branch or 'genesis'}:")
        for event in sorted(feeds[branch], key=lambda e: (e.at, e.host)):
            note = f" [{event.detail}]" if event.detail else ""
            lines.append(
                f"    t={event.at:g}  {event.host}  {event.kind}  -> {event.vv or 'genesis'}{note}"
            )
    return "\n".join(lines)


def _demo_dag() -> VersionDAG:
    """A partitioned two-host cluster with one resolved conflict."""
    from repro.sim import FicusSystem

    system = FicusSystem(["west", "east"])
    system.enable_resolvers()
    west = system.host("west").fs()
    east = system.host("east").fs()
    west.mkdir("/d")
    west.write_file("/d/log", b"base\n")
    west.set_merge_policy("/d/log", "append-log")
    system.reconcile_everything()
    system.partition([{"west"}, {"east"}])
    west.write_file("/d/log", b"base\nwest\n")
    east.write_file("/d/log", b"base\neast\n")
    system.heal()
    system.reconcile_everything(rounds=4)
    return system.provenance_dag()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Ficus version-provenance inspector")
    parser.add_argument("dumps", nargs="*", help="flight-recorder JSONL dump files")
    parser.add_argument("--demo", action="store_true", help="use a built-in demo cluster")
    parser.add_argument("--lineage", metavar="FH", help="print the version history of one file")
    parser.add_argument("--who-wrote", metavar="FH", help="print who minted --vv of this file")
    parser.add_argument("--vv", default="", help="encoded version vector for --who-wrote")
    parser.add_argument("--feeds", metavar="FH", help="print the write set feeding each conflict branch")
    parser.add_argument("--jsonl", nargs="?", const="*", metavar="FH", help="export nodes as JSONL")
    parser.add_argument("--dot", nargs="?", const="*", metavar="FH", help="export the DAG as Graphviz dot")
    args = parser.parse_args(argv)

    if not args.dumps and not args.demo:
        parser.error("give at least one dump file, or --demo")
    dag = _demo_dag() if args.demo else dag_from_dumps(args.dumps)

    ran_query = False
    if args.lineage:
        print(render_lineage(dag, resolve_handle(dag, args.lineage)))
        ran_query = True
    if args.who_wrote:
        print(render_who_wrote(dag, resolve_handle(dag, args.who_wrote), args.vv))
        ran_query = True
    if args.feeds:
        print(render_feeds(dag, resolve_handle(dag, args.feeds)))
        ran_query = True
    if args.jsonl:
        fh = None if args.jsonl == "*" else resolve_handle(dag, args.jsonl)
        for line in dag.to_jsonl(fh):
            print(line)
        ran_query = True
    if args.dot:
        fh = None if args.dot == "*" else resolve_handle(dag, args.dot)
        print(dag.to_dot(fh))
        ran_query = True
    if not ran_query:
        print(render_overview(dag))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
