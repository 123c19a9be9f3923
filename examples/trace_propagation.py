#!/usr/bin/env python3
"""Trace one update end to end across two hosts.

Runs a two-host deployment with telemetry enabled, partitions it so an
update must wait, heals, and lets the propagation daemon pull — then
shows that the whole flow (open -> write -> notify -> pull) is ONE trace
tree with spans in the logical, NFS, and physical layers on both hosts.

Exports the timeline as Chrome trace format; load ``ficus_trace.json``
into chrome://tracing or https://ui.perfetto.dev to see each host as a
process row and the cross-host pull aligned on the virtual-time axis.

Run:  python examples/trace_propagation.py
"""

import os

from repro.sim import FicusSystem
from repro.telemetry import Telemetry
from repro.telemetry import export

#: example artifacts land under out/, never in the repo root
OUT_DIR = "out"
TRACE_PATH = os.path.join(OUT_DIR, "ficus_trace.json")


def main() -> None:
    telemetry = Telemetry()
    system = FicusSystem(["west", "east"], telemetry=telemetry)
    west = system.host("west").fs()
    east = system.host("east").fs()

    print("== partition, update on one side ==")
    system.partition([{"west"}, {"east"}])
    west.write_file("/report.txt", b"written while east was unreachable")
    print("west wrote /report.txt; notification to east was lost")

    print("\n== heal; the daemons carry the update across ==")
    system.heal()
    west.append_file("/report.txt", b" -- and appended after the heal")
    system.run_for(120.0)
    print("east reads:", east.read_file("/report.txt"))

    # -- the single trace tree ------------------------------------------------
    tracer = telemetry.tracer
    root = next(s for s in tracer.finished if s.name == "fs.append_file")
    spans = tracer.spans(root.trace_id)
    print(f"\n== trace {root.trace_id:x}: {len(spans)} spans, one tree ==")
    print(f"   layers: {sorted({s.layer for s in spans})}")
    print(f"   hosts:  {sorted({s.host for s in spans})}")

    def show(span, depth: int = 0) -> None:
        print(f"   {'  ' * depth}{span.name}  [{span.layer}@{span.host}]  "
              f"{span.duration * 1e3:.1f}ms")
        for child in sorted(tracer.children_of(span), key=lambda s: s.start):
            show(child, depth + 1)

    show(root)

    os.makedirs(OUT_DIR, exist_ok=True)
    export.write_chrome_trace(TRACE_PATH, tracer.finished)
    print(f"\nwrote {len(list(tracer.finished))} spans to {TRACE_PATH} "
          "(open in chrome://tracing or Perfetto)")

    print("\n== full telemetry digest ==")
    print(export.summary(telemetry))


if __name__ == "__main__":
    main()
