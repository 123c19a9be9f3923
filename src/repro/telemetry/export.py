"""Exporters: JSON-lines, Chrome trace format, and a text summary.

The Chrome trace output loads directly into ``chrome://tracing`` or
Perfetto: each host becomes a process row, each trace tree a thread row,
and each span a complete ("X") event, so a cross-host
``open -> write -> notify -> pull`` renders as one aligned timeline.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from repro.telemetry.trace import Span

#: Virtual-clock seconds -> Chrome trace microseconds.
_US = 1_000_000.0


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per line, in finish order."""
    return "\n".join(json.dumps(span.to_dict(), sort_keys=True) for span in spans)


def to_chrome_trace(spans: Iterable[Span]) -> dict[str, object]:
    """Chrome trace format (JSON object flavour with ``traceEvents``).

    pid = host (one process row per host), tid = trace id (one thread row
    per trace tree), ts/dur in microseconds.
    """
    spans = list(spans)
    pids: dict[str, int] = {}
    trace_events: list[dict[str, object]] = []
    for span in spans:
        host = span.host or "-"
        if host not in pids:
            pids[host] = len(pids) + 1
            trace_events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pids[host],
                    "tid": 0,
                    "args": {"name": host},
                }
            )
    for span in spans:
        args: dict[str, object] = {
            "span_id": f"{span.span_id:x}",
            "parent_id": None if span.parent_id is None else f"{span.parent_id:x}",
            "status": span.status,
        }
        for key, value in span.tags.items():
            args[str(key)] = value if isinstance(value, (int, float, bool)) else str(value)
        trace_events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.layer or "span",
                "pid": pids[span.host or "-"],
                "tid": span.trace_id,
                "ts": span.start * _US,
                "dur": max(span.duration * _US, 0.0),
                "args": args,
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def chrome_trace_json(spans: Iterable[Span]) -> str:
    return json.dumps(to_chrome_trace(spans), sort_keys=True)


def write_chrome_trace(path: str, spans: Iterable[Span]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(chrome_trace_json(spans))


def summary(telemetry) -> str:
    """Human-readable digest of one Telemetry hub (spans and metrics)."""
    tracer = telemetry.tracer
    spans = list(tracer.finished)
    lines = ["== telemetry summary =="]
    lines.append(
        f"spans: {len(spans)} finished across {len(tracer.trace_ids())} traces"
        + (f" ({tracer.dropped} dropped)" if tracer.dropped else "")
    )
    by_layer_host: dict[tuple[str, str], int] = {}
    for span in spans:
        key = (span.layer or "-", span.host or "-")
        by_layer_host[key] = by_layer_host.get(key, 0) + 1
    for (layer, host), count in sorted(by_layer_host.items()):
        lines.append(f"  {layer:<14} @ {host:<12} {count:>6} spans")
    if len(telemetry.metrics):
        lines.append(f"metrics: {len(telemetry.metrics)} instruments")
        for name, data in telemetry.metrics.snapshot().items():
            if data["kind"] == "histogram":
                lines.append(
                    f"  {name:<40} n={data['count']:>7} mean={data['mean']:.6g}"
                )
            else:
                lines.append(f"  {name:<40} {data['value']}")
    return "\n".join(lines)
