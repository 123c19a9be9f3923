"""Trace spans: one operation seen end-to-end across the vnode stack.

The paper motivates stackable layers partly as the vehicle for
"performance monitoring" (Section 1); a trace makes that concrete by
recording, per layer crossing, a *span* — a named interval with a parent —
so a single ``open -> write -> notify -> pull`` becomes one tree whose
nodes live in the logical, NFS, and physical layers on several hosts.

Context propagates two ways:

* **Within a host** the simulator is synchronous, so an active-span stack
  captures nesting implicitly: a physical-layer span started while an
  NFS-server span is open becomes its child.
* **Across the simulated NFS hop** (and across the update-notification
  datagram) nothing is implicit: the sender puts its :class:`TraceContext`
  in the message — the operation context of an RPC, the notification of a
  datagram — and the receiving side parents its span on it.  This mirrors
  how real distributed tracing must thread context through RPC metadata;
  the context is a frozen value, so it crosses as it is.

Span ids are minted from a counter, never from randomness, and timestamps
come from whatever clock the tracer is bound to (the simulator binds the
shared :class:`~repro.util.VirtualClock`), so a replayed experiment yields
a byte-identical trace.
"""

from __future__ import annotations

import functools
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from operator import attrgetter


@dataclass(frozen=True)
class TraceContext:
    """The propagatable identity of a span: (trace, span) id pair."""

    trace_id: int
    span_id: int


class Span:
    """One timed, named interval within a trace tree."""

    __slots__ = (
        "name",
        "layer",
        "host",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "status",
        "tags",
    )

    def __init__(
        self,
        name: str,
        layer: str,
        host: str,
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        start: float,
        tags: dict[str, object] | None = None,
    ):
        self.name = name
        self.layer = layer
        self.host = host
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = start
        self.status = "ok"
        self.tags = tags or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def set_tag(self, key: str, value: object) -> None:
        self.tags[key] = value

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "name": self.name,
            "layer": self.layer,
            "host": self.host,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
        }
        if self.tags:
            out["tags"] = dict(self.tags)
        return out

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, layer={self.layer!r}, host={self.host!r}, "
            f"trace={self.trace_id:x}, span={self.span_id:x}, "
            f"parent={'-' if self.parent_id is None else f'{self.parent_id:x}'})"
        )


class _NullSpan:
    """The disabled fast path: a shared, stateless, do-nothing span.

    ``Tracer.span`` on a disabled tracer returns this singleton, so the
    instrumented code pays one method call and one ``with`` — no
    allocation, no clock read, no bookkeeping.
    """

    __slots__ = ()

    #: Always None: disabled tracing has no context to propagate.
    context = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set_tag(self, key: str, value: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager tracking one live span on the tracer's stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    @property
    def context(self) -> TraceContext:
        return self.span.context

    def set_tag(self, key: str, value: object) -> None:
        self.span.tags[key] = value

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        if exc_type is not None:
            self.span.status = "error"
            self.span.tags.setdefault("error", getattr(exc_type, "__name__", str(exc_type)))
        self._tracer._finish(self.span)
        return False


def spanned(
    name: "str | Callable[..., str]",
    layer: str,
    host: str,
    tags: "Callable[..., dict[str, object]] | None" = None,
):
    """Method decorator: the operation's one body, under a span when tracing.

    The owner binds its hub's tracer as ``self._tracer``.  With the tracer
    disabled a call costs one attribute test and the call of the body —
    nothing below (span name, host, tag dict, context manager) is touched.
    ``name`` is the span name, or a callable computing it from the call's
    arguments; ``host`` is the attribute path from ``self`` to the host
    address; ``tags`` computes the span's tags from the call's arguments.
    """
    host_of = attrgetter(host)

    def decorate(fn):
        @functools.wraps(fn)
        def op(self, *args, **kwargs):
            tracer = self._tracer
            if not tracer.enabled:
                return fn(self, *args, **kwargs)
            with tracer.span(
                name if isinstance(name, str) else name(self, *args, **kwargs),
                layer=layer,
                host=host_of(self),
                **(tags(self, *args, **kwargs) if tags is not None else {}),
            ):
                return fn(self, *args, **kwargs)

        return op

    return decorate


class Tracer:
    """Mints spans, tracks the active stack, retains finished spans.

    ``max_spans`` bounds retention: the oldest finished spans are evicted
    (counted in :attr:`dropped`) so a long simulation cannot grow without
    bound.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        enabled: bool = True,
        max_spans: int = 100_000,
    ):
        self.enabled = enabled
        self._clock: Callable[[], float] = clock or time.perf_counter
        self._stack: list[Span] = []
        self.finished: deque[Span] = deque(maxlen=max_spans)
        self.dropped = 0
        self._next_span_id = 1
        self._next_trace_id = 1

    # -- span lifecycle ----------------------------------------------------

    def span(
        self,
        name: str,
        layer: str = "",
        host: str = "",
        parent: TraceContext | None = None,
        **tags: object,
    ) -> "_ActiveSpan | _NullSpan":
        """Start a span; use as ``with tracer.span(...) as sp:``.

        Parentage: an explicit ``parent`` context (from a protocol field)
        wins; otherwise the innermost active span; otherwise a new trace
        root is started.  A protocol field that holds anything but a
        :class:`TraceContext` counts as no parent, so a malformed message
        never raises here.
        """
        if not self.enabled:
            return NULL_SPAN
        if isinstance(parent, TraceContext):
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif self._stack:
            top = self._stack[-1]
            trace_id, parent_id = top.trace_id, top.span_id
        else:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            parent_id = None
        span = Span(
            name,
            layer,
            host,
            trace_id,
            self._next_span_id,
            parent_id,
            self._clock(),
            tags or None,
        )
        self._next_span_id += 1
        self._stack.append(span)
        return _ActiveSpan(self, span)

    def _finish(self, span: Span) -> None:
        span.end = self._clock()
        # pop the span wherever it sits; mismatched exits (an exception
        # unwound through several spans) must not corrupt the stack
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index] is span:
                del self._stack[index]
                break
        if len(self.finished) == self.finished.maxlen:
            self.dropped += 1
        self.finished.append(span)

    # -- introspection ------------------------------------------------------

    def current_context(self) -> TraceContext | None:
        """The context to propagate from here (None when disabled/idle)."""
        if not self.enabled or not self._stack:
            return None
        return self._stack[-1].context

    def tag_current(self, key: str, value: object) -> None:
        """Tag the innermost active span (there is none when idle or disabled)."""
        if self._stack:
            self._stack[-1].tags[key] = value

    @property
    def active_depth(self) -> int:
        return len(self._stack)

    def spans(self, trace_id: int | None = None) -> list[Span]:
        if trace_id is None:
            return list(self.finished)
        return [s for s in self.finished if s.trace_id == trace_id]

    def trace_ids(self) -> list[int]:
        """Distinct trace ids among finished spans, in first-seen order."""
        seen: dict[int, None] = {}
        for span in self.finished:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def children_of(self, span: Span) -> list[Span]:
        return [
            s
            for s in self.finished
            if s.trace_id == span.trace_id and s.parent_id == span.span_id
        ]

    def roots(self, trace_id: int) -> list[Span]:
        return [s for s in self.finished if s.trace_id == trace_id and s.parent_id is None]

    def reset(self) -> None:
        self._stack.clear()
        self.finished.clear()
        self.dropped = 0
