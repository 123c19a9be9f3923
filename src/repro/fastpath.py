"""Runtime switch for the fused/zero-copy hot path.

The PR-7 performance plane (decoded-metadata caches in the UFS and the
replica store, memoized wire decodes, fused vnode chains) is controlled
by one module-level flag so a single process can measure *legacy* and
*optimized* behaviour back to back — exactly what the ``bench_open_io``
throughput gate does.  Production runs leave it enabled; the paper's
E3/E4 disk-I/O accounting is preserved either way because every cache is
keyed to the buffer-cache epoch (see ARCHITECTURE.md, "The fused hot
path").
"""

from __future__ import annotations

#: Master switch for the decoded-metadata caches and memoized decodes.
#: Mutated only through :func:`set_enabled` (benchmarks, tests).
ENABLED = True


def set_enabled(value: bool) -> bool:
    """Flip the hot path on or off; returns the previous value."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(value)
    return previous
