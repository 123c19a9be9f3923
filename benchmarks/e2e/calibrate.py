"""Machine-speed calibration: a fixed kernel the timings are normalised by.

The benchmark's home is a small shared VM on which *identical* work costs
up to 2x more CPU time from one second to the next (a busy SMT sibling or
neighbour slows every instruction; the guest sees no steal).  Measured on
it, six back-to-back runs of one seed spread 24 % on ops/s and 19 % on
read p50 — on the CPU clock, which already excludes preemption.

So the timed loop interleaves this kernel — pure Python, nothing from
``src/``, shaped like the simulator's own work (method calls, dict and
attribute lookups, ``dataclasses.replace``, 2 KiB byte slices, small
allocations over a few MB of objects) — every ``INTERVAL_NS`` of measured
CPU time, and every timing is divided by how slow the kernel ran around
it, relative to ``REFERENCE_NS``.  The same runs then spread 7 % and 5 %.
A change under ``src/`` cannot move the kernel, so a real speed-up still
shows in full; ``machine_speed`` reports the factor that was divided out.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace

#: the kernel's CPU time on the reference machine (this VM when quiet);
#: only its constancy matters — it sets the unit, not the comparison
REFERENCE_NS = 1_000_000
#: measured CPU time between two kernel runs
INTERVAL_NS = 25_000_000

_POOL_SIZE = 8192
_STEPS = 400


@dataclass
class _Record:
    a: int
    b: int
    c: bytes
    d: tuple


class _Object:
    def __init__(self, i: int):
        self.i = i
        self.m = {f"k{i % 7}": i}
        self.r = _Record(i, i + 1, bytes(64), (i,))

    def step(self, x: int) -> int:
        return (self.i ^ x) & 1023

    def get(self, key: str) -> int:
        return self.m.get(key, 0)


class Kernel:
    """The calibration kernel and the samples it has taken."""

    def __init__(self) -> None:
        rng = random.Random(7)
        self._pool = [_Object(i) for i in range(_POOL_SIZE)]
        self._order = [rng.randrange(_POOL_SIZE) for _ in range(4096)]
        self._blob = bytes(range(256)) * 16
        self._cursor = 0
        self.sample()  # first touch of the pool is not representative

    def sample(self) -> int:
        """Run the kernel once; returns its thread CPU nanoseconds."""
        pool, order, blob = self._pool, self._order, self._blob
        cursor = self._cursor
        acc = 0
        start = time.thread_time_ns()
        for i in range(_STEPS):
            obj = pool[(order[(cursor + i) & 4095] * 31 + cursor) % _POOL_SIZE]
            acc += obj.step(i) + obj.get("k3")
            record = replace(obj.r, a=acc & 7)
            acc += len(blob[(i & 255) : (i & 255) + 2048]) + record.b
            scratch = {"x": i, "y": acc}
            acc += scratch["x"]
        elapsed = time.thread_time_ns() - start
        self._cursor = cursor + _STEPS
        return elapsed
