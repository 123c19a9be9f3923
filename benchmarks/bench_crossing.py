"""E2 (Section 6): the cost of crossing a layer boundary.

"The actual cost of crossing a layer boundary is low — one additional
procedure call, one pointer indirection, and storage for another vnode
block."  We stack 0..16 null layers over UFS and measure getattr latency;
the per-crossing increment is the measured analogue of that claim.
"""

import time

import pytest

from repro.storage import BlockDevice
from repro.ufs import Ufs
from repro.vnode import UfsLayer, build_null_stack

DEPTHS = [0, 1, 2, 4, 8, 16]


def make_stack(depth: int):
    base = UfsLayer(Ufs.mkfs(BlockDevice(2048), num_inodes=64))
    top = build_null_stack(base, depth)
    root = top.root()
    root.create("probe").write(0, b"x")
    return top, root


@pytest.mark.parametrize("depth", DEPTHS)
def test_bench_getattr_through_layers(benchmark, depth):
    _, root = make_stack(depth)
    probe = root.lookup("probe")
    benchmark(probe.getattr)


@pytest.mark.parametrize("depth", DEPTHS)
def test_bench_lookup_through_layers(benchmark, depth):
    _, root = make_stack(depth)
    benchmark(root.lookup, "probe")


class TestShape:
    def test_crossing_adds_no_io(self):
        """A layer crossing costs CPU only — zero additional disk I/O."""
        base = UfsLayer(Ufs.mkfs(BlockDevice(2048), num_inodes=64))
        root0 = base.root()
        root0.create("probe").write(0, b"x")
        root0.lookup("probe").getattr()  # warm
        snap = base.fs.device.counters.snapshot()
        root0.lookup("probe").getattr()
        direct = base.fs.device.counters.delta_since(snap).total

        deep = build_null_stack(base, 16).root()
        deep.lookup("probe").getattr()  # warm wrappers
        snap = base.fs.device.counters.snapshot()
        deep.lookup("probe").getattr()
        layered = base.fs.device.counters.delta_since(snap).total
        assert direct == layered == 0

    def test_per_crossing_overhead_is_small_and_linear(self, capsys):
        """Measure wall time per getattr at each depth; the fitted
        per-crossing increment should be a fraction of the base op cost.

        One warm-up pass first, then every repeat times the depths round
        robin, and each depth keeps its best: a slow spell of the machine
        lands on all depths alike instead of on whichever ran first."""
        probes = {depth: make_stack(depth)[1].lookup("probe") for depth in DEPTHS}
        n = 2000

        def per_call(probe) -> float:
            start = time.perf_counter()
            for _ in range(n):
                probe.getattr()
            return (time.perf_counter() - start) / n

        for probe in probes.values():
            per_call(probe)  # warm-up
        samples = dict.fromkeys(DEPTHS, float("inf"))
        for _ in range(5):
            for depth, probe in probes.items():
                samples[depth] = min(samples[depth], per_call(probe))
        base_cost = samples[0]
        per_crossing = (samples[16] - samples[0]) / 16
        with capsys.disabled():
            print("\n[E2] getattr microseconds by null-layer depth:")
            for depth, cost in samples.items():
                print(f"  depth {depth:>2}: {cost * 1e6:8.2f} us")
            print(
                f"  base op {base_cost * 1e6:.2f} us, per-crossing "
                f"{per_crossing * 1e6:.2f} us ({per_crossing / base_cost:.1%} of base)"
            )
        # "low": one crossing costs well under the base operation itself
        assert per_crossing < base_cost
        # and cost grows monotonically-ish with depth (allow jitter)
        assert samples[16] > samples[0]
