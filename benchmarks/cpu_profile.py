"""Where a workload's CPU goes: one untraced pass of the repo benchmark
under cProfile, by function and by ``repro`` subpackage.

    python benchmarks/cpu_profile.py --workload replicated_churn --seed 601
    python benchmarks/cpu_profile.py --root ../parent ...   # another checkout

Runs ``engine.run_pass`` (set-up, timed loop and drain) exactly as the
benchmark's untraced child does and patches nothing, so the same script
reads any checkout with the same ``e2e`` engine (EXPERIMENTS.md E39).
Prints one JSON document: the functions with the most self time (with
their call counts), self time per ``repro`` subpackage (``repro/ufs/...``
is ``ufs``; code outside ``repro`` is ``other``), and how many
``DirectoryEntry`` objects are still alive once the pass has returned —
what the process's memos keep.  The engine's calibration kernel
(``Kernel.sample`` and everything it calls) is reported once, as the
``harness`` package: its time is taken out of the shares and the calls of
the functions it calls (``dataclasses.replace`` among them), by each
function's share of its calls that came from the kernel.  cProfile slows every call, so compare
the shares and counts between checkouts, not the seconds with a timed run;
set ``PYTHONHASHSEED=0``, as the benchmark does, for counts that repeat.
"""

from __future__ import annotations

import argparse
import cProfile
import collections
import gc
import json
import os
import pstats
import sys
from pathlib import Path


def package_of(filename: str) -> str:
    parts = Path(filename).parts
    if "repro" not in parts[:-1]:
        return "other"
    below = parts[len(parts) - parts[::-1].index("repro") :]
    return below[0].removesuffix(".py")


def kernel_parts(stats: dict) -> dict:
    """The share of each function's calls made on behalf of the engine's
    calibration kernel (``Kernel.sample``), from cProfile's caller records:
    a function ``Kernel.sample`` calls has the calls it made; one those
    call, their kernel share of its calls from them; and so on down."""
    root = next((key for key in stats if key[0].endswith("calibrate.py") and key[2] == "sample"), None)
    if root is None:
        return {}
    callees: dict = collections.defaultdict(list)
    for func, (_, _, _, _, callers) in stats.items():
        for caller, entry in callers.items():
            callees[caller].append((func, entry[1]))
    share = {root: 1.0}
    pending = [root]
    while pending:
        caller = pending.pop()
        for func, calls in callees[caller]:
            if func in share or func == caller:
                continue
            callers = stats[func][4]
            from_kernel = sum(entry[1] * share.get(by, 0.0) for by, entry in callers.items())
            share[func] = min(1.0, from_kernel / max(1, stats[func][1]))
            pending.append(func)
    return share


def profile(workload: str, seed: int, seconds: float, top: int) -> dict:
    from e2e import engine
    from repro.physical.wire import DirectoryEntry

    profiler = cProfile.Profile()
    result = profiler.runcall(
        engine.run_pass, workload, seed, seconds / 30.0, False, os.path.join(".bench_out", "cpu_profile")
    )
    gc.collect()
    live_entries = sum(isinstance(obj, DirectoryEntry) for obj in gc.get_objects())
    stats = pstats.Stats(profiler).stats
    total = sum(tt for _, _, tt, _, _ in stats.values())
    kernel = kernel_parts(stats)
    by_package: collections.Counter = collections.Counter()
    rows = []
    for func, (_, calls, tt, _, _) in stats.items():
        part = kernel.get(func, 0.0)
        by_package["harness"] += tt * part
        by_package[package_of(func[0])] += tt * (1.0 - part)
        rows.append((func, round(calls * (1.0 - part)), tt * (1.0 - part)))
    rows = sorted(rows, key=lambda row: row[2], reverse=True)[:top]
    return {
        "workload": workload,
        "seed": seed,
        "attempted": result.attempted,
        "failed": result.failed,
        "self_s": round(total, 3),
        "by_package": {name: round(tt / total, 4) for name, tt in by_package.most_common()},
        "top": [
            {
                "function": f"{package_of(filename)}:{Path(filename).name}:{line}:{name}",
                "calls": calls,
                "self_share": round(tt / total, 4),
            }
            for (filename, line, name), calls, tt in rows
        ],
        "live_directory_entries": live_entries,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent), help="checkout to read")
    parser.add_argument("--workload", default="replicated_churn")
    parser.add_argument("--seed", type=int, default=601)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--top", type=int, default=25, help="functions to list")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(args.root, "src"), os.path.join(args.root, "benchmarks")]
    print(json.dumps(profile(args.workload, args.seed, args.seconds, args.top), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
