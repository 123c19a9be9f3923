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
(``Kernel.sample`` and everything it calls) runs as often as measured time
asks, so it is reported once, as the ``harness`` package: its calls are
taken out of every count exactly (how often it ran, times what one run
calls), and its time out of the shares by each function's share of its
calls that came from the kernel.  A ``generated:<string>`` row is one
dataclass-generated method (``__init__``, ``__eq__``, ...) summed over
every dataclass: they share one code location, and one row.  cProfile slows
every call, so compare the shares and counts between checkouts, not the
seconds with a timed run; set ``PYTHONHASHSEED=0``, as the benchmark does,
for counts that repeat.
"""

from __future__ import annotations

import argparse
import cProfile
import collections
import gc
import json
import os
import sys
from pathlib import Path


def package_of(filename: str) -> str:
    parts = Path(filename).parts
    if "repro" not in parts[:-1]:
        return "other"
    below = parts[len(parts) - parts[::-1].index("repro") :]
    return below[0].removesuffix(".py")


def is_kernel(func: tuple) -> bool:
    """Is this pstats key the calibration kernel's ``Kernel.sample``?"""
    return func[0].endswith("calibrate.py") and func[2] == "sample"


def merged_stats(profiler: cProfile.Profile) -> dict:
    """The profile in pstats' shape — per ``(file, line, name)`` key: calls
    without recursion, calls, self time, cumulative time and the callers'
    keys — with the code objects that share a key summed.  pstats keeps
    only the last of them, and ``dataclasses`` compiles every generated
    method of one name at one key (``("<string>", 2, "__init__")``)."""
    stats: dict = {}
    callers: dict = collections.defaultdict(set)
    for entry in profiler.getstats():
        func = cProfile.label(entry.code)
        cc, nc, tt, ct = stats.get(func, (0, 0, 0.0, 0.0))
        stats[func] = (
            cc + entry.callcount - entry.reccallcount,
            nc + entry.callcount,
            tt + entry.inlinetime,
            ct + entry.totaltime,
        )
        for sub in entry.calls or ():
            callers[cProfile.label(sub.code)].add(func)
    return {func: (*row, callers[func]) for func, row in stats.items()}


def label(func: tuple) -> str:
    """A row's name; a generated method's row sums it over every dataclass."""
    filename, line, name = func
    if filename == "<string>":
        return f"generated:<string>:{name} (all dataclasses)"
    return f"{package_of(filename)}:{Path(filename).name}:{line}:{name}"


def one_kernel_run() -> dict:
    """The calls one ``Kernel.sample`` run makes, by function (its own
    call included, the profiler's callerless ``disable`` not): every run
    makes the same ones."""
    from e2e.calibrate import Kernel

    kernel = Kernel()
    profiler = cProfile.Profile()
    profiler.runcall(kernel.sample)
    return {
        func: calls
        for func, (_, calls, _, _, callers) in merged_stats(profiler).items()
        if callers or is_kernel(func)
    }


def tabulate(stats: dict, per_run: dict) -> tuple[collections.Counter, list]:
    """Self time by package, and one ``(function, calls, self time)`` row
    per function, with the calibration kernel taken out.

    ``per_run`` is what one kernel run calls (:func:`one_kernel_run`).
    How many times the kernel ran depends on measured time, so its calls
    are subtracted exactly — runs times ``per_run`` — and the counts left
    repeat from run to run.  The kernel's self time is each function's
    time times its share of the calls that came from the kernel, and is
    reported as the ``harness`` package."""
    runs = sum(calls for func, (_, calls, _, _, _) in stats.items() if is_kernel(func))
    by_package: collections.Counter = collections.Counter()
    rows = []
    for func, (_, calls, tt, _, _) in stats.items():
        kernel_calls = min(calls, runs * per_run.get(func, 0))
        part = kernel_calls / calls if calls else 0.0
        by_package["harness"] += tt * part
        by_package[package_of(func[0])] += tt * (1.0 - part)
        rows.append((func, calls - kernel_calls, tt * (1.0 - part)))
    return by_package, rows


def profile(workload: str, seed: int, seconds: float, top: int) -> dict:
    from e2e import engine
    from repro.physical.wire import DirectoryEntry

    per_run = one_kernel_run()
    profiler = cProfile.Profile()
    result = profiler.runcall(
        engine.run_pass, workload, seed, seconds / 30.0, False, os.path.join(".bench_out", "cpu_profile")
    )
    gc.collect()
    live_entries = sum(isinstance(obj, DirectoryEntry) for obj in gc.get_objects())
    stats = merged_stats(profiler)
    total = sum(tt for _, _, tt, _, _ in stats.values())
    by_package, rows = tabulate(stats, per_run)
    rows = sorted(rows, key=lambda row: row[2], reverse=True)[:top]
    return {
        "workload": workload,
        "seed": seed,
        "attempted": result.attempted,
        "failed": result.failed,
        "self_s": round(total, 3),
        "by_package": {name: round(tt / total, 4) for name, tt in by_package.most_common()},
        "top": [
            {"function": label(func), "calls": calls, "self_share": round(tt / total, 4)}
            for func, calls, tt in rows
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
