"""Tests for ``benchmarks/cpu_profile.py``'s tables."""

import cProfile
import importlib.util
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KERNEL = ("/x/benchmarks/e2e/calibrate.py", 67, "sample")
SHARED = ("/x/lib/dataclasses.py", 1453, "replace")
OWN = ("/x/src/repro/ufs/inode.py", 63, "clone")


def cpu_profile():
    spec = importlib.util.spec_from_file_location("cpu_profile", ROOT / "benchmarks" / "cpu_profile.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_stats(kernel_runs: int) -> dict:
    """A pstats dict: each kernel run calls ``replace`` twice, and repro
    code calls it ten times besides; every call costs 0.1 s of self time."""
    replace_calls = 10 + 2 * kernel_runs
    return {
        KERNEL: (kernel_runs, kernel_runs, 0.1 * kernel_runs, 0.0, {}),
        SHARED: (replace_calls, replace_calls, 0.1 * replace_calls, 0.0, {KERNEL: (), OWN: ()}),
        OWN: (7, 7, 0.7, 0.0, {}),
    }


def test_counts_repeat_however_often_the_kernel_ran():
    tabulate = cpu_profile().tabulate
    per_run = {KERNEL: 1, SHARED: 2}
    for runs in (3, 11):
        _, rows = tabulate(synthetic_stats(runs), per_run)
        assert {func: calls for func, calls, _ in rows} == {KERNEL: 0, SHARED: 10, OWN: 7}


def test_the_kernels_self_time_is_the_harness_package():
    by_package, rows = cpu_profile().tabulate(synthetic_stats(5), {KERNEL: 1, SHARED: 2})
    # the kernel's own 0.5 s plus its 10 of replace's 20 calls
    assert round(by_package["harness"], 6) == 1.5
    assert round(by_package["ufs"], 6) == 0.7
    assert {func: round(tt, 6) for func, _, tt in rows} == {KERNEL: 0.0, SHARED: 1.0, OWN: 0.7}


def test_two_dataclasses_generated_inits_are_one_labelled_row():
    @dataclass
    class Left:
        x: int

    @dataclass
    class Right:
        y: str

    module = cpu_profile()
    profiler = cProfile.Profile()
    profiler.runcall(lambda: (Left(1), Right("r")))
    _, rows = module.tabulate(module.merged_stats(profiler), {})
    inits = [(module.label(func), calls) for func, calls, _ in rows if func[2] == "__init__"]
    assert inits == [("generated:<string>:__init__ (all dataclasses)", 2)]
