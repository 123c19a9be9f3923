"""The repo benchmark's one command.

    python3 benchmarks/e2e/run.py --seed 1                       # all five workloads, both passes
    python3 benchmarks/e2e/run.py --workload solo_zipf --seed 1 --seconds 10 --trace 0

Every (workload, pass) runs in a fresh child process, one at a time, with
``PYTHONHASHSEED=0`` so that every count repeats exactly.  ``--trace 0``
runs the untraced pass and reports the end-to-end metrics; ``--trace 1``
runs the untraced pass and then the traced pass over the first quarter of
the same ops, checks that tracing did not change what the program did,
and reports the per-layer metrics; without ``--trace`` both blocks are
reported.  Results are one JSON document on the last line of stdout;
traces and failure evidence go under ``--out``.  Exits non-zero when any
op or oracle failed.

With exactly one workload and ``--repeat 1`` the document is the
pipeline's contract object (``correct``, ``attempted``, ``failed``,
``metrics``); otherwise it holds one such object per workload under
``results``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: a child gets this long before it is killed and the run fails
CHILD_TIMEOUT_S = 170


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME", help="repeatable; default all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="shorthand for --scale SECONDS/30")
    parser.add_argument("--scale", type=float, help="multiplies every op count (1 = as specified)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None)
    parser.add_argument("--no-trace", dest="trace", action="store_const", const=0)
    parser.add_argument("--out", help="artifact directory (default: .bench_out/ in the checkout)")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, round-robin")
    parser.add_argument("--worker", choices=("untraced", "traced"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _worker(args: argparse.Namespace) -> int:
    """Child role: one pass of one workload, result as one JSON line."""
    from e2e.engine import run_pass

    result = run_pass(args.workload[0], args.seed, args.scale, args.worker == "traced", args.out)
    print(json.dumps(dataclasses.asdict(result)))
    return 0


def _child(mode: str, workload: str, args: argparse.Namespace) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--worker", mode, "--workload", workload]
    command += ["--seed", str(args.seed), "--scale", repr(args.scale), "--out", args.out]
    done = subprocess.run(
        command,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _run_once(workload: str, args: argparse.Namespace) -> dict:
    """All passes ``--trace`` asks for; returns a contract-shaped object
    whose metric values are still bare numbers."""
    from e2e.spec import END_TO_END, PER_LAYER

    untraced = _child("untraced", workload, args)
    attempted, failed = untraced["attempted"], untraced["failed"]
    problems = list(untraced["problems"])
    values = dict(untraced["metrics"])
    if args.trace != 0:
        traced = _child("traced", workload, args)
        failed += traced["failed"]
        problems += traced["problems"]
        values.update(traced["metrics"])
        ours, theirs = untraced["prefix"], traced["prefix"]
        # tracing must observe, not perturb: the same ops must have caused
        # exactly the same RPCs and disk I/Os
        for count in ("ops", "rpcs", "disk_ios"):
            if ours[count] != theirs[count]:
                failed += 1
                problems.append(f"traced pass {count}={theirs[count]}, untraced {ours[count]}")
        values["trace.overhead_ratio"] = theirs["cpu_ns"] / ours["cpu_ns"]
    wanted = {0: END_TO_END, 1: PER_LAYER, None: END_TO_END + PER_LAYER}[args.trace]
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    if failed:
        print(f"{workload}: evidence in {untraced['artifacts']}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: values[name] for name, *_ in wanted},
    }


def _summarise(runs: list[dict]) -> dict:
    """Fold the repeats of one workload: counts add up, each metric
    becomes its median (with quartiles once there are enough runs)."""
    from e2e.spec import UNITS

    metrics = {}
    for name in runs[0]["metrics"]:
        series = [run["metrics"][name] for run in runs]
        entry = {"value": statistics.median(series), "unit": UNITS[name]}
        if len(series) > 1:
            q1, _, q3 = statistics.quantiles(series, n=4)
            if min(series) == max(series):
                # interpolating between equal values can invent a last digit
                q1 = q3 = series[0]
            entry.update(q1=q1, q3=q3, runs=len(series))
        metrics[name] = entry
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # the modules import each other as the package ``e2e``
    sys.path.insert(0, str(HERE.parent))
    from e2e import REPO_ROOT
    from e2e.spec import REFERENCE_SECONDS, WORKLOADS

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {REPO_ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    if args.scale is None:
        args.scale = args.seconds / REFERENCE_SECONDS
    if args.out is None:
        args.out = str(REPO_ROOT / ".bench_out")
    if args.worker:
        return _worker(args)

    workloads = args.workload or list(WORKLOADS)
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown or args.repeat < 1 or args.scale <= 0:
        print(f"bad arguments: unknown workloads {unknown}, repeat/scale must be positive", file=sys.stderr)
        return 2
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for _ in range(args.repeat):
        for workload in workloads:
            runs[workload].append(_run_once(workload, args))
    results = {w: _summarise(series) for w, series in runs.items()}
    if len(workloads) == 1 and args.repeat == 1:
        document = results[workloads[0]]
    else:
        document = {
            "seed": args.seed,
            "scale": args.scale,
            "repeat": args.repeat,
            "results": results,
        }
    print(json.dumps(document))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
