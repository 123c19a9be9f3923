"""Alternating parent/change runs of the repo benchmark, and their table.

The rule a performance claim is judged by (``BENCHMARK.json``, the
choosing-metrics guide): at least ten pairs of (parent commit, change),
alternating which side runs first, each pair on its own seed; the change
must win the claimed metric on nine pairs of ten and the medians must
differ by more than the parent's own quartile spread, while every other
end-to-end metric on every workload stays within its bound.

    git clone . /tmp/parent && git -C /tmp/parent checkout <parent-commit>
    python benchmarks/paired_runs.py run --parent /tmp/parent --out pairs.jsonl
    python benchmarks/paired_runs.py table pairs.jsonl --claim replicated_churn:ops_per_s

``run`` appends one JSON line per (pair, workload, side) so an interrupted
batch resumes by re-running with a higher ``--first-pair``; ``table``
prints, per workload and end-to-end metric, each side's median and
quartiles, the ratio of medians, how many pairs the change won, and a
verdict by the rule above:

* ``gain`` — the change won at least nine tenths of the untied pairs and
  the medians are further apart than the parent's quartiles are;
* ``regression`` — the change's median is worse than the parent's by more
  than the metric's ``BENCHMARK.json`` bound;
* ``unresolved`` — a side's quartile spread is wider than the bound, so
  "within the bound" cannot be told (unless every run of the change reads
  better than every run of the parent);
* ``ok`` — otherwise.

``table`` exits 1 on any regression, any failed operation, or a
``--claim WORKLOAD:METRIC`` whose verdict is not ``gain`` — which is what
lets CI keep a committed ``BENCH_pairs_*.jsonl`` a checked claim.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def run(args: argparse.Namespace) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": REPO_ROOT}
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    for pair in range(args.first_pair, args.first_pair + args.pairs):
        seed = args.seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                command = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--trace", "0"]
                command += ["--seconds", str(SPEC["run_seconds"]), "--out", str(Path(args.scratch) / side)]
                done = subprocess.run(command, cwd=sides[side], capture_output=True, text=True)
                document = json.loads(done.stdout.strip().splitlines()[-1])
                row = {
                    "pair": pair,
                    "seed": seed,
                    "side": side,
                    "workload": workload,
                    "attempted": document["attempted"],
                    "failed": document["failed"],
                    "metrics": {k: v["value"] for k, v in document["metrics"].items()},
                }
                with open(args.out, "a", encoding="utf-8") as fp:
                    fp.write(json.dumps(row) + "\n")
                print(pair, workload, side, f"failed={row['failed']}", file=sys.stderr)
    return 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _verdict(
    parent: list[float], change: list[float], wins: int, untied: int, higher: bool, bound: float
) -> str:
    """Judge one (workload, metric) by the rule in the module docstring."""
    sign = 1 if higher else -1  # so that "better" is always "greater"
    parent, change = [sign * v for v in parent], [sign * v for v in change]
    (p1, p_median, p3), (c1, c_median, c3) = _quartiles(parent), _quartiles(change)
    if untied and wins >= 0.9 * untied and c_median - p_median > p3 - p1:
        return "gain"
    if p_median - c_median > bound * abs(p_median):
        return "regression"
    spread = max((p3 - p1) / abs(p_median or 1), (c3 - c1) / abs(c_median or 1))
    if spread > bound and min(change) <= max(parent):
        return "unresolved"
    return "ok"


def table(args: argparse.Namespace) -> int:
    rows = [json.loads(line) for line in Path(args.jsonl).read_text().splitlines() if line]
    claims = {tuple(claim.split(":")) for claim in args.claim}
    problems = []
    print(
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] "
        "| change ÷ parent | change wins | failed p / c | verdict |"
    )
    print("|---|---|---|---|---:|---:|---:|---|")
    for workload in dict.fromkeys(row["workload"] for row in rows):
        by_side = {
            side: {r["pair"]: r for r in rows if r["workload"] == workload and r["side"] == side}
            for side in ("parent", "change")
        }
        pairs = sorted(by_side["parent"].keys() & by_side["change"].keys())
        failures = [sum(by_side[side][p]["failed"] for p in pairs) for side in by_side]
        failed = "{} / {}".format(*failures)
        if any(failures):
            problems.append(f"{workload}: failed operations (parent / change) {failed}")
        for metric in SPEC["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            parent = [by_side["parent"][p]["metrics"][name] for p in pairs]
            change = [by_side["change"][p]["metrics"][name] for p in pairs]
            wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            ties = sum(c == p for p, c in zip(parent, change))
            ratio = statistics.median(change) / statistics.median(parent)
            verdict = _verdict(parent, change, wins, len(pairs) - ties, higher, metric["bound"])
            claimed = (workload, name) in claims
            if verdict == "regression" or (claimed and verdict != "gain"):
                problems.append(f"{workload}:{name}: {'claimed gain, got ' if claimed else ''}{verdict}")
            p_cell, c_cell = (
                "{1:.4g} [{0:.4g}, {2:.4g}]".format(*_quartiles(side)) for side in (parent, change)
            )
            print(
                f"| `{workload}` | `{name}` | {p_cell} | {c_cell} | {ratio:.3f} "
                f"| {wins}/{len(pairs) - ties} | {failed} | {verdict}{' (claimed)' if claimed else ''} |"
            )
            claims.discard((workload, name))
    problems += [f"{':'.join(claim)}: claimed, but not in {args.jsonl}" for claim in sorted(claims)]
    for problem in problems:
        print("FAIL", problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    runner = commands.add_parser("run", help="append paired runs to a JSONL file")
    runner.add_argument("--parent", required=True, help="checkout of the parent commit")
    runner.add_argument("--out", required=True, help="JSONL file to append to")
    runner.add_argument("--pairs", type=int, default=10)
    runner.add_argument("--first-pair", type=int, default=0)
    runner.add_argument("--seed", type=int, default=100, help="pair i runs seed SEED+i")
    runner.add_argument("--workload", action="append", help="repeatable; default all")
    runner.add_argument("--scratch", default=str(REPO_ROOT / ".bench_out"))
    runner.set_defaults(handler=run)
    printer = commands.add_parser("table", help="markdown table of a JSONL file")
    printer.add_argument("jsonl")
    printer.add_argument(
        "--claim",
        action="append",
        default=[],
        metavar="WORKLOAD:METRIC",
        help="repeatable; exit 1 unless this pairing's verdict is `gain`",
    )
    printer.set_defaults(handler=table)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
