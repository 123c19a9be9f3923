"""Alternating parent/change runs of the repo benchmark, and their table.

The rule a performance claim is judged by (``BENCHMARK.json``, the
choosing-metrics guide): at least ten pairs of (parent commit, change),
alternating which side runs first, each pair on its own seed; the change
must win the claimed metric on nine pairs of ten and the medians must
differ by more than the parent's own quartile spread, while every other
end-to-end metric on every workload stays within its bound.

    git clone . /tmp/parent && git -C /tmp/parent checkout <parent-commit>
    python benchmarks/paired_runs.py run --parent /tmp/parent --out pairs.jsonl
    python benchmarks/paired_runs.py table pairs.jsonl      # markdown, from the JSONL

``run`` appends one JSON line per (pair, workload, side) so an interrupted
batch resumes by re-running with a higher ``--first-pair``; ``table``
prints, per workload and end-to-end metric, each side's median and
quartiles, the ratio of medians, and how many pairs the change won.
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


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def table(args: argparse.Namespace) -> int:
    rows = [json.loads(line) for line in Path(args.jsonl).read_text().splitlines() if line]
    print(
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] "
        "| change ÷ parent | change wins | failed p / c |"
    )
    print("|---|---|---|---|---:|---:|---:|")
    for workload in dict.fromkeys(row["workload"] for row in rows):
        by_side = {
            side: {r["pair"]: r for r in rows if r["workload"] == workload and r["side"] == side}
            for side in ("parent", "change")
        }
        pairs = sorted(by_side["parent"].keys() & by_side["change"].keys())
        failed = "{} / {}".format(*(sum(by_side[s][p]["failed"] for p in pairs) for s in by_side))
        for metric in SPEC["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            parent = [by_side["parent"][p]["metrics"][name] for p in pairs]
            change = [by_side["change"][p]["metrics"][name] for p in pairs]
            wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            ties = sum(c == p for p, c in zip(parent, change))
            ratio = statistics.median(change) / statistics.median(parent)
            print(
                f"| `{workload}` | `{name}` | {_quartiles(parent)} | {_quartiles(change)} "
                f"| {ratio:.3f} | {wins}/{len(pairs) - ties} | {failed} |"
            )
    return 0


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
    printer.set_defaults(handler=table)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
