"""The schedule version as a checked rule: chaos stdout changes only with
a new ``SCHEDULE_HEADER``.

CI runs three chaos commands (``.github/workflows/ci.yml``: "Chaos
convergence matrix", "Chaos under gossip anti-entropy" and
"Replicate-and-verify replay") and tees each one's stdout to a file;
:data:`COMMANDS` holds their arguments, in that order.
``chaos_digests.json`` beside this file holds the SHA-256 of each
command's stdout, keyed by the schedule version that printed it::

    python -m repro.tools.ficus_chaos <args> | tee <file>   # per command
    python benchmarks/chaos_digests.py FILE FILE FILE            # check; exit 1 on a violation
    python benchmarks/chaos_digests.py --record FILE FILE FILE   # record the current version's

A check fails when the current version has no digests recorded, or when a
command's stdout differs from its digest under the current version —
stdout changed and the version did not.  ``--record`` refuses to replace
digests already recorded under the current version: a change of stdout
needs a new version, and the change that bumps it says which seeds
changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.workload.replay import SCHEDULE_HEADER  # noqa: E402

TABLE = os.path.join(ROOT, "benchmarks", "chaos_digests.json")

#: the arguments of ``python -m repro.tools.ficus_chaos`` in each CI step
COMMANDS = (
    "--seeds 11 17 23 --rename-storm-seed 1990 --crash-seed 31 --resolver-seed 42",
    "--seeds 11 17 23 --topology gossip",
    "--seeds 7 --verify-seed 7",
)


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def violations(table: dict[str, dict[str, str]], version: str, found: dict[str, str]) -> list[str]:
    """What breaks the rule when the commands printed ``found`` (args ->
    digest) under ``version``."""
    recorded = table.get(version)
    if recorded is None:
        return [f"no stdout digests recorded for {version}: run chaos_digests.py --record"]
    return [
        f"ficus_chaos {args}: stdout changed under {version}; bump SCHEDULE_HEADER and list the changed seeds"
        for args, digest in found.items()
        if recorded.get(args) != digest
    ]


def load_table() -> dict[str, dict[str, str]]:
    with open(TABLE) as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="record the current version's digests")
    parser.add_argument("stdout", nargs=len(COMMANDS), help="each command's stdout, in COMMANDS order")
    args = parser.parse_args(argv)
    table = load_table() if os.path.exists(TABLE) else {}
    found = {command: file_digest(path) for command, path in zip(COMMANDS, args.stdout)}
    if args.record:
        if table.get(SCHEDULE_HEADER, found) != found:
            print(f"digests for {SCHEDULE_HEADER} are recorded and differ: bump SCHEDULE_HEADER first")
            return 1
        table[SCHEDULE_HEADER] = found
        with open(TABLE, "w") as handle:
            json.dump(table, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded {SCHEDULE_HEADER}")
        return 0
    problems = violations(table, SCHEDULE_HEADER, found)
    for problem in problems:
        print(problem)
    if not problems:
        print(f"chaos stdout matches {SCHEDULE_HEADER}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
