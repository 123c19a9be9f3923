"""``ficus_chaos``: seeded chaos convergence runs from the command line.

Each run is :func:`~repro.workload.chaos.run_chaos` and prints one line;
the exit status is 1 if any run diverged.  CI runs, among others::

    python -m repro.tools.ficus_chaos --seeds 11 17 23 --rename-storm-seed 1990 --crash-seed 31
    python -m repro.tools.ficus_chaos --seeds 7 --verify-seed 7
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.sim import TOPOLOGIES
from repro.workload.chaos import ChaosConfig, run_chaos
from repro.workload.replay import SCHEDULE_HEADER


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Seeded chaos convergence runs")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 17, 23])
    parser.add_argument(
        "--rename-storm-seed",
        type=int,
        default=None,
        help="additionally run this seed with the cross-host rename collision replay",
    )
    parser.add_argument(
        "--crash-seed",
        type=int,
        default=None,
        help="additionally run this seed with seeded host crash/restart epochs",
    )
    parser.add_argument(
        "--resolver-seed",
        type=int,
        default=None,
        help="additionally run this seed with automatic conflict resolvers "
        "and covered append-log traffic in the mix",
    )
    parser.add_argument(
        "--verify-seed",
        type=int,
        default=None,
        help="additionally run this seed, then execute its schedule again on a "
        "fresh cluster and byte-diff the two "
        "(with the wall-clock staleness SLO gated)",
    )
    parser.add_argument(
        "--staleness-slo",
        type=float,
        default=60.0,
        help="staleness bound in virtual seconds applied to the --verify-seed run",
    )
    parser.add_argument("--hosts", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--dump-dir", default="out", help="where a diverged run dumps its flight recorders")
    parser.add_argument(
        "--topology",
        choices=sorted(TOPOLOGIES),
        default="full_mesh",
        help="peer-selection strategy for both daemons (default: full_mesh, "
        "which replays historical seed schedules byte-identically)",
    )
    args = parser.parse_args(argv)

    base = ChaosConfig(host_count=args.hosts, rounds=args.rounds, topology=args.topology)
    runs = [(seed, base) for seed in args.seeds]
    if args.rename_storm_seed is not None:
        runs.append((args.rename_storm_seed, replace(base, rename_storm=True)))
    if args.crash_seed is not None:
        runs.append((args.crash_seed, replace(base, crash_prob=0.25)))
    if args.resolver_seed is not None:
        runs.append((args.resolver_seed, replace(base, resolvers=True)))
    if args.verify_seed is not None:
        runs.append(
            (
                args.verify_seed,
                replace(
                    base,
                    verify_replication=True,
                    staleness_slo_seconds=args.staleness_slo,
                    clock_step=1.0,
                ),
            )
        )

    failures = 0
    for seed, config in runs:
        report = run_chaos(seed, config, dump_dir=args.dump_dir)
        status = "converged" if report.converged else "DIVERGED"
        storm = "" if config.topology == "full_mesh" else f" [{config.topology}]"
        storm += " +rename-storm" if config.rename_storm else ""
        if config.resolvers:
            storm += f" +resolvers({report.auto_resolved} auto-resolved)"
        if config.verify_replication:
            verdict = "replay identical" if report.verify.identical else "REPLAY DIVERGED"
            # the schedule's version names what its recorded steps do
            storm += (
                f" +verify({SCHEDULE_HEADER}, {len(report.schedule)} ops recorded, {verdict}, "
                f"staleness {report.max_staleness_seconds:g}s)"
            )
        crashes = f", {report.crashes} crashes" if config.crash_prob else ""
        print(
            f"seed {seed}{storm}: {status}; "
            f"{report.ops_attempted} ops ({report.ops_failed} failed), "
            f"{report.partitions_formed} partitions{crashes}, "
            f"faults {report.faults_injected or '{}'}, "
            f"{report.unresolved_conflicts} conflicts open"
        )
        for problem in report.problems:
            print(f"  !! {problem}")
        for path in report.flight_dumps:
            print(f"  flight recorder dumped: {path}")
        failures += 0 if report.converged else 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
