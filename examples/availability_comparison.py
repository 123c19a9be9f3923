#!/usr/bin/env python3
"""One-copy availability versus the classical replica-control protocols.

Runs Ficus (a real five-host ``FicusSystem``) and four register policies
(primary copy, majority voting, weighted voting, quorum consensus) against
identical random partition traces and prints read/write availability — the
comparison behind the paper's claim that "one-copy availability provides
strictly greater availability than primary copy, voting, weighted voting,
and quorum consensus."  Each failure rate is run once; the write, read and
conflict tables all come from that run.

Run:  python examples/availability_comparison.py
"""

from repro.workload import AvailabilityExperiment

FAILURE_PROBS = [0.1, 0.3, 0.5, 0.7, 0.9]
POLICIES = ["one-copy", "primary-copy", "majority-voting", "weighted-voting", "quorum-consensus"]
EPOCHS = 200


def main() -> None:
    sweep = {
        prob: AvailabilityExperiment(
            num_hosts=5, link_failure_prob=prob, epochs=EPOCHS, seed=42
        ).run()
        for prob in FAILURE_PROBS
    }
    print(f"availability vs link failure probability (5 replicas, {EPOCHS} epochs)")
    header = f"{'p(link down)':>12} | " + " | ".join(
        f"{name:>16}" for name in ["one-copy", "primary-copy", "majority", "weighted", "quorum"]
    )
    for title, column in [("WRITE", "write_availability"), ("READ", "read_availability")]:
        print(f"\n{title} availability")
        print(header)
        print("-" * len(header))
        for prob, results in sweep.items():
            row = [getattr(results[name], column) for name in POLICIES]
            print(f"{prob:>12.1f} | " + " | ".join(f"{v:>16.3f}" for v in row))

    print("\nthe price of optimism: conflicts reconciliation resolved under one-copy (others: 0 by construction)")
    for prob, results in sweep.items():
        print(f"  p={prob:.1f}: {results['one-copy'].conflicts} conflicts over {EPOCHS} epochs")


if __name__ == "__main__":
    main()
