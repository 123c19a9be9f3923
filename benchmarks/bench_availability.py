"""E5 (Sections 1, 3): one-copy availability vs. the classical protocols.

"One-copy availability provides strictly greater availability than
primary copy, voting, weighted voting, and quorum consensus."

The one-copy column is a real five-host ``FicusSystem`` — each operation
a ``write_file``/``read_file`` from the requester's own host — and every
other policy runs as a working replicated register on that system's
network, all against identical partition traces; the table printed here
is the measured analogue of the paper's claim, and the assertions pin the
shape: one-copy >= everyone, everywhere, with the conflicts the cluster's
reconciliation resolved shown as the price.
"""

import pytest

from repro.workload import AvailabilityExperiment

FAILURE_PROBS = [0.1, 0.3, 0.5, 0.7, 0.9]
POLICIES = ["one-copy", "primary-copy", "majority-voting", "weighted-voting", "quorum-consensus"]


def run_experiment(prob: float, epochs: int = 120):
    return AvailabilityExperiment(
        num_hosts=5, link_failure_prob=prob, epochs=epochs, seed=42
    ).run()


class TestShape:
    @pytest.fixture(scope="class")
    def sweep(self):
        return {prob: run_experiment(prob) for prob in FAILURE_PROBS}

    def test_one_copy_dominates_every_policy_at_every_failure_rate(self, sweep):
        for prob, results in sweep.items():
            one = results["one-copy"]
            for name in POLICIES[1:]:
                other = results[name]
                assert one.write_availability >= other.write_availability, (prob, name)
                assert one.read_availability >= other.read_availability, (prob, name)

    def test_one_copy_total_when_every_host_stores_a_replica(self, sweep):
        for results in sweep.values():
            assert results["one-copy"].write_availability == 1.0
            assert results["one-copy"].read_availability == 1.0

    def test_gap_widens_as_partitions_worsen(self, sweep):
        """The crossover shape: at low failure rates everyone is close;
        at high failure rates quorum policies collapse while one-copy
        stays at 1.0."""
        gap = {
            prob: results["one-copy"].write_availability
            - results["majority-voting"].write_availability
            for prob, results in sweep.items()
        }
        assert gap[0.1] < 0.1
        assert gap[0.9] > 0.5
        assert gap[0.9] > gap[0.5] > gap[0.1]

    def test_conflicts_only_under_one_copy(self, sweep):
        results = sweep[0.5]
        assert results["one-copy"].conflicts > 0
        for name in POLICIES[1:]:
            assert results[name].conflicts == 0

    def test_report(self, sweep, capsys):
        with capsys.disabled():
            print("\n[E5] write availability (5 replicas, 120 epochs/point):")
            header = f"{'p(link down)':>12} | " + " | ".join(f"{n:>16}" for n in POLICIES)
            print(header)
            for prob, results in sweep.items():
                row = " | ".join(f"{results[n].write_availability:>16.3f}" for n in POLICIES)
                print(f"{prob:>12.1f} | {row}")
            print("one-copy conflicts per point:", [sweep[p]["one-copy"].conflicts for p in FAILURE_PROBS])


@pytest.mark.parametrize("prob", [0.3, 0.7])
def test_bench_availability_experiment(benchmark, prob):
    benchmark(run_experiment, prob, 30)
