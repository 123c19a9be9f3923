"""E6 (Section 3.2): the update propagation delay policy.

"Rapid propagation enhances the availability of the new version of the
file; delayed propagation may reduce the overall propagation cost when
updates are bursty."

We replay the same bursty update workload while sweeping the propagation
daemon's ``min_age`` (how long a new-version note must ripen before being
pulled) and measure both sides of the trade: pulls performed (cost) and
mean staleness window (how long peers served the old version).
"""

import pytest

from repro.sim import DaemonConfig, FicusSystem
from repro.workload import BurstyUpdateGenerator

BURSTS = dict(burst_size=5, intra_burst_gap=0.2, mean_burst_interval=120.0)
DURATION = 1800.0
DELAYS = [0.0, 1.0, 5.0, 30.0, 120.0]


def run_with_delay(min_age: float, seed: int = 13):
    config = DaemonConfig(
        propagation_period=1.0,
        propagation_min_age=min_age,
        recon_period=None,
        graft_prune_period=None,
    )
    system = FicusSystem(["writer", "reader"], daemon_config=config)
    writer = system.host("writer").fs()
    reader_host = system.host("reader")
    writer.write_file("/hot", b"v0")
    system.run_for(5.0)
    reader_host.propagation_daemon.stats.pulls_succeeded = 0
    reader_host.propagation_daemon.stats.bytes_copied = 0

    events = BurstyUpdateGenerator(["/hot"], seed=seed, **BURSTS).schedule(DURATION, start=system.clock.now())
    updates = 0
    for event in events:
        system.run_for(event.at - system.clock.now())
        writer.write_file(event.path, event.payload)
        updates += 1
    system.run_for(min_age + 10.0)  # let the last notes ripen and drain
    stats = reader_host.propagation_daemon.stats
    return updates, stats.pulls_succeeded, stats.bytes_copied


class TestShape:
    @pytest.fixture(scope="class")
    def sweep(self):
        return {delay: run_with_delay(delay) for delay in DELAYS}

    def test_updates_eventually_propagate_at_every_delay(self, sweep):
        for delay, (updates, pulls, _) in sweep.items():
            assert updates > 10
            assert pulls >= 1, f"delay {delay}: nothing propagated"

    def test_delay_coalesces_bursts(self, sweep):
        """The cost side: with delay >> burst width, one pull serves a
        whole burst, so pulls drop well below the update count."""
        updates, eager_pulls, _ = sweep[0.0]
        _, lazy_pulls, _ = sweep[120.0]
        assert lazy_pulls < eager_pulls
        assert lazy_pulls <= updates / 2  # bursts of ~5 collapse

    def test_overall_cost_reduction_trend(self, sweep):
        """Longer delays never cost more than eager propagation, and the
        longest delay is cheapest (small jitter between middle points is
        expected — bursts land at random offsets within the window)."""
        pulls = [sweep[d][1] for d in DELAYS]
        assert pulls[0] == max(pulls), pulls
        assert pulls[-1] == min(pulls), pulls

    def test_report(self, sweep, capsys):
        with capsys.disabled():
            print("\n[E6] propagation delay policy (bursty updates, 30 virtual minutes):")
            print(f"{'min_age (s)':>12} | {'updates':>8} | {'pulls':>6} | {'bytes':>8}")
            for delay, (updates, pulls, copied) in sweep.items():
                print(f"{delay:>12.1f} | {updates:>8} | {pulls:>6} | {copied:>8}")


def test_staleness_side_of_the_trade(capsys):
    """The availability side: a longer delay widens the window in which a
    reader's local replica is stale."""
    windows = {}
    for delay in [0.0, 60.0]:
        config = DaemonConfig(
            propagation_period=1.0, propagation_min_age=delay,
            recon_period=None, graft_prune_period=None,
        )
        system = FicusSystem(["writer", "reader"], daemon_config=config)
        writer = system.host("writer").fs()
        reader_host = system.host("reader")
        writer.write_file("/f", b"v0")
        system.run_for(delay + 5.0)
        writer.write_file("/f", b"v1")
        written_at = system.clock.now()
        # poll the reader's LOCAL replica until it serves v1
        volrep = next(l.volrep for l in system.root_locations if l.host == "reader")
        store = reader_host.physical.store_for(volrep)
        fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "f")
        while store.stored_file(store.root_handle(), fh).read_all() != b"v1":
            system.run_for(1.0)
        windows[delay] = system.clock.now() - written_at
    with capsys.disabled():
        print(f"\n[E6] staleness window: eager={windows[0.0]:.1f}s lazy={windows[60.0]:.1f}s")
    assert windows[60.0] > windows[0.0]


@pytest.mark.parametrize("delay", [0.0, 30.0])
def test_bench_propagation_run(benchmark, delay):
    benchmark(run_with_delay, delay)
