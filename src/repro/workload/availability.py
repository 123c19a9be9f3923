"""Availability measurement harness (experiment E5).

Runs Ficus and the four classical replica-control policies against
identical partition traces and records, per policy, the fraction of read
and update operations that were permitted — the comparison behind the
paper's "strictly greater availability" claim.  The one-copy column is a
real :class:`~repro.sim.FicusSystem` with a replica on every host: each
operation is a ``read_file``/``write_file`` of one file from the
requester's own facade, and its conflicts are the ones the cluster's
reconciliation daemons counted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.baselines import (
    MajorityVotingRegister,
    PrimaryCopyRegister,
    QuorumConsensusRegister,
    WeightedVotingRegister,
)
from repro.errors import FicusError
from repro.sim import DaemonConfig, FicusSystem
from repro.workload.partitions import PartitionTraceGenerator, apply_epoch

ONE_COPY = "one-copy"
#: the register file; its suffix selects the shipped last-writer-wins
#: resolver, so a partitioned write pair merges at the next heal
REGISTER_PATH = "/register.lww"
#: the daemons stay off: the harness heals and reconciles after each epoch
QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


@dataclass
class PolicyAvailability:
    """Measured availability of one policy over one trace."""

    policy: str
    reads_attempted: int = 0
    reads_succeeded: int = 0
    writes_attempted: int = 0
    writes_succeeded: int = 0
    conflicts: int = 0

    @property
    def read_availability(self) -> float:
        return self.reads_succeeded / self.reads_attempted if self.reads_attempted else 0.0

    @property
    def write_availability(self) -> float:
        return self.writes_succeeded / self.writes_attempted if self.writes_attempted else 0.0


def reconciled_conflicts(system: FicusSystem) -> int:
    """Every conflict the cluster's reconciliation met: resolved
    automatically or left for the owner, summed over the hosts."""
    return sum(
        host.recon_daemon.stats.total_auto_resolved + host.recon_daemon.stats.total_conflicts
        for host in system.hosts.values()
    )


@dataclass
class AvailabilityExperiment:
    """One full policy-comparison run."""

    num_hosts: int = 5
    link_failure_prob: float = 0.3
    epochs: int = 200
    ops_per_epoch: int = 4
    write_fraction: float = 0.5
    seed: int = 0
    results: dict[str, PolicyAvailability] = field(default_factory=dict)

    def run(self) -> dict[str, PolicyAvailability]:
        hosts = [f"h{i}" for i in range(self.num_hosts)]
        system = FicusSystem(hosts, daemon_config=QUIET)
        system.enable_resolvers()
        network = system.network
        system.host(hosts[0]).fs().write_file(REGISTER_PATH, b"")
        system.reconcile_everything()

        facades = {host: system.host(host).fs() for host in hosts}
        policies = {
            ONE_COPY: (
                lambda requester: facades[requester].read_file(REGISTER_PATH),
                lambda requester, value: facades[requester].write_file(REGISTER_PATH, value),
            )
        }
        for register in [
            PrimaryCopyRegister(network, hosts, "pri"),
            MajorityVotingRegister(network, hosts, "maj"),
            WeightedVotingRegister(network, hosts, "wv"),
            QuorumConsensusRegister(network, hosts, "qc"),
        ]:
            policies[register.policy_name] = (register.read, register.write)
        self.results = {name: PolicyAvailability(name) for name in policies}

        trace_gen = PartitionTraceGenerator(hosts, self.link_failure_prob, seed=self.seed)
        op_rng = random.Random(self.seed + 1)

        for _ in range(self.epochs):
            epoch = trace_gen.next_epoch()
            apply_epoch(network, epoch)
            # the same operation sequence is issued against every policy
            ops = [
                (op_rng.choice(hosts), op_rng.random() < self.write_fraction)
                for _ in range(self.ops_per_epoch)
            ]
            for requester, is_write in ops:
                payload = f"v-{epoch.index}-{requester}".encode()
                for name, (read, write) in policies.items():
                    stats = self.results[name]
                    if is_write:
                        stats.writes_attempted += 1
                        try:
                            write(requester, payload)
                            stats.writes_succeeded += 1
                        except FicusError:
                            pass
                    else:
                        stats.reads_attempted += 1
                        try:
                            read(requester)
                            stats.reads_succeeded += 1
                        except FicusError:
                            pass
            # healing + reconciliation after every epoch keeps one-copy
            # conflicts bounded
            system.heal()
            system.reconcile_everything()
        self.results[ONE_COPY].conflicts = reconciled_conflicts(system)
        return self.results
