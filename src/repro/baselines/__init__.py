"""Baseline replica-control protocols for the availability comparison."""

from repro.baselines.registers import (
    MajorityVotingRegister,
    PrimaryCopyRegister,
    QuorumConsensusRegister,
    ReplicatedRegister,
    SiteState,
    WeightedVotingRegister,
)

__all__ = [
    "MajorityVotingRegister",
    "PrimaryCopyRegister",
    "QuorumConsensusRegister",
    "ReplicatedRegister",
    "SiteState",
    "WeightedVotingRegister",
]
