"""Workload generators and measurement harnesses."""

from repro.workload.availability import AvailabilityExperiment, PolicyAvailability
from repro.workload.chaos import (
    RENAME_BUG_SEED,
    ChaosConfig,
    ChaosReport,
    chaos_schedule,
    run_chaos,
)
from repro.workload.locality import FileRef, ZipfReferenceGenerator, hit_ratio_estimate
from repro.workload.partitions import (
    PartitionEpoch,
    PartitionTraceGenerator,
    apply_epoch,
    expected_availability_one_copy,
)
from repro.workload.replay import (
    ReplayResult,
    TraceOp,
    decode_schedule,
    decode_trace,
    encode_schedule,
    encode_trace,
    replay_trace,
    synthesize_trace,
)
from repro.workload.updates import BurstyUpdateGenerator, SteadyUpdateGenerator, UpdateEvent
from repro.workload.verify import VerifyReport, replicate_and_verify, state_fingerprint

__all__ = [
    "AvailabilityExperiment",
    "BurstyUpdateGenerator",
    "ChaosConfig",
    "ChaosReport",
    "RENAME_BUG_SEED",
    "chaos_schedule",
    "run_chaos",
    "FileRef",
    "PartitionEpoch",
    "PartitionTraceGenerator",
    "PolicyAvailability",
    "ReplayResult",
    "SteadyUpdateGenerator",
    "TraceOp",
    "UpdateEvent",
    "VerifyReport",
    "ZipfReferenceGenerator",
    "replicate_and_verify",
    "state_fingerprint",
    "apply_epoch",
    "decode_schedule",
    "decode_trace",
    "encode_schedule",
    "encode_trace",
    "replay_trace",
    "synthesize_trace",
    "expected_availability_one_copy",
    "hit_ratio_estimate",
]
