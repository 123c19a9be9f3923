"""Reconciliation: file propagation, directory merge, subtree protocol."""

from repro.recon.conflicts import ConflictKind, ConflictLog, ConflictReport
from repro.recon.directory import DirReconResult, reconcile_directory
from repro.recon.gc import GcResult, collect_directory, collect_volume_replica
from repro.recon.propagate import PullOutcome, PullResult, pull_children, pull_file, push_notify_pull
from repro.recon.protocol import SubtreeReconResult, reconcile_subtree
from repro.recon.resolve import resolve_file_conflict

__all__ = [
    "ConflictKind",
    "ConflictLog",
    "ConflictReport",
    "DirReconResult",
    "GcResult",
    "collect_directory",
    "collect_volume_replica",
    "PullOutcome",
    "PullResult",
    "SubtreeReconResult",
    "pull_children",
    "pull_file",
    "push_notify_pull",
    "reconcile_directory",
    "reconcile_subtree",
    "resolve_file_conflict",
]
