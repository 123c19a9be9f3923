"""Conflict reporting and resolution.

"Conflicting updates to directories are detected and automatically
repaired; conflicting updates to ordinary files are detected and reported
to the owner" (paper abstract).  The conflict log is the "reported to the
owner" half; directory repair happens inside the reconciliation algorithm
and is merely *counted* here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.util import FicusFileHandle, VolumeId
from repro.vv import VersionVector


class ConflictKind(enum.Enum):
    #: Concurrent updates to one regular file's replicas.
    FILE_UPDATE = "file-update"
    #: Two live entries claimed the same name (repaired automatically).
    NAME_COLLISION = "name-collision"


@dataclass
class ConflictReport:
    """One detected conflict, addressed to the file's owner."""

    kind: ConflictKind
    volume: VolumeId
    parent_fh: FicusFileHandle
    fh: FicusFileHandle
    name: str
    local_vv: VersionVector
    remote_vv: VersionVector
    remote_host: str
    detected_at: float
    resolved: bool = False


class ConflictLog:
    """Per-host accumulator of conflict reports (deduplicated)."""

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        self._reports: list[ConflictReport] = []
        (telemetry or NULL_TELEMETRY).metrics.add_source(
            "recon", lambda: {"conflicts_reported": len(self._reports)}
        )

    def report(self, conflict: ConflictReport) -> bool:
        """Add a report unless an unresolved equivalent is already logged.

        Returns True when the report is new.
        """
        for existing in self._reports:
            if (
                not existing.resolved
                and existing.kind == conflict.kind
                and existing.fh == conflict.fh
                and existing.parent_fh == conflict.parent_fh
                and existing.local_vv == conflict.local_vv
                and existing.remote_vv == conflict.remote_vv
            ):
                return False
        self._reports.append(conflict)
        return True

    def unresolved(self) -> list[ConflictReport]:
        return [r for r in self._reports if not r.resolved]

    def all_reports(self) -> list[ConflictReport]:
        return list(self._reports)

    def mark_resolved(self, fh: FicusFileHandle, superseding_vv=None) -> int:
        """Mark unresolved reports about ``fh`` resolved.

        With ``superseding_vv`` (the version vector of the newly installed
        contents) only reports whose recorded conflicting vvs are *both*
        strictly dominated are marked: a version that merely replaces our
        side of one conflict episode does not settle a concurrent third
        version, and that episode must stay open until a true superseding
        resolution lands.  Without a vv every report is marked (an
        operator override).
        """
        count = 0
        for report in self._reports:
            if report.resolved or report.fh != fh:
                continue
            if superseding_vv is not None and not (
                superseding_vv.strictly_dominates(report.local_vv)
                and superseding_vv.strictly_dominates(report.remote_vv)
            ):
                continue
            report.resolved = True
            count += 1
        return count

    def __len__(self) -> int:
        return len(self._reports)
