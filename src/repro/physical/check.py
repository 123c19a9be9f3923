"""Integrity checker for Ficus physical-layer storage ("ficus-fsck").

Validates the structural invariants of one volume replica's on-disk
organization, the way :func:`repro.ufs.fsck` validates UFS structure:

* every directory's entry file decodes, and entry-ids are unique;
* no directory holds two live entries with the same (name, handle) pair
  (the cross-host same-name rename artifact reconciliation must resolve);
* live file/symlink entries either have contents in the naming directory
  and a record in the attribute table, or are awaiting propagation
  (entry-only);
* records agree with their entries (handle, type);
* directory reference counts in the records equal the number of live
  entries naming the directory across the whole replica, and a file's
  equal the Unix directories storing its contents;
* every record's object is stored: no record of a file whose contents
  are stored nowhere, or of a directory with no storage;
* directory storage is reachable: every ``nodes/`` directory except the
  volume root is named by at least one live entry (or is a tolerated
  orphan awaiting the GC daemon);
* no stray objects inside the underlying Unix directories (everything is
  a known file or metadata name), and no contents without a record;
* LOCATION entries appear only inside graft points;
* the id mints are ahead of every issued id.

Used by tests as an oracle after arbitrary operation/recon/crash
sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FicusError
from repro.physical.store import DIR_TYPES, ReplicaStore, handle_of, volume_root_handle
from repro.physical.wire import FDIR_NAME, EntryType
from repro.util import FicusFileHandle


@dataclass
class FicusCheckReport:
    """Findings of one checker run; clean when ``problems`` is empty."""

    problems: list[str] = field(default_factory=list)
    directories_checked: int = 0
    entries_checked: int = 0
    #: live file entries whose contents have not been propagated here yet
    entries_awaiting_contents: int = 0
    #: directory storage with zero live names (tolerated, GC's job)
    orphan_directories: int = 0

    @property
    def clean(self) -> bool:
        return not self.problems

    def complain(self, message: str) -> None:
        self.problems.append(message)


def ficus_fsck(store: ReplicaStore, conflict_log=None, resolvers=None) -> FicusCheckReport:
    """Check every structural invariant of one volume replica.

    With ``conflict_log`` the checker also audits conflict-resolution
    bookkeeping: a report marked resolved is only believable when the
    file's current version vector strictly dominates both conflicting
    vvs the report recorded.  With ``resolvers`` (a registry) it further
    complains about any file still sitting unresolved in the log whose
    type a registered resolver covers — automatic resolution should have
    cleared it.  Both arguments are duck-typed so this module keeps no
    dependency on the reconciliation layer.
    """
    report = FicusCheckReport()
    root_fh = volume_root_handle(store.volume)

    try:
        all_dirs = store.all_directory_handles()
    except FicusError as exc:
        report.complain(f"cannot enumerate directories: {exc}")
        return report

    dir_set = set(all_dirs)
    if root_fh not in dir_set:
        report.complain("volume root directory storage missing")
        return report

    #: directory fh -> live references observed across the replica
    dir_refs: dict[FicusFileHandle, int] = {fh: 0 for fh in dir_set}
    #: file fh -> Unix directories storing its contents
    stored_names: dict[FicusFileHandle, int] = {}
    issued_uniques: list[int] = []
    issued_seqs: list[int] = []

    for dir_fh in sorted(dir_set, key=lambda fh: fh.to_hex()):
        report.directories_checked += 1
        try:
            entries = store.read_entries(dir_fh)
        except FicusError as exc:
            report.complain(f"dir {dir_fh}: unreadable entry file ({exc})")
            continue
        try:
            dir_aux = store.read_record(dir_fh)
        except FicusError as exc:
            report.complain(f"dir {dir_fh}: unreadable aux ({exc})")
            continue
        if dir_aux.fh != dir_fh:
            report.complain(f"dir {dir_fh}: aux names {dir_aux.fh}")
        is_graft = dir_aux.etype == EntryType.GRAFT_POINT

        seen_eids = set()
        live_name_fh: set[tuple[str, FicusFileHandle]] = set()
        expected_names = {FDIR_NAME}
        for entry in entries:
            report.entries_checked += 1
            if entry.eid in seen_eids:
                report.complain(f"dir {dir_fh}: duplicate entry id {entry.eid.encode()}")
            seen_eids.add(entry.eid)
            if entry.live:
                # two live entries with the same (name, fh) are one
                # user-level object named twice — a merge artifact that
                # reconciliation must resolve, never persist
                key = (entry.name, entry.fh)
                if key in live_name_fh:
                    report.complain(
                        f"dir {dir_fh}: duplicate live entry {entry.name!r} -> {entry.fh}"
                    )
                live_name_fh.add(key)
            if entry.eid.replica_id == store.replica_id:
                issued_seqs.append(entry.eid.seq)
            if entry.fh.file_id.issuing_replica == store.replica_id:
                issued_uniques.append(entry.fh.file_id.unique)
            if entry.etype == EntryType.LOCATION:
                if not is_graft:
                    report.complain(
                        f"dir {dir_fh}: LOCATION entry {entry.name!r} outside a graft point"
                    )
                continue
            if not entry.live:
                continue
            if entry.etype in (EntryType.DIRECTORY, EntryType.GRAFT_POINT):
                if entry.fh not in dir_set:
                    report.complain(
                        f"dir {dir_fh}: live entry {entry.name!r} -> missing directory {entry.fh}"
                    )
                else:
                    dir_refs[entry.fh] += 1
                continue
            # FILE / SYMLINK
            key = entry.fh.to_hex()
            stored = store.stored_file(dir_fh, entry.fh) is not None
            if stored and store.has_record(entry.fh):
                expected_names.add(key)
                try:
                    aux = store.read_record(entry.fh)
                except FicusError as exc:
                    report.complain(f"dir {dir_fh}: {entry.name!r} unreadable aux ({exc})")
                    continue
                if aux.fh != entry.fh:
                    report.complain(
                        f"dir {dir_fh}: {entry.name!r} aux names {aux.fh}, entry names {entry.fh}"
                    )
                if aux.etype != entry.etype:
                    report.complain(
                        f"dir {dir_fh}: {entry.name!r} aux type {aux.etype} != entry {entry.etype}"
                    )
            elif not stored:
                # entry-only: contents arrive later by propagation
                report.entries_awaiting_contents += 1

        # stray-object sweep of the underlying Unix directory
        try:
            unix_dir = store.dir_unix_vnode(dir_fh)
            for dirent in unix_dir.readdir():
                name = dirent.name
                if name in (".", "..", FDIR_NAME):
                    continue
                child = handle_of(name)
                if child is not None and store.has_record(child):
                    stored_names[child] = stored_names.get(child, 0) + 1
                if name in expected_names:
                    continue
                if child is None:
                    report.complain(f"dir {dir_fh}: unrecognized name {name!r}")
                elif not store.has_record(child):
                    report.complain(f"dir {dir_fh}: contents without a record {name!r}")
                else:
                    # storage for a dead or unknown entry: a leak
                    report.complain(f"dir {dir_fh}: stray object {name!r}")
        except FicusError as exc:
            report.complain(f"dir {dir_fh}: cannot sweep unix directory ({exc})")

    # reference counts and reachability
    for dir_fh, observed in dir_refs.items():
        if dir_fh == root_fh:
            continue
        try:
            recorded = store.read_record(dir_fh).refs
        except FicusError:
            continue  # already complained above
        if observed == 0:
            report.orphan_directories += 1
        elif recorded != observed:
            report.complain(
                f"dir {dir_fh}: aux refs={recorded} but {observed} live names observed"
            )

    # every record's object is stored, and a file's counts its names
    for fh in store.record_handles():
        try:
            aux = store.read_record(fh)
        except FicusError as exc:
            report.complain(f"record {fh}: unreadable ({exc})")
            continue
        if aux.etype in DIR_TYPES:
            if fh not in dir_set:
                report.complain(f"record of directory {fh} stored nowhere")
        elif fh not in stored_names:
            report.complain(f"record of file {fh} stored nowhere")
        elif aux.refs != stored_names[fh]:
            report.complain(f"file {fh}: record refs={aux.refs} but {stored_names[fh]} stored names")

    # id mints must be ahead of everything issued
    meta = store._read_meta()
    next_unique = int(meta["next_unique"])
    next_seq = int(meta["next_seq"])
    if issued_uniques and max(issued_uniques) >= next_unique:
        report.complain(
            f"file-id mint behind: next_unique={next_unique}, max issued={max(issued_uniques)}"
        )
    if issued_seqs and max(issued_seqs) >= next_seq:
        report.complain(
            f"entry-id mint behind: next_seq={next_seq}, max issued={max(issued_seqs)}"
        )

    if conflict_log is not None:
        _check_conflict_bookkeeping(store, report, conflict_log, resolvers)
    return report


def _check_conflict_bookkeeping(
    store: ReplicaStore, report: FicusCheckReport, conflict_log, resolvers
) -> None:
    """Audit the conflict log against the stored replica state."""
    for conflict in conflict_log.all_reports():
        if getattr(conflict.kind, "value", conflict.kind) != "file-update":
            continue
        if conflict.volume != store.volume:
            continue
        try:
            if store.stored_file(conflict.parent_fh, conflict.fh) is None:
                continue  # dropped, renamed away, or never propagated here
            aux = store.read_record(conflict.fh)
        except FicusError:
            continue  # structural problems are complained about elsewhere
        if conflict.resolved:
            # a resolution installed local_vv.merge(remote_vv) (or a later
            # descendant of it), which strictly dominates both inputs of
            # the concurrent pair; anything weaker means the resolution
            # was recorded without actually superseding both histories
            for label, seen in (("local", conflict.local_vv), ("remote", conflict.remote_vv)):
                if not aux.vv.strictly_dominates(seen):
                    report.complain(
                        f"conflict on {conflict.name!r} ({conflict.fh}) marked resolved "
                        f"but current vv {aux.vv.encode() or '0'} does not strictly "
                        f"dominate {label} vv {seen.encode() or '0'}"
                    )
        elif resolvers is not None and resolvers.covers(conflict.name, aux.merge_policy):
            report.complain(
                f"resolver-covered file {conflict.name!r} ({conflict.fh}) "
                f"sits unresolved in the conflict log"
            )
