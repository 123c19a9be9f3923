"""Vnodes exported by the Ficus logical layer (the client-facing view).

These vnodes name *logical* files: no replica is pinned in the vnode
itself.  Every operation selects a replica at call time, which is what
makes the layer tolerant of replicas vanishing mid-use — a read that loses
its replica to a partition simply fails over to another copy.
"""

from __future__ import annotations

from functools import partial

from repro.errors import (
    AllReplicasUnavailable,
    CrossDevice,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from repro.physical import EntryType, decode_directory, effective_entries, volume_root_handle
from repro.physical.vnodes import ENTRY_FILE_TYPES
from repro.telemetry import spanned
from repro.ufs.inode import FileAttributes
from repro.util import FicusFileHandle, VolumeId
from repro.vnode.interface import (
    ROOT_CTX,
    DirEntry,
    OpContext,
    SetAttrs,
    Vnode,
    read_whole,
)
from repro.volume import locations_from_entries

_spanned = partial(spanned, layer="logical", host="layer.host_addr")


class LogicalDirVnode(Vnode):
    """A logical directory: one name, many replicas underneath."""

    def __init__(self, layer: "FicusLogicalLayer", volume: VolumeId, fh: FicusFileHandle):  # noqa: F821
        self.layer = layer
        self.volume = volume
        self.fh = fh
        # the tracer is created once per Telemetry hub and never replaced,
        # so binding it here saves two attribute hops on every operation
        self._tracer = layer.telemetry.tracer

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LogicalDirVnode)
            and other.layer is self.layer
            and other.volume == self.volume
            and other.fh == self.fh
        )

    def __hash__(self) -> int:
        return hash((id(self.layer), self.volume, self.fh))

    # -- helpers ----------------------------------------------------------

    def _autograft(self, entry, ctx: OpContext = ROOT_CTX) -> "LogicalDirVnode":
        """Cross into the volume a graft point names (paper Section 4.4).

        The graft point's location entries teach the graft table; the
        fabric grafts a replica when an access first needs one.  They are
        read through the graft point's held view: the table never forgets
        a location, and a new one reaches the view through its update
        notification or the batch's TTL."""
        layer = self.layer
        target_volume = VolumeId.from_hex(entry.data)
        graft_entries = layer.dir_view(self.volume, entry.fh, ctx)
        locations = locations_from_entries(target_volume, graft_entries.values())
        if locations:
            layer.graft_table.learn(target_volume, locations)
        if not any(
            layer.network.reachable(layer.host_addr, loc.host)
            for loc in layer.graft_table.candidates(target_volume)
        ):
            raise AllReplicasUnavailable(f"no reachable replica of {target_volume}")
        return LogicalDirVnode(layer, target_volume, volume_root_handle(target_volume))

    def _child(self, entry, ctx: OpContext = ROOT_CTX) -> Vnode:
        if entry.etype == EntryType.GRAFT_POINT:
            return self._autograft(entry, ctx)
        if entry.etype == EntryType.DIRECTORY:
            return LogicalDirVnode(self.layer, self.volume, entry.fh)
        return LogicalFileVnode(self.layer, self.volume, self.fh, entry.fh, entry.etype)

    def _retry_stale(self, operation, ctx: OpContext):
        """Every replica operation of this directory runs under the layer's
        one stale-handle rule.  Each reads through a held handle before it
        changes anything, so the retry never repeats a change."""
        return self.layer.retry_stale(self.volume, self.fh, operation, ctx=ctx)

    def _first_dir(self, ctx: OpContext) -> Vnode:
        return self.layer.first_dir(self.volume, self.fh, ctx).dir_vnode

    def _update_dir(self, ctx: OpContext):
        return self.layer.select_update_replica(self.volume, self.fh, ctx=ctx)

    # -- lifetime --

    def open(self, ctx: OpContext = ROOT_CTX) -> None:
        """Accepted: a directory changes only through its namespace
        operations, so it has no update session to begin."""

    def close(self, ctx: OpContext = ROOT_CTX) -> None:
        """Accepted, like :meth:`open`."""

    def inactive(self) -> None:
        """No per-vnode state to tear down."""

    # -- attributes --

    def getattr(self, ctx: OpContext = ROOT_CTX) -> FileAttributes:
        return self._retry_stale(lambda: self._first_dir(ctx).getattr(ctx), ctx)

    def setattr(self, attrs: SetAttrs, ctx: OpContext = ROOT_CTX) -> None:
        self._retry_stale(lambda: self._update_dir(ctx).dir_vnode.setattr(attrs, ctx), ctx)

    def access(self, mode: int, ctx: OpContext = ROOT_CTX) -> bool:
        return self._retry_stale(lambda: self._first_dir(ctx).access(mode, ctx), ctx)

    # -- namespace --

    @_spanned("logical.lookup")
    def lookup(self, name: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        self.layer.health.record_op("dir.lookup", name, ctx)
        entry = self.layer.dir_view(self.volume, self.fh, ctx, name=name).get(name)
        if entry is None or entry.etype == EntryType.LOCATION:
            raise FileNotFound(f"{name!r} not found")
        return self._child(entry, ctx)

    def create(
        self,
        name: str,
        perm: int = 0o644,
        ctx: OpContext = ROOT_CTX,
        merge_policy: str = "",
    ) -> Vnode:
        self.layer.health.record_op("dir.create", name, ctx)
        return self._insert_new(name, EntryType.FILE, ctx=ctx, merge_policy=merge_policy)

    def mkdir(self, name: str, perm: int = 0o755, ctx: OpContext = ROOT_CTX) -> Vnode:
        self.layer.health.record_op("dir.mkdir", name, ctx)
        return self._insert_new(name, EntryType.DIRECTORY, ctx=ctx)

    def symlink(self, name: str, target: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        self.layer.health.record_op("dir.symlink", name, ctx)
        vnode = self._insert_new(name, EntryType.SYMLINK, ctx=ctx)
        vnode.write(0, target.encode("utf-8"), ctx)
        return vnode

    @_spanned("logical.insert", tags=lambda self, name, etype, *a, **k: {"etype": etype.value})
    def _insert_new(
        self,
        name: str,
        etype: EntryType,
        data: str = "",
        ctx: OpContext = ROOT_CTX,
        merge_policy: str = "",
    ) -> Vnode:
        """Create a brand-new object: the chosen replica mints its ids."""

        def insert() -> Vnode:
            replica = self._update_dir(ctx)
            if name in self._names_at(replica, ctx):
                raise FileExists(f"{name!r} already exists")
            entry = replica.dir_vnode.insert(name, etype, data=data, merge_policy=merge_policy, ctx=ctx)
            self.layer.notify_update(self.volume, replica.location, self.fh, entry.fh, objkind="dir")
            return self._child(entry, ctx)

        return self._retry_stale(insert, ctx)

    def _names_at(self, replica, ctx: OpContext = ROOT_CTX):
        """The replica's name -> entry view, read fresh (mutations check it)."""
        return effective_entries(decode_directory(read_whole(replica.dir_vnode, ctx=ctx)))

    def _find_entry_at(self, replica, name: str, ctx: OpContext = ROOT_CTX):
        entry = self._names_at(replica, ctx).get(name)
        if entry is None:
            raise FileNotFound(f"{name!r} not found")
        return entry

    @_spanned("logical.remove")
    def remove(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.health.record_op("dir.remove", name, ctx)

        def remove() -> None:
            replica = self._update_dir(ctx)
            entry = self._find_entry_at(replica, name, ctx)
            if entry.etype in (EntryType.DIRECTORY, EntryType.GRAFT_POINT):
                raise IsADirectory(f"{name!r} is a directory; use rmdir")
            replica.dir_vnode.remove_entry(entry.eid, ctx=ctx)
            self.layer.notify_update(self.volume, replica.location, self.fh, entry.fh, objkind="dir")

        self._retry_stale(remove, ctx)

    def rmdir(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.health.record_op("dir.rmdir", name, ctx)

        def rmdir() -> None:
            replica = self._update_dir(ctx)
            entry = self._find_entry_at(replica, name, ctx)
            if entry.etype == EntryType.FILE or entry.etype == EntryType.SYMLINK:
                raise NotADirectory(f"{name!r} is not a directory")
            if entry.etype == EntryType.DIRECTORY:
                sub = self.layer.dir_view(self.volume, entry.fh, ctx, fresh=True)
                if any(e.etype != EntryType.LOCATION for e in sub.values()):
                    raise DirectoryNotEmpty(f"{name!r} is not empty")
            replica.dir_vnode.remove_entry(entry.eid, ctx=ctx)
            self.layer.notify_update(self.volume, replica.location, self.fh, entry.fh, objkind="dir")

        self._retry_stale(rmdir, ctx)

    def link(self, target: Vnode, name: str, ctx: OpContext = ROOT_CTX) -> None:
        """Give an existing file an additional name (paper: Ficus files are
        organized in a general DAG; files may have several names)."""
        self.layer.health.record_op("dir.link", name, ctx)
        if not isinstance(target, LogicalFileVnode):
            raise InvalidArgument("link target must be a logical file")
        if target.volume != self.volume:
            raise CrossDevice("links may not cross volume boundaries")

        def link() -> None:
            replica = self._replica_storing(target, ctx)
            if name in self._names_at(replica, ctx):
                raise FileExists(f"{name!r} already exists")
            replica.dir_vnode.insert(name, target.etype, fh=target.fh, link_from=target.parent_fh, ctx=ctx)
            self.layer.notify_update(self.volume, replica.location, self.fh, target.fh, objkind="dir")

        self._retry_stale(link, ctx)

    def _replica_storing(self, target: "LogicalFileVnode", ctx: OpContext = ROOT_CTX):
        """An update replica of this directory that also stores ``target``.

        The hard link must land where the file's storage lives.
        """
        stored_at = {
            r.location
            for r in self.layer.file_replicas(self.volume, target.parent_fh, target.fh, ctx)
        }
        for view in self.layer.reachable_dirs(self.volume, self.fh, ctx):
            if view.location in stored_at:
                return view
        raise AllReplicasUnavailable(
            "no reachable replica stores both the directory and the link target"
        )

    def rename(
        self,
        src_name: str,
        dst_dir: Vnode,
        dst_name: str,
        ctx: OpContext = ROOT_CTX,
    ) -> None:
        """Rename = insert the new name, then remove the old one.

        Composed from the two replayable directory operations so that the
        reconciliation machinery handles a rename that happened during a
        partition exactly like any other insert/delete pair — including
        the concurrent-rename case that leaves a directory with two names.
        """
        self.layer.health.record_op("dir.rename", f"{src_name}->{dst_name}", ctx)
        if not isinstance(dst_dir, LogicalDirVnode):
            raise InvalidArgument("rename destination must be a logical directory")
        if dst_dir.volume != self.volume:
            raise CrossDevice("rename may not cross volume boundaries")

        def rename() -> None:
            src_replica = self._update_dir(ctx)
            entry = self._find_entry_at(src_replica, src_name, ctx)
            # Unix semantics: a file target is replaced, a directory target errors.
            dst_existing = dst_dir._names_at(dst_dir._update_dir(ctx), ctx).get(dst_name)
            if dst_existing is not None:
                if dst_existing.etype in (EntryType.DIRECTORY, EntryType.GRAFT_POINT):
                    raise IsADirectory(f"rename target {dst_name!r} is a directory")
                dst_dir.remove(dst_name, ctx)
            link_from = self.fh if entry.etype in (EntryType.FILE, EntryType.SYMLINK) else None
            dst_replica = dst_dir._update_dir(ctx)
            dst_replica.dir_vnode.insert(
                dst_name, entry.etype, fh=entry.fh, data=entry.data, link_from=link_from, ctx=ctx
            )
            self.layer.notify_update(self.volume, dst_replica.location, dst_dir.fh, entry.fh, objkind="dir")
            src_replica.dir_vnode.remove_entry(entry.eid, ctx=ctx)
            self.layer.notify_update(self.volume, src_replica.location, self.fh, entry.fh, objkind="dir")

        # both directories' handles are held: a stale one in either is
        # dropped under its own directory's rule before the other retries
        self._retry_stale(lambda: dst_dir._retry_stale(rename, ctx), ctx)

    def readdir(self, ctx: OpContext = ROOT_CTX) -> list[DirEntry]:
        out = []
        for name, entry in sorted(self.layer.dir_view(self.volume, self.fh, ctx).items()):
            if entry.etype == EntryType.LOCATION:
                continue
            out.append(
                DirEntry(name=name, fileid=entry.fh.file_id.unique, ftype=ENTRY_FILE_TYPES[entry.etype])
            )
        return out

    def __repr__(self) -> str:
        return f"LogicalDirVnode({self.volume}, {self.fh})"


class LogicalFileVnode(Vnode):
    """A logical regular file or symlink."""

    def __init__(
        self,
        layer: "FicusLogicalLayer",  # noqa: F821
        volume: VolumeId,
        parent_fh: FicusFileHandle,
        fh: FicusFileHandle,
        etype: EntryType,
    ):
        self.layer = layer
        self.volume = volume
        self.parent_fh = parent_fh
        self.fh = fh
        self.etype = etype
        self._tracer = layer.telemetry.tracer

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LogicalFileVnode)
            and other.layer is self.layer
            and other.volume == self.volume
            and other.fh == self.fh
        )

    def __hash__(self) -> int:
        return hash((id(self.layer), self.volume, self.fh))

    # -- replica plumbing --

    def _read_child(self, ctx: OpContext = ROOT_CTX) -> Vnode:
        view = self.layer.select_read_replica(self.volume, self.parent_fh, self.fh, ctx)
        return view.child(self.fh, ctx)

    def _update_view(self, ctx: OpContext = ROOT_CTX):
        return self.layer.select_update_replica(self.volume, self.parent_fh, self.fh, ctx)

    def _retry_stale(self, operation, ctx: OpContext):
        """Every replica operation of this file runs under the layer's one
        stale-handle rule."""
        return self.layer.retry_stale(self.volume, self.parent_fh, operation, self.fh, ctx)

    def _update(self, apply, ctx: OpContext):
        """Apply one update to the file's vnode at the update replica, and
        notify unless it landed inside this host's open session.

        An update session counts as one update (paper Section 2.3).  An
        update sent through the session's pinned replica carries
        ``ctx.session``; the first one opens the physical session there,
        which advances the vector once, before that first write, and every
        later one lands inside it.
        :meth:`~repro.logical.layer.FicusLogicalLayer.close_file` ends the
        session and sends its one notification.  Notifications sent before
        it would only repeat that one — a peer queues the note and pulls at
        its next daemon tick — so the update is marked on the pin instead.
        The cost is redundancy: a lost close datagram leaves the session
        unannounced until reconciliation.  An update outside any session —
        or one that fell over to another replica because the pinned one is
        unreachable — carries no session, bumps the vector at once and is
        announced at once."""

        def attempt():
            view = self._update_view(ctx)
            pin = self.layer._session_pins.get(self.fh)
            if pin is None or pin.view is not view:
                result = apply(view.child(self.fh, ctx), ctx)
                self.layer.notify_update(self.volume, view.location, self.parent_fh, self.fh)
                return result
            # marked before it is sent: a reply lost after the replica
            # opened the session still leaves the close to end it there
            pin.session = True
            result = apply(view.child(self.fh, ctx), ctx.with_session())
            pin.updated = True
            return result

        return self._retry_stale(attempt, ctx)

    # -- lifetime: open/close delimit one update session --

    @_spanned("logical.open")
    def open(self, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.health.record_op("file.open", self.fh, ctx)
        self.layer.open_file(self.volume, self.parent_fh, self.fh, ctx)

    @_spanned("logical.close")
    def close(self, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.health.record_op("file.close", self.fh, ctx)
        self.layer.close_file(self.volume, self.parent_fh, self.fh, ctx)

    def inactive(self) -> None:
        """No per-vnode state to tear down."""

    # -- data --

    @_spanned("logical.read")
    def read(self, offset: int, length: int, ctx: OpContext = ROOT_CTX) -> bytes:
        self.layer.health.record_op("file.read", self.fh, ctx)
        return self._retry_stale(lambda: self._read_child(ctx).read(offset, length, ctx), ctx)

    @_spanned("logical.write", tags=lambda self, offset, data, *a, **k: {"bytes": len(data)})
    def write(self, offset: int, data: bytes, ctx: OpContext = ROOT_CTX) -> int:
        self.layer.health.record_op("file.write", self.fh, ctx)
        return self._update(lambda child, ctx: child.write(offset, data, ctx), ctx)

    def fsync(self, ctx: OpContext = ROOT_CTX) -> None:
        self._retry_stale(lambda: self._update_view(ctx).child(self.fh, ctx).fsync(ctx), ctx)

    # -- attributes --

    def getattr(self, ctx: OpContext = ROOT_CTX) -> FileAttributes:
        return self._retry_stale(lambda: self._read_child(ctx).getattr(ctx), ctx)

    @_spanned("logical.setattr")
    def setattr(self, attrs: SetAttrs, ctx: OpContext = ROOT_CTX) -> None:
        if attrs.size is not None:
            self.layer.health.record_op("file.truncate", self.fh, ctx)
        self._update(lambda child, ctx: child.setattr(attrs, ctx), ctx)

    def access(self, mode: int, ctx: OpContext = ROOT_CTX) -> bool:
        return self._retry_stale(lambda: self._read_child(ctx).access(mode, ctx), ctx)

    # -- symlink --

    def readlink(self, ctx: OpContext = ROOT_CTX) -> str:
        return self._retry_stale(lambda: self._read_child(ctx).readlink(ctx), ctx)

    def lookup(self, name: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        raise NotADirectory(f"{self.fh} is not a directory")

    def __repr__(self) -> str:
        return f"LogicalFileVnode({self.volume}, {self.fh})"
