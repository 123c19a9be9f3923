"""The public Ficus API: a path-based facade over the logical layer.

This is what applications (and the examples/) program against.  It plays
the role of the Unix system-call family in Figure 1: paths in, bytes out,
with open/close sessions and advisory locking handled for the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.errors import FileNotFound, InvalidArgument, IsADirectory, NotADirectory
from repro.logical import FicusLogicalLayer, LogicalDirVnode, LogicalFileVnode
from repro.telemetry import spanned
from repro.ufs.inode import FileAttributes, FileType
from repro.vnode.interface import ROOT_CTX, OpContext, Vnode, read_whole


_spanned = partial(spanned, layer="fs", host="logical.host_addr")


def _path_tag(fs: "FicusFileSystem", path: str, *args: object, **kwargs: object) -> dict[str, object]:
    """The span tag of the whole-file operations."""
    return {"path": path}


def _split(path: str) -> list[str]:
    parts = [p for p in path.split("/") if p]
    if any(p in (".", "..") for p in parts):
        raise InvalidArgument("paths with . or .. are not supported")
    return parts


@dataclass
class StatResult:
    """Friendly stat output."""

    ftype: FileType
    size: int
    nlink: int
    uid: int
    perm: int
    mtime: float

    @classmethod
    def from_attrs(cls, attrs: FileAttributes) -> "StatResult":
        return cls(
            ftype=attrs.ftype,
            size=attrs.size,
            nlink=attrs.nlink,
            uid=attrs.uid,
            perm=attrs.perm,
            mtime=attrs.mtime,
        )

    @property
    def is_dir(self) -> bool:
        return self.ftype == FileType.DIRECTORY

    @property
    def is_file(self) -> bool:
        return self.ftype == FileType.REGULAR


@dataclass
class CheckedRead:
    """Result of :meth:`FicusFileSystem.read_file_checked`."""

    data: bytes
    #: the read may not reflect every replica (partition or suspected
    #: divergence at read time); reconciliation will settle it later
    divergence_suspected: bool


class FicusFile:
    """An open Ficus file: one update session, closed via context manager."""

    def __init__(self, fs: "FicusFileSystem", vnode: LogicalFileVnode, mode: str, ctx: OpContext):
        self._fs = fs
        self._vnode = vnode
        self._mode = mode
        self._ctx = ctx
        self._offset = 0
        self._closed = False
        # every open handle is its own lock owner, so two writers on one
        # host conflict even through the same facade
        self._owner = f"{fs.client_id}#{fs._next_handle_id()}"
        writable = any(m in mode for m in "wa+")
        self._writable = writable
        if writable:
            fs.logical.locks.acquire_exclusive(vnode.fh, self._owner)
        else:
            fs.logical.locks.acquire_shared(vnode.fh, self._owner)
        try:
            vnode.open(ctx)
            if "w" in mode:
                vnode.truncate(0, ctx)
            if "a" in mode:
                self._offset = vnode.getattr(ctx).size
        except Exception:
            # never leak the advisory lock if the open itself fails
            if writable:
                fs.logical.locks.release_exclusive(vnode.fh, self._owner)
            else:
                fs.logical.locks.release_shared(vnode.fh, self._owner)
            raise

    # -- file-like interface --

    def read(self, size: int | None = None) -> bytes:
        self._check_open()
        if size is not None:
            data = self._vnode.read(self._offset, max(0, size), self._ctx)
        else:
            data = read_whole(self._vnode, ctx=self._ctx, offset=self._offset)
        self._offset += len(data)
        return data

    def write(self, data: bytes) -> int:
        self._check_open()
        if not self._writable:
            raise InvalidArgument("file not opened for writing")
        written = self._vnode.write(self._offset, data, self._ctx)
        self._offset += written
        return written

    def seek(self, offset: int) -> None:
        self._check_open()
        if offset < 0:
            raise InvalidArgument("negative seek")
        self._offset = offset

    def tell(self) -> int:
        return self._offset

    def truncate(self, size: int) -> None:
        self._check_open()
        if not self._writable:
            raise InvalidArgument("file not opened for writing")
        self._vnode.truncate(size, self._ctx)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._vnode.close(self._ctx)
        if self._writable:
            self._fs.logical.locks.release_exclusive(self._vnode.fh, self._owner)
        else:
            self._fs.logical.locks.release_shared(self._vnode.fh, self._owner)

    def _check_open(self) -> None:
        if self._closed:
            raise InvalidArgument("I/O on closed file")

    def __enter__(self) -> "FicusFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class FicusFileSystem:
    """Path-based access to one host's view of the Ficus name space."""

    def __init__(self, logical: FicusLogicalLayer, ctx: OpContext = ROOT_CTX, client_id: str | None = None):
        self.logical = logical
        self.ctx = ctx
        self.client_id = client_id or f"client@{logical.host_addr}"
        self._handle_serial = 0
        # stable per Telemetry hub — bound once to shorten the per-op path
        self._tracer = logical.telemetry.tracer

    def _next_handle_id(self) -> int:
        self._handle_serial += 1
        return self._handle_serial

    #: symlink expansion limit (classic Unix MAXSYMLINKS)
    MAX_SYMLINKS = 8

    # -- resolution ---------------------------------------------------------

    def resolve(self, path: str, follow: bool = True) -> Vnode:
        """Resolve a path to a logical vnode (crossing graft points).

        Symbolic links in intermediate components are always followed;
        the final component follows only when ``follow`` is True (the
        lstat/stat distinction).  Expansion is capped at
        :attr:`MAX_SYMLINKS` to break cycles (ELOOP).
        """
        return self._resolve_parts(_split(path), follow=follow, budget=self.MAX_SYMLINKS)

    def _resolve_parts(self, parts: list[str], follow: bool, budget: int) -> Vnode:
        from repro.logical.vnodes import LogicalFileVnode
        from repro.physical import EntryType
        from repro.ufs import FileType

        node: Vnode = self.logical.root()
        for index, part in enumerate(parts):
            node = node.lookup(part, self.ctx)
            last = index == len(parts) - 1
            is_symlink = (
                isinstance(node, LogicalFileVnode) and node.etype == EntryType.SYMLINK
            )
            if is_symlink and (follow or not last):
                if budget <= 0:
                    raise InvalidArgument("too many levels of symbolic links")
                target = node.readlink(self.ctx)
                remainder = parts[index + 1 :]
                target_parts = _split(target)
                if not target.startswith("/"):
                    # relative link: resolve from the link's directory
                    target_parts = parts[:index] + target_parts
                return self._resolve_parts(
                    target_parts + remainder, follow=follow, budget=budget - 1
                )
        return node

    def _resolve_dir(self, path: str) -> LogicalDirVnode:
        node = self.resolve(path)
        if not isinstance(node, LogicalDirVnode):
            raise NotADirectory(f"{path!r} is not a directory")
        return node

    def _resolve_parent(self, path: str) -> tuple[LogicalDirVnode, str]:
        parts = _split(path)
        if not parts:
            raise InvalidArgument("path names the root")
        if len(parts) == 1:
            node: Vnode = self.logical.root()
        else:
            node = self._resolve_parts(parts[:-1], follow=True, budget=self.MAX_SYMLINKS)
        if not isinstance(node, LogicalDirVnode):
            raise NotADirectory(f"parent of {path!r} is not a directory")
        return node, parts[-1]

    # -- file access -----------------------------------------------------------

    @_spanned("fs.open", tags=lambda self, path, mode="r": {"path": path, "mode": mode})
    def open(self, path: str, mode: str = "r") -> FicusFile:
        """Open a file; modes ``r``, ``w``, ``a``, ``r+`` as usual.

        ``w``/``a``/``r+`` create the file if missing.  The open/close pair
        delimits one update session (one version-vector bump however many
        writes happen inside).
        """
        if not any(m in mode for m in "rwa"):
            raise InvalidArgument(f"bad mode {mode!r}")
        try:
            node = self.resolve(path, follow=True)
        except FileNotFound:
            if "r" in mode and "+" not in mode:
                raise
            parent, name = self._resolve_parent(path)
            try:
                existing = parent.lookup(name, self.ctx)
            except FileNotFound:
                existing = None
            if existing is not None:
                # the name exists but following it failed: a dangling
                # symlink.  (Unix would create the target; we keep the
                # simpler rule and refuse.)
                raise FileNotFound(f"{path!r} is a dangling symbolic link") from None
            node = parent.create(name, ctx=self.ctx)
        if isinstance(node, LogicalDirVnode):
            raise IsADirectory(f"{path!r} is a directory")
        assert isinstance(node, LogicalFileVnode)
        return FicusFile(self, node, mode, self.ctx)

    @_spanned("fs.read_file", tags=_path_tag)
    def read_file(self, path: str) -> bytes:
        with self.open(path, "r") as f:
            return f.read()

    def read_file_checked(self, path: str) -> "CheckedRead":
        """Read a file and report whether its volume may be diverged.

        One-copy availability keeps reads working through a partition, at
        the price of possibly serving stale data (paper Section 2.4).
        ``divergence_suspected`` is True when the replica selection for
        this read could not see every replica, or when this host's health
        plane suspects the volume has diverged — the caller can then
        decide whether the answer is good enough.
        """
        node = self.resolve(path, follow=True)
        if isinstance(node, LogicalDirVnode):
            raise IsADirectory(f"{path!r} is a directory")
        data = self.read_file(path)
        suspected = bool(self.logical.last_read_divergence_suspected)
        if isinstance(node, LogicalFileVnode):
            suspected = suspected or self.logical.health.divergence_suspected(node.volume)
        return CheckedRead(data=data, divergence_suspected=suspected)

    # the whole open -> write -> close(update notify) session becomes one
    # trace tree rooted here
    @_spanned("fs.write_file", tags=_path_tag)
    def write_file(self, path: str, data: bytes) -> None:
        """Replace a file's whole contents, creating it when absent.

        Writes over the old bytes and then trims to the new length, rather
        than truncating first: the blocks about to be filled are not freed
        and taken back, and the trim costs nothing when the length is
        unchanged.  A failure between the two steps leaves new bytes over
        an old tail (``open(path, "w")`` leaves a truncated file).
        """
        # "r+" opens without truncating and, like "w", creates when absent
        with self.open(path, "r+") as f:
            f.write(data)
            f.truncate(len(data))

    @_spanned("fs.append_file", tags=_path_tag)
    def append_file(self, path: str, data: bytes) -> None:
        with self.open(path, "a") as f:
            f.write(data)

    # -- namespace ---------------------------------------------------------------

    def mkdir(self, path: str) -> None:
        parent, name = self._resolve_parent(path)
        parent.mkdir(name, ctx=self.ctx)

    def makedirs(self, path: str) -> None:
        """mkdir -p."""
        node: Vnode = self.logical.root()
        for part in _split(path):
            try:
                node = node.lookup(part, self.ctx)
            except FileNotFound:
                node = node.mkdir(part, ctx=self.ctx)

    def rmdir(self, path: str) -> None:
        parent, name = self._resolve_parent(path)
        parent.rmdir(name, self.ctx)

    def unlink(self, path: str) -> None:
        parent, name = self._resolve_parent(path)
        parent.remove(name, self.ctx)

    def rename(self, src: str, dst: str) -> None:
        src_parent, src_name = self._resolve_parent(src)
        dst_parent, dst_name = self._resolve_parent(dst)
        src_parent.rename(src_name, dst_parent, dst_name, self.ctx)

    def link(self, existing: str, new: str) -> None:
        target = self.resolve(existing)
        if not isinstance(target, LogicalFileVnode):
            raise IsADirectory(f"{existing!r} is not a regular file")
        parent, name = self._resolve_parent(new)
        parent.link(target, name, self.ctx)

    def symlink(self, target: str, path: str) -> None:
        parent, name = self._resolve_parent(path)
        parent.symlink(name, target, self.ctx)

    def readlink(self, path: str) -> str:
        return self.resolve(path, follow=False).readlink(self.ctx)

    def lstat(self, path: str) -> StatResult:
        """Like stat but does not follow a final symlink."""
        return StatResult.from_attrs(self.resolve(path, follow=False).getattr(self.ctx))

    # -- inspection ---------------------------------------------------------------

    def listdir(self, path: str = "/") -> list[str]:
        return [e.name for e in self._resolve_dir(path).readdir(self.ctx)]

    def stat(self, path: str) -> StatResult:
        return StatResult.from_attrs(self.resolve(path).getattr(self.ctx))

    def exists(self, path: str) -> bool:
        try:
            self.resolve(path)
            return True
        except FileNotFound:
            return False

    # -- merge policy (automatic conflict resolution) ------------------------------

    def create_file(self, path: str, data: bytes = b"", merge_policy: str = "") -> None:
        """Create a file, optionally declaring its conflict-resolver tag.

        The tag rides the replica's auxiliary attributes, so every host
        that later detects a concurrent-update conflict on this file
        applies the same automatic resolver.
        """
        parent, name = self._resolve_parent(path)
        node = parent.create(name, ctx=self.ctx, merge_policy=merge_policy)
        if data:
            assert isinstance(node, LogicalFileVnode)
            with FicusFile(self, node, "w", self.ctx) as f:
                f.write(data)

    def set_merge_policy(self, path: str, tag: str) -> None:
        """Declare (or change) an existing file's conflict-resolver tag.

        Applied through exactly one replica — the policy change bumps the
        file's version vector there, and reconciliation propagates the
        tag like any other update.  (Applying it to several replicas at
        once would mint concurrent versions and manufacture a conflict.)
        """
        node = self.resolve(path)
        if not isinstance(node, LogicalFileVnode):
            raise InvalidArgument(f"{path!r} is not a regular file")
        view = self.logical.select_update_replica(
            node.volume, node.parent_fh, node.fh, ctx=self.ctx
        )
        view.dir_vnode.set_policy(node.fh, tag, self.ctx)
        self.logical.notify_update(node.volume, view.location, node.parent_fh, node.fh)

    def merge_policy(self, path: str) -> str:
        """The file's declared resolver tag (``""`` when none)."""
        node = self.resolve(path)
        if not isinstance(node, LogicalFileVnode):
            raise InvalidArgument(f"{path!r} is not a regular file")
        view = self.logical.select_update_replica(
            node.volume, node.parent_fh, node.fh, ctx=self.ctx
        )
        aux = view.dir_vnode.getattrs_batch([node.fh], self.ctx).child(node.fh)
        return aux.merge_policy if aux is not None else ""

    # -- conflicts (the "reported to the owner" interface) -----------------------

    def conflicts(self, conflict_log) -> list:
        """Unresolved conflict reports relevant to this host's view."""
        return conflict_log.unresolved()

    def conflict_versions(self, report) -> dict[str, bytes]:
        """Fetch every reachable replica's version of a conflicted file,
        keyed by host — what an owner inspects before deciding."""
        versions: dict[str, bytes] = {}
        for view in self.logical.file_replicas(
            report.volume, report.parent_fh, report.fh
        ):
            versions[view.location.host] = read_whole(view.dir_vnode.lookup_fh(report.fh))
        return versions

    def resolve_conflict(self, report, chosen: bytes, conflict_log=None) -> None:
        """Install ``chosen`` as the post-conflict version.

        The resolution dominates every reachable replica's version, so
        ordinary propagation carries it everywhere.  Requires a reachable
        replica that stores the file.
        """
        from repro.recon import resolve_file_conflict

        replicas = self.logical.file_replicas(report.volume, report.parent_fh, report.fh)
        if not replicas:
            from repro.errors import AllReplicasUnavailable

            raise AllReplicasUnavailable("no reachable replica stores the conflicted file")
        observed = [r.vv for r in replicas] + [report.local_vv, report.remote_vv]
        # the resolve primitive needs direct store access, so pick a
        # replica this host's physical layer owns when possible
        local_physical = self.logical.fabric.local_physical
        store = None
        if local_physical is not None:
            for replica in replicas:
                if local_physical.hosts_volume_replica(replica.location.volrep):
                    store = local_physical.store_for(replica.location.volrep)
                    break
        if store is None:
            raise InvalidArgument(
                "conflict resolution currently requires a locally hosted replica"
            )
        resolve_file_conflict(
            store,
            report.parent_fh,
            report.fh,
            chosen,
            observed,
            conflict_log,
            health=local_physical.health,
        )

    def walk_tree(self, path: str = "/") -> list[str]:
        """Every path under ``path`` (depth-first, directories included)."""
        out: list[str] = []

        def recurse(prefix: str, node: Vnode) -> None:
            if not isinstance(node, LogicalDirVnode):
                return
            for entry in node.readdir(self.ctx):
                child_path = f"{prefix.rstrip('/')}/{entry.name}"
                out.append(child_path)
                if entry.ftype == FileType.DIRECTORY:
                    recurse(child_path, node.lookup(entry.name, self.ctx))

        recurse(path if path.startswith("/") else "/" + path, self.resolve(path))
        return out
