"""Namespace composition: mounting layers into one vnode tree.

The vnode interface exists so SunOS could stitch "multiple file system
types" into one namespace (Kleiman [12]).  :class:`MountLayer` is that
mechanism for this framework: any :class:`FileSystemLayer` can be mounted
at a directory of a base layer, and lookups cross mount points
transparently — including mounting a *Ficus logical layer* into a local
UFS tree, which is exactly how a workstation would publish the replicated
namespace beside its private files.
"""

from __future__ import annotations

from repro.errors import CrossDevice, InvalidArgument
from repro.ufs.inode import FileAttributes
from repro.vnode.interface import (
    ROOT_CTX,
    DirEntry,
    FileSystemLayer,
    OpContext,
    SetAttrs,
    Vnode,
)


def _split_mount_path(path: str) -> tuple[str, ...]:
    parts = tuple(p for p in path.split("/") if p)
    if not parts:
        raise InvalidArgument("cannot mount over the root")
    if any(p in (".", "..") for p in parts):
        raise InvalidArgument("mount paths may not contain . or ..")
    return parts


class MountLayer(FileSystemLayer):
    """A base layer with other layers grafted at chosen directories."""

    layer_name = "mount"

    def __init__(self, base: FileSystemLayer):
        self.base = base
        self._mounts: dict[tuple[str, ...], FileSystemLayer] = {}

    # -- mount table ---------------------------------------------------------

    def mount(self, path: str, layer: FileSystemLayer) -> None:
        """Graft ``layer`` at ``path`` (which must resolve to a directory
        of the base namespace — the classic mount-over-directory rule)."""
        parts = _split_mount_path(path)
        if parts in self._mounts:
            raise InvalidArgument(f"{path!r} is already a mount point")
        # validate against the COMPOSED namespace so mounts can nest
        node: Vnode = self.root()
        for part in parts:
            node = node.lookup(part)  # raises FileNotFound if absent
        if not node.is_dir:
            raise InvalidArgument(f"mount point {path!r} is not a directory")
        self._mounts[parts] = layer

    def unmount(self, path: str) -> None:
        parts = _split_mount_path(path)
        if self._mounts.pop(parts, None) is None:
            raise InvalidArgument(f"{path!r} is not a mount point")

    @property
    def mount_points(self) -> list[str]:
        return ["/" + "/".join(parts) for parts in sorted(self._mounts)]

    def _covering_mount(self, path: tuple[str, ...]) -> FileSystemLayer | None:
        return self._mounts.get(path)

    def _mount_owner(self, path: tuple[str, ...]) -> FileSystemLayer:
        """Which layer's objects live at ``path``: the layer of the
        longest mount-point prefix, or the base layer."""
        best: FileSystemLayer = self.base
        best_len = -1
        for mount_path, layer in self._mounts.items():
            if len(mount_path) > best_len and path[: len(mount_path)] == mount_path:
                best = layer
                best_len = len(mount_path)
        return best

    # -- layer interface -------------------------------------------------------

    def root(self) -> "MountVnode":
        return MountVnode(self, self.base.root(), ())


class MountVnode(Vnode):
    """Wraps a vnode of whichever layer owns this point in the namespace,
    remembering the path so lookups can detect mount crossings."""

    def __init__(self, layer: MountLayer, lower: Vnode, path: tuple[str, ...]):
        self.layer = layer
        self.lower = lower
        self.path = path

    def _wrap(self, lower: Vnode, path: tuple[str, ...]) -> "MountVnode":
        return MountVnode(self.layer, lower, path)

    @staticmethod
    def _unwrap(node: Vnode) -> Vnode:
        return node.lower if isinstance(node, MountVnode) else node

    # -- namespace: the interesting part --

    def lookup(self, name: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        child_path = (*self.path, name)
        mounted = self.layer._covering_mount(child_path)
        if mounted is not None:
            # crossing a mount point: the mounted layer's root covers the
            # underlying directory
            return self._wrap(mounted.root(), child_path)
        return self._wrap(self.lower.lookup(name, ctx), child_path)

    def create(self, name: str, perm: int = 0o644, ctx: OpContext = ROOT_CTX) -> Vnode:
        if self.layer._covering_mount((*self.path, name)) is not None:
            raise InvalidArgument(f"{name!r} is a mount point")
        return self._wrap(self.lower.create(name, perm, ctx), (*self.path, name))

    def mkdir(self, name: str, perm: int = 0o755, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self._wrap(self.lower.mkdir(name, perm, ctx), (*self.path, name))

    def remove(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        if self.layer._covering_mount((*self.path, name)) is not None:
            raise InvalidArgument(f"cannot remove mount point {name!r}")
        self.lower.remove(name, ctx)

    def rmdir(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        if self.layer._covering_mount((*self.path, name)) is not None:
            raise InvalidArgument(f"cannot rmdir mount point {name!r}")
        self.lower.rmdir(name, ctx)

    def rename(
        self, src_name: str, dst_dir: Vnode, dst_name: str, ctx: OpContext = ROOT_CTX
    ) -> None:
        if not isinstance(dst_dir, MountVnode):
            raise InvalidArgument("rename destination must be in the mounted namespace")
        if self.layer._mount_owner(self.path) is not self.layer._mount_owner(dst_dir.path):
            raise CrossDevice("rename across mount boundaries")
        self.lower.rename(src_name, self._unwrap(dst_dir), dst_name, ctx)

    def link(self, target: Vnode, name: str, ctx: OpContext = ROOT_CTX) -> None:
        if not isinstance(target, MountVnode):
            raise InvalidArgument("link target must be in the mounted namespace")
        if self.layer._mount_owner(self.path) is not self.layer._mount_owner(target.path):
            raise CrossDevice("hard link across mount boundaries")
        self.lower.link(self._unwrap(target), name, ctx)

    def readdir(self, ctx: OpContext = ROOT_CTX) -> list[DirEntry]:
        return self.lower.readdir(ctx)

    def symlink(self, name: str, target: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self._wrap(self.lower.symlink(name, target, ctx), (*self.path, name))

    # -- everything else passes straight through --

    def open(self, ctx: OpContext = ROOT_CTX) -> None:
        self.lower.open(ctx)

    def close(self, ctx: OpContext = ROOT_CTX) -> None:
        self.lower.close(ctx)

    def inactive(self) -> None:
        self.lower.inactive()

    def read(self, offset: int, length: int, ctx: OpContext = ROOT_CTX) -> bytes:
        return self.lower.read(offset, length, ctx)

    def write(self, offset: int, data: bytes, ctx: OpContext = ROOT_CTX) -> int:
        return self.lower.write(offset, data, ctx)

    def truncate(self, size: int, ctx: OpContext = ROOT_CTX) -> None:
        self.lower.truncate(size, ctx)

    def fsync(self, ctx: OpContext = ROOT_CTX) -> None:
        self.lower.fsync(ctx)

    def getattr(self, ctx: OpContext = ROOT_CTX) -> FileAttributes:
        return self.lower.getattr(ctx)

    def setattr(self, attrs: SetAttrs, ctx: OpContext = ROOT_CTX) -> None:
        self.lower.setattr(attrs, ctx)

    def access(self, mode: int, ctx: OpContext = ROOT_CTX) -> bool:
        return self.lower.access(mode, ctx)

    def readlink(self, ctx: OpContext = ROOT_CTX) -> str:
        return self.lower.readlink(ctx)

    def __repr__(self) -> str:
        return f"MountVnode(/{'/'.join(self.path)})"
