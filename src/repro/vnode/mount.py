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

from repro.errors import CrossDevice, InvalidArgument, NotSupported
from repro.vnode.interface import ROOT_CTX, FileSystemLayer, OpContext, Vnode
from repro.vnode.passthrough import PassthroughVnode


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


class MountVnode(PassthroughVnode):
    """Wraps a vnode of whichever layer owns this point in the namespace,
    remembering the path so lookups can detect mount crossings.

    Only the operations that name a child involve the path; every other
    operation forwards unchanged.  ``lookup_fh`` would have to invent the
    path of what it reaches, so it stays unsupported.
    """

    layer: MountLayer

    def __init__(self, layer: MountLayer, lower: Vnode, path: tuple[str, ...]):
        super().__init__(layer, lower)
        self.path = path

    def _child(self, lower: Vnode, name: str) -> "MountVnode":
        return MountVnode(self.layer, lower, (*self.path, name))

    def lookup(self, name: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        mounted = self.layer._covering_mount((*self.path, name))
        if mounted is not None:
            # crossing a mount point: the mounted layer's root covers the
            # underlying directory
            return self._child(mounted.root(), name)
        return self._child(self.lower.lookup(name, ctx), name)

    def create(self, name: str, perm: int = 0o644, ctx: OpContext = ROOT_CTX) -> Vnode:
        if self.layer._covering_mount((*self.path, name)) is not None:
            raise InvalidArgument(f"{name!r} is a mount point")
        return self._child(self.lower.create(name, perm, ctx), name)

    def mkdir(self, name: str, perm: int = 0o755, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self._child(self.lower.mkdir(name, perm, ctx), name)

    def symlink(self, name: str, target: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self._child(self.lower.symlink(name, target, ctx), name)

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
        super().rename(src_name, dst_dir, dst_name, ctx)

    def link(self, target: Vnode, name: str, ctx: OpContext = ROOT_CTX) -> None:
        if not isinstance(target, MountVnode):
            raise InvalidArgument("link target must be in the mounted namespace")
        if self.layer._mount_owner(self.path) is not self.layer._mount_owner(target.path):
            raise CrossDevice("hard link across mount boundaries")
        super().link(target, name, ctx)

    def lookup_fh(self, fh, ctx: OpContext = ROOT_CTX) -> Vnode:
        raise NotSupported("lookup_fh")

    def __repr__(self) -> str:
        return f"MountVnode(/{'/'.join(self.path)})"
