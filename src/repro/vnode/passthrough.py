"""The null (pass-through) layer.

A layer that forwards every vnode operation unchanged to the layer below,
wrapping returned vnodes so the stack stays layered.  It demonstrates the
paper's transparency claim — "layers can indeed be transparently inserted
between other layers" — and its per-crossing cost is what benchmark E2
measures ("one additional procedure call, one pointer indirection, and
storage for another vnode block").  The layer counts nothing; to count
the operations crossing a point of a stack, stack a
:class:`~repro.layers.monitor.MonitorLayer` there.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ufs.inode import FileAttributes
from repro.vnode.interface import (
    ROOT_CTX,
    DirEntry,
    FileSystemLayer,
    OpContext,
    SetAttrs,
    Vnode,
)

if TYPE_CHECKING:
    from repro.physical.wire import AttrBatch, AuxAttributes, EntryId, FileBlocks, SyncProbe


class PassthroughVnode(Vnode):
    """Wraps one lower vnode; every operation forwards unchanged.

    Subclasses that add behaviour around an operation (monitor, auth,
    mount) call these methods, so wrapping results and unwrapping
    arguments stay here."""

    def __init__(self, layer: "NullLayer", lower: Vnode):
        self.layer = layer
        self.lower = lower

    def _wrap(self, lower: Vnode) -> "PassthroughVnode":
        return self.layer.wrap(lower)

    @staticmethod
    def _unwrap(node: Vnode) -> Vnode:
        """Peel our own wrapper off vnode-valued arguments."""
        return node.lower if isinstance(node, PassthroughVnode) else node

    # -- lifetime --

    def open(self, ctx: OpContext = ROOT_CTX) -> None:
        self.lower.open(ctx)

    def close(self, ctx: OpContext = ROOT_CTX) -> None:
        self.lower.close(ctx)

    def inactive(self) -> None:
        self.lower.inactive()

    # -- data --

    def read(self, offset: int, length: int, ctx: OpContext = ROOT_CTX) -> bytes:
        return self.lower.read(offset, length, ctx)

    def write(self, offset: int, data: bytes, ctx: OpContext = ROOT_CTX) -> int:
        return self.lower.write(offset, data, ctx)

    def fsync(self, ctx: OpContext = ROOT_CTX) -> None:
        self.lower.fsync(ctx)

    def ioctl(self, command: str, argument: object = None, ctx: OpContext = ROOT_CTX) -> object:
        return self.lower.ioctl(command, argument, ctx)

    # -- attributes --

    def getattr(self, ctx: OpContext = ROOT_CTX) -> FileAttributes:
        return self.lower.getattr(ctx)

    def setattr(self, attrs: SetAttrs, ctx: OpContext = ROOT_CTX) -> None:
        self.lower.setattr(attrs, ctx)

    def access(self, mode: int, ctx: OpContext = ROOT_CTX) -> bool:
        return self.lower.access(mode, ctx)

    # -- namespace --

    def lookup(self, name: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self._wrap(self.lower.lookup(name, ctx))

    def create(self, name: str, perm: int = 0o644, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self._wrap(self.lower.create(name, perm, ctx))

    def remove(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self.lower.remove(name, ctx)

    def link(self, target: Vnode, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self.lower.link(self._unwrap(target), name, ctx)

    def rename(
        self,
        src_name: str,
        dst_dir: Vnode,
        dst_name: str,
        ctx: OpContext = ROOT_CTX,
    ) -> None:
        self.lower.rename(src_name, self._unwrap(dst_dir), dst_name, ctx)

    def mkdir(self, name: str, perm: int = 0o755, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self._wrap(self.lower.mkdir(name, perm, ctx))

    def rmdir(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self.lower.rmdir(name, ctx)

    def readdir(self, ctx: OpContext = ROOT_CTX) -> list[DirEntry]:
        return self.lower.readdir(ctx)

    def symlink(self, name: str, target: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self._wrap(self.lower.symlink(name, target, ctx))

    def readlink(self, ctx: OpContext = ROOT_CTX) -> str:
        return self.lower.readlink(ctx)

    # -- Ficus extensions --

    def session_close(self, fh: "EntryId", ctx: OpContext = ROOT_CTX) -> "AuxAttributes | None":
        return self.lower.session_close(fh, ctx)

    def getattrs_batch(
        self,
        fhs: list["EntryId"] | None = None,
        ctx: OpContext = ROOT_CTX,
    ) -> "AttrBatch":
        return self.lower.getattrs_batch(fhs, ctx)

    def sync_probe(self, fh: "EntryId | None" = None, ctx: OpContext = ROOT_CTX) -> "SyncProbe":
        return self.lower.sync_probe(fh, ctx)

    def read_blocks(self, fh: "EntryId", have: list[str], ctx: OpContext = ROOT_CTX) -> "FileBlocks":
        return self.lower.read_blocks(fh, have, ctx)

    def lookup_fh(self, fh, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self._wrap(self.lower.lookup_fh(fh, ctx))

    def insert(self, name: str, etype, *, ctx: OpContext = ROOT_CTX, **fields: object):
        return self.lower.insert(name, etype, ctx=ctx, **fields)

    def remove_entry(self, eid, ctx: OpContext = ROOT_CTX) -> None:
        self.lower.remove_entry(eid, ctx)

    def __repr__(self) -> str:
        return f"PassthroughVnode({self.layer.layer_name}, {self.lower!r})"


class NullLayer(FileSystemLayer):
    """A file-system layer that adds nothing but a crossing.

    Stacking N of these over any other layer leaves behaviour unchanged
    while adding N crossings per operation — the measurable quantity in
    experiment E2.
    """

    layer_name = "null"

    def __init__(self, lower: FileSystemLayer, name: str = "null"):
        self.lower_layer = lower
        self.layer_name = name

    def wrap(self, lower: Vnode) -> PassthroughVnode:
        return PassthroughVnode(self, lower)

    def root(self) -> PassthroughVnode:
        return self.wrap(self.lower_layer.root())

    def handle_for(self, vnode: PassthroughVnode) -> tuple:
        return self.lower_layer.handle_for(vnode.lower)

    def vnode_for(self, handle: tuple) -> PassthroughVnode:
        return self.wrap(self.lower_layer.vnode_for(handle))


def build_null_stack(base: FileSystemLayer, depth: int) -> FileSystemLayer:
    """Stack ``depth`` null layers over ``base`` and return the top layer."""
    layer = base
    for i in range(depth):
        layer = NullLayer(layer, name=f"null{i}")
    return layer
