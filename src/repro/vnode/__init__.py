"""Stackable vnode layer framework (paper Section 2)."""

from repro.vnode.context import ROOT_CRED, ROOT_CTX, Credential, OpContext
from repro.vnode.interface import (
    DirEntry,
    FileSystemLayer,
    SetAttrs,
    Vnode,
)
from repro.vnode.mount import MountLayer, MountVnode
from repro.vnode.passthrough import NullLayer, PassthroughVnode, build_null_stack
from repro.vnode.ufs_layer import UfsLayer, UfsVnode

__all__ = [
    "Credential",
    "DirEntry",
    "FileSystemLayer",
    "MountLayer",
    "MountVnode",
    "NullLayer",
    "OpContext",
    "PassthroughVnode",
    "ROOT_CRED",
    "ROOT_CTX",
    "SetAttrs",
    "UfsLayer",
    "UfsVnode",
    "Vnode",
    "build_null_stack",
]
