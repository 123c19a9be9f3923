"""A transparent encryption vnode layer (paper Section 1's third example).

File *contents* are enciphered on write and deciphered on read with a
position-based keystream, so random-access reads and writes work without
rewriting the file.  Everything below this layer (Ficus physical, UFS,
an NFS server...) sees only ciphertext; everything above sees plaintext.
The cipher is a keyed SHA-256 keystream XOR — positionally seekable and
deterministic, which is what the layering demonstration needs (it is NOT
presented as cryptographically strong).
"""

from __future__ import annotations

import hashlib

from repro.vnode.interface import ROOT_CTX, FileSystemLayer, OpContext, Vnode
from repro.vnode.passthrough import NullLayer, PassthroughVnode

_BLOCK = 32  # SHA-256 digest size


class Keystream:
    """Seekable keystream: byte i of file f depends on (key, f, i)."""

    def __init__(self, key: bytes):
        self.key = key

    def _block(self, fileid: int, index: int) -> bytes:
        material = self.key + fileid.to_bytes(8, "little") + index.to_bytes(8, "little")
        return hashlib.sha256(material).digest()

    def pad(self, fileid: int, offset: int, length: int) -> bytes:
        """Keystream bytes covering [offset, offset+length)."""
        first = offset // _BLOCK
        last = (offset + length + _BLOCK - 1) // _BLOCK
        stream = b"".join(self._block(fileid, i) for i in range(first, last))
        start = offset - first * _BLOCK
        return stream[start : start + length]

    def apply(self, fileid: int, offset: int, data: bytes) -> bytes:
        pad = self.pad(fileid, offset, len(data))
        return bytes(a ^ b for a, b in zip(data, pad))


class CryptLayer(NullLayer):
    """Pass-through layer enciphering regular-file contents."""

    layer_name = "crypt"

    def __init__(self, lower: FileSystemLayer, key: bytes, name: str = "crypt"):
        super().__init__(lower, name=name)
        self.keystream = Keystream(key)

    def wrap(self, lower: Vnode) -> "CryptVnode":
        return CryptVnode(self, lower)


class CryptVnode(PassthroughVnode):
    """Enciphers writes and deciphers reads; all else passes through."""

    def __init__(self, layer: CryptLayer, lower: Vnode):
        super().__init__(layer, lower)
        self.layer: CryptLayer = layer

    def _fileid(self) -> int:
        return self.lower.getattr().fileid

    def read(self, offset: int, length: int, ctx: OpContext = ROOT_CTX) -> bytes:
        ciphertext = self.lower.read(offset, length, ctx)
        return self.layer.keystream.apply(self._fileid(), offset, ciphertext)

    def write(self, offset: int, data: bytes, ctx: OpContext = ROOT_CTX) -> int:
        ciphertext = self.layer.keystream.apply(self._fileid(), offset, data)
        return self.lower.write(offset, ciphertext, ctx)
