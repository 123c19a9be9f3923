"""UFS caching: buffer cache and directory-name-lookup cache.

The paper leans on Floyd's locality studies ([5], [6]) to argue that "the
existing UFS caching mechanisms [can] continue to exploit the strong
directory and file reference locality", which is why the Ficus dual-mapping
scheme does not repeat the poor performance of the early AFS prototype.
Both caches here are the mechanisms that argument depends on:

* :class:`BufferCache` — an LRU write-through cache of disk blocks.  A warm
  hit costs zero device I/Os, which is exactly the paper's claim that
  "opening a recently accessed file or directory involves no overhead not
  already incurred by the normal Unix file system".
* :class:`NameCache` — the directory name lookup cache (DNLC): maps
  ``(directory inode, component name)`` to an inode number so warm lookups
  skip the directory scan entirely.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import InvalidArgument
from repro.storage import BlockDevice


@dataclass
class CacheStats:
    """Hit/miss accounting for either cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses)


class BufferCache:
    """LRU write-through block cache in front of a :class:`BlockDevice`.

    Write-through keeps crash semantics trivial (the device always holds
    every acknowledged write) while still giving reads the locality benefit
    the paper's I/O accounting assumes.
    """

    def __init__(self, device: BlockDevice, capacity: int = 256):
        if capacity < 0:
            raise InvalidArgument(f"cache capacity must be >= 0, got {capacity}")
        self.device = device
        self.capacity = capacity
        self.stats = CacheStats()
        #: Coherence stamp for decoded-object caches layered above this
        #: one (the UFS decoded inodes and decoded directories, the
        #: replica-store metadata caches).  Bumped when blocks are
        #: invalidated, so "cold buffer cache" also means "cold decoded
        #: caches" and the paper's E3/E4 disk-I/O counts stay
        #: byte-for-byte intact.  LRU eviction does not bump it: a decoded
        #: object may outlive its block, which can only save a device read.
        self.epoch = 0
        self._lru: OrderedDict[int, bytes] = OrderedDict()

    @property
    def caching_enabled(self) -> bool:
        """False when capacity is 0 (the "no caches" ablation): decoded
        caches layered above must disable with the block cache, or a
        "warm" open would dodge the disk I/O the ablation measures."""
        return self.capacity > 0

    def read(self, blockno: int) -> bytes:
        """Read a block, hitting the cache when possible."""
        if blockno in self._lru:
            self.stats.hits += 1
            self._lru.move_to_end(blockno)
            return self._lru[blockno]
        self.stats.misses += 1
        data = self.device.read_block(blockno)
        self._insert(blockno, data)
        return data

    def write(self, blockno: int, data: bytes) -> None:
        """Write-through: the device sees the write immediately."""
        self.device.write_block(blockno, data)
        self._insert(blockno, bytes(data))

    def _insert(self, blockno: int, data: bytes) -> None:
        if self.capacity == 0:
            return
        self._lru[blockno] = data
        self._lru.move_to_end(blockno)
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)

    def invalidate(self, blockno: int) -> None:
        self.epoch += 1
        self._lru.pop(blockno, None)

    def invalidate_all(self) -> None:
        """Drop every cached block (simulates a cold cache / reboot)."""
        self.epoch += 1
        self._lru.clear()

    def __contains__(self, blockno: int) -> bool:
        return blockno in self._lru

    def __len__(self) -> int:
        return len(self._lru)


class NameCache:
    """Directory name lookup cache: ``(dir ino, name) -> ino`` with LRU.

    Negative entries are not cached (matching the simple SunOS DNLC), and
    any directory modification must invalidate the affected names.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 0:
            raise InvalidArgument(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lru: OrderedDict[tuple[int, str], int] = OrderedDict()

    def lookup(self, dir_ino: int, name: str) -> int | None:
        key = (dir_ino, name)
        if key in self._lru:
            self.stats.hits += 1
            self._lru.move_to_end(key)
            return self._lru[key]
        self.stats.misses += 1
        return None

    def enter(self, dir_ino: int, name: str, ino: int) -> None:
        if self.capacity == 0:
            return
        key = (dir_ino, name)
        self._lru[key] = ino
        self._lru.move_to_end(key)
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)

    def remove(self, dir_ino: int, name: str) -> None:
        self._lru.pop((dir_ino, name), None)

    def purge_dir(self, dir_ino: int) -> None:
        """Drop every entry under one directory (e.g. after rmdir)."""
        stale = [key for key in self._lru if key[0] == dir_ino]
        for key in stale:
            del self._lru[key]

    def invalidate_all(self) -> None:
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)
