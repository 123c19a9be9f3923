"""UFS caching: buffer cache and directory-name-lookup cache.

The paper leans on Floyd's locality studies ([5], [6]) to argue that "the
existing UFS caching mechanisms [can] continue to exploit the strong
directory and file reference locality", which is why the Ficus dual-mapping
scheme does not repeat the poor performance of the early AFS prototype.
Both caches here are the mechanisms that argument depends on:

* :class:`BufferCache` — an LRU cache of disk blocks, which also holds the
  open operation's dirty blocks until the UFS writes them in order.  A warm
  hit costs zero device I/Os, which is exactly the paper's claim that
  "opening a recently accessed file or directory involves no overhead not
  already incurred by the normal Unix file system".
* :class:`NameCache` — the directory name lookup cache (DNLC): maps
  ``(directory inode, component name)`` to an inode number, or to
  :data:`NEGATIVE` for a name it lacks, so a warm lookup, hit or miss,
  skips the directory scan; the replica store resolves its files here too.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import InvalidArgument
from repro.storage import BlockDevice

NEGATIVE = 0  #: the DNLC's entry for a name a directory lacks (no inode is 0)


@dataclass
class CacheStats:
    """Hit/miss accounting for either cache."""

    hits: int = 0
    misses: int = 0
    #: buffer cache only: reads answered by the open operation's own held
    #: writes — neither a hit nor a miss, since nothing was cached
    held: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.held)


class _Decoded(dict):
    """A decoded map: a dict the buffer cache can hold weakly."""

    __slots__ = ("__weakref__",)


class _KeepNothing(dict):
    """The decoded map of a cache that keeps nothing: a store is dropped."""

    def __setitem__(self, key, value) -> None:
        pass


class BufferCache:
    """LRU block cache in front of a :class:`BlockDevice`, holding the open
    operation's dirty blocks.

    The UFS above writes every block of an operation into :attr:`held`,
    keyed by block in first-dirtied order, and every read answers from it
    first.  At the operation's end
    the UFS hands the blocks to :meth:`land` in the order a crash may see
    them (:meth:`repro.ufs.Ufs.barrier`); each goes to the device once.
    The LRU keeps only what the device holds — a block enters it when it is
    read from the device or lands — so a warm hit costs zero device I/Os
    and a crash loses exactly the held set.  Capacity bounds the LRU only:
    at capacity 0 an operation still holds its blocks.
    """

    def __init__(self, device: BlockDevice, capacity: int = 256):
        if capacity < 0:
            raise InvalidArgument(f"cache capacity must be >= 0, got {capacity}")
        self.device = device
        self.capacity = capacity
        self.stats = CacheStats()
        self._lru: OrderedDict[int, bytes] = OrderedDict()
        #: the open operation's dirty blocks, in first-dirtied order
        self.held: dict[int, bytes] = {}
        self._decoded: list[weakref.ref] = []

    def decoded_map(self) -> dict:
        """A map for objects decoded from these blocks (the UFS decoded
        inodes and directories, the replica store's records, lists and
        vnodes) that :meth:`invalidate_all` empties: "cold buffer cache"
        means cold decoded caches too, so E3/E4's disk I/Os stay intact.
        LRU eviction leaves it: a decoded object may outlive its block,
        which only saves a read.  At capacity 0 (the "no caches" ablation)
        it keeps nothing, or a "warm" open would dodge the I/O measured."""
        if not self.capacity:
            return _KeepNothing()
        decoded = _Decoded()
        self._decoded.append(weakref.ref(decoded))
        return decoded

    def read(self, blockno: int) -> bytes:
        """Read a block: held, else cached, else from the device."""
        data = self.held.get(blockno)
        if data is not None:
            self.stats.held += 1
            return data
        if blockno in self._lru:
            self.stats.hits += 1
            self._lru.move_to_end(blockno)
            return self._lru[blockno]
        self.stats.misses += 1
        data = self.device.read_block(blockno)
        self._insert(blockno, data)
        return data

    def write(self, blockno: int, data: bytes) -> None:
        """Write one block to the device now, and cache it."""
        self.device.write_block(blockno, data)
        self._insert(blockno, bytes(data))

    def land(self, order) -> None:
        """Write held blocks to the device in ``order``, each once."""
        for blockno in order:
            self.write(blockno, self.held.pop(blockno))

    def _insert(self, blockno: int, data: bytes) -> None:
        if self.capacity == 0:
            return
        self._lru[blockno] = data
        self._lru.move_to_end(blockno)
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)

    def invalidate_all(self) -> None:
        """Drop every cached block and empty every decoded map (simulates a
        cold cache / reboot)."""
        self._lru.clear()
        for ref in self._decoded:
            decoded = ref()
            if decoded is not None:
                decoded.clear()
        self._decoded = [ref for ref in self._decoded if ref() is not None]

    def __contains__(self, blockno: int) -> bool:
        return blockno in self._lru

    def __len__(self) -> int:
        return len(self._lru)


class NameCache:
    """Directory name lookup cache: ``(dir ino, name) -> ino`` with LRU.

    A miss is cached too, as :data:`NEGATIVE`, and any directory
    modification must enter or remove the names it changes.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 0:
            raise InvalidArgument(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lru: OrderedDict[tuple[int, str], int] = OrderedDict()

    def lookup(self, dir_ino: int, name: str) -> int | None:
        key = (dir_ino, name)
        ino = self._lru.get(key)
        if ino is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._lru.move_to_end(key)
        return ino

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
