"""Advisory concurrency control on logical files.

"The logical layer performs concurrency control on logical files" (paper
Section 2.5).  This is *local* concurrency control — it serializes the
clients of one logical layer; it deliberately does NOT serialize across
hosts, because one-copy availability forbids any global mutual exclusion
(that refusal is the whole point of the optimistic design).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PermissionDenied
from repro.util import FicusFileHandle


@dataclass
class _LockState:
    exclusive_owner: str | None = None
    shared_owners: dict[str, int] = field(default_factory=dict)
    exclusive_depth: int = 0


class LockManager:
    """Shared/exclusive advisory locks keyed by file handle."""

    def __init__(self) -> None:
        self._locks: dict[FicusFileHandle, _LockState] = {}

    def acquire_shared(self, fh: FicusFileHandle, owner: str) -> None:
        state = self._locks.setdefault(fh, _LockState())
        if state.exclusive_owner is not None and state.exclusive_owner != owner:
            raise PermissionDenied(
                f"{fh} is exclusively locked by {state.exclusive_owner}"
            )
        state.shared_owners[owner] = state.shared_owners.get(owner, 0) + 1

    def acquire_exclusive(self, fh: FicusFileHandle, owner: str) -> None:
        state = self._locks.setdefault(fh, _LockState())
        others_shared = [o for o in state.shared_owners if o != owner]
        if others_shared:
            raise PermissionDenied(f"{fh} is share-locked by {others_shared}")
        if state.exclusive_owner is not None and state.exclusive_owner != owner:
            raise PermissionDenied(
                f"{fh} is exclusively locked by {state.exclusive_owner}"
            )
        state.exclusive_owner = owner
        state.exclusive_depth += 1

    def release_shared(self, fh: FicusFileHandle, owner: str) -> None:
        state = self._locks.get(fh)
        if state is None or owner not in state.shared_owners:
            return
        state.shared_owners[owner] -= 1
        if state.shared_owners[owner] <= 0:
            del state.shared_owners[owner]
        self._maybe_drop(fh, state)

    def release_exclusive(self, fh: FicusFileHandle, owner: str) -> None:
        state = self._locks.get(fh)
        if state is None or state.exclusive_owner != owner:
            return
        state.exclusive_depth -= 1
        if state.exclusive_depth <= 0:
            state.exclusive_owner = None
            state.exclusive_depth = 0
        self._maybe_drop(fh, state)

    def _maybe_drop(self, fh: FicusFileHandle, state: _LockState) -> None:
        if state.exclusive_owner is None and not state.shared_owners:
            self._locks.pop(fh, None)

    def is_locked(self, fh: FicusFileHandle) -> bool:
        return fh in self._locks
