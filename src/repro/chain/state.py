"""Journaled world state.

All mutable chain state (Ether balances, ERC20 ledgers, AMM reserves, vault
shares, ...) lives in one flat key/value store with an undo log.
A transaction opens a checkpoint before executing; a :class:`Revert` rolls
the journal back to that checkpoint, which is how the substrate implements
Ethereum's transaction atomicity — the property flash loans rely on.

Keys are ``(owner_address, slot)`` tuples where ``slot`` is any hashable
(usually a string or a ``(name, subkey)`` tuple), mirroring contract storage
slots without the 256-bit encoding noise.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator

from .types import Address

__all__ = ["StateJournal", "StorageView"]

_MISSING = object()


class StateJournal:
    """A flat key/value store with nested checkpoints.

    While a checkpoint is open, every write appends the key's *previous*
    value (or a tombstone if it was absent) to one undo log, and each
    checkpoint is an integer mark into that log. ``rollback`` replays the
    log back to the innermost mark in reverse; ``commit`` just drops the
    mark, so the entries it covered stay in the log for any outer
    rollback. The log is cleared when the outermost checkpoint commits.
    """

    def __init__(self) -> None:
        self._data: dict[tuple[Address, Hashable], Any] = {}
        self._undo: list[tuple[tuple[Address, Hashable], Any]] = []
        self._marks: list[int] = []

    # -- reads ---------------------------------------------------------

    def get(self, owner: Address, slot: Hashable, default: Any = None) -> Any:
        return self._data.get((owner, slot), default)

    def contains(self, owner: Address, slot: Hashable) -> bool:
        return (owner, slot) in self._data

    def items_for(self, owner: Address) -> Iterator[tuple[Hashable, Any]]:
        """Iterate ``(slot, value)`` pairs owned by one address (for debugging
        and explorer views; O(total state), not used on hot paths)."""
        for (addr, slot), value in self._data.items():
            if addr == owner:
                yield slot, value

    # -- writes --------------------------------------------------------

    def set(self, owner: Address, slot: Hashable, value: Any) -> None:
        key = (owner, slot)
        data = self._data
        if self._marks:
            self._undo.append((key, data.get(key, _MISSING)))
        data[key] = value

    def delete(self, owner: Address, slot: Hashable) -> None:
        key = (owner, slot)
        old = self._data.pop(key, _MISSING)
        if old is not _MISSING and self._marks:
            self._undo.append((key, old))

    def add(self, owner: Address, slot: Hashable, delta: int) -> int:
        """Numeric read-modify-write helper; returns the new value."""
        key = (owner, slot)
        data = self._data
        old = data.get(key, _MISSING)
        new = (0 if old is _MISSING else old) + delta
        if self._marks:
            self._undo.append((key, old))
        data[key] = new
        return new

    # -- checkpoints ----------------------------------------------------

    def checkpoint(self) -> int:
        """Open a nested checkpoint; returns its depth (for assertions)."""
        marks = self._marks
        marks.append(len(self._undo))
        return len(marks)

    def commit(self) -> None:
        """Close the innermost checkpoint, keeping its writes."""
        marks = self._marks
        if not marks:
            raise RuntimeError("commit without checkpoint")
        marks.pop()
        if not marks:
            self._undo.clear()

    def rollback(self) -> None:
        """Undo every write since the innermost checkpoint."""
        if not self._marks:
            raise RuntimeError("rollback without checkpoint")
        mark = self._marks.pop()
        undo, data = self._undo, self._data
        for key, old in reversed(undo[mark:]):
            if old is _MISSING:
                data.pop(key, None)
            else:
                data[key] = old
        del undo[mark:]

    @property
    def depth(self) -> int:
        return len(self._marks)

    def __len__(self) -> int:
        return len(self._data)


class StorageView:
    """A contract-scoped facade over the shared :class:`StateJournal`.

    Contracts read and write their own storage through this view. Reads
    go straight to the journal's data dict; writes go through the journal
    so all mutations stay revertible without each contract knowing about
    checkpoints.
    """

    __slots__ = ("_state", "_owner", "_data")

    def __init__(self, state: StateJournal, owner: Address) -> None:
        self._state = state
        self._owner = owner
        self._data = state._data

    def get(self, slot: Hashable, default: Any = None) -> Any:
        return self._data.get((self._owner, slot), default)

    def set(self, slot: Hashable, value: Any) -> None:
        self._state.set(self._owner, slot, value)

    def add(self, slot: Hashable, delta: int) -> int:
        return self._state.add(self._owner, slot, delta)

    def delete(self, slot: Hashable) -> None:
        self._state.delete(self._owner, slot)

    def contains(self, slot: Hashable) -> bool:
        return (self._owner, slot) in self._data
