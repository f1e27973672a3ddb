"""Read-only per-key mappings held as columns.

Map partials, Reduce results, a batch's output and window answers are
built as aligned columns; these mappings keep them so until a reader
asks for a ``dict``, and compare and pickle as the ``dict`` they hold.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from ..core.tuples import Key

__all__ = ["FrozenMapping", "KeyColumns", "columns_of"]


class FrozenMapping(Mapping):
    """A read-only mapping whose :meth:`_dict` builds the plain ``dict``
    it stands for: views, ``==``, ``repr`` and pickling go through it."""

    __slots__ = ()

    def _dict(self) -> dict:
        raise NotImplementedError

    def keys(self):
        return self._dict().keys()

    def values(self):
        return self._dict().values()

    def items(self):
        return self._dict().items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenMapping):
            other = other._dict()
        return self._dict() == other if isinstance(other, Mapping) else NotImplemented

    def __reduce__(self):
        return dict, (self._dict(),)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._dict()!r})"


class KeyColumns(FrozenMapping):
    """Distinct keys and their values as two aligned lists, adopted as
    given; the first lookup builds the ``dict`` and keeps it."""

    __slots__ = ("key_column", "value_column", "_lookup")

    def __init__(self, keys: list[Key], values: list[Any]) -> None:
        self.key_column, self.value_column = keys, values
        self._lookup: dict | None = None

    def _dict(self) -> dict:
        if self._lookup is None:
            self._lookup = dict(zip(self.key_column, self.value_column))
        return self._lookup

    def __getitem__(self, key: Key) -> Any:
        return self._dict()[key]

    def __contains__(self, key: object) -> bool:
        return key in self._dict()

    def __iter__(self) -> Iterator[Key]:
        return iter(self.key_column)

    def __len__(self) -> int:
        return len(self.key_column)


def columns_of(mapping: Mapping[Key, Any]) -> tuple[Sequence[Key], Sequence[Any]]:
    """``mapping``'s keys and values as two aligned sequences (read only)."""
    if isinstance(mapping, KeyColumns):
        return mapping.key_column, mapping.value_column
    return list(mapping), list(mapping.values())
