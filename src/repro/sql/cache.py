"""A bounded least-recently-used map for what is compiled from a statement
text: plans, analyses, scheme choices. See the "Statement cache" section
of ``docs/QUERY.md``."""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

#: Entries one :class:`StatementCache` holds (per connection or engine).
STATEMENT_CACHE_SIZE = 128

V = TypeVar("V")


class StatementCache(Generic[V]):
    """Maps a key (a statement text, or a tuple holding one) to the value
    compiled from it. Holds at most :data:`STATEMENT_CACHE_SIZE` entries
    and drops the least recently used first. A compile that raises
    caches nothing."""

    def __init__(self) -> None:
        self._entries: OrderedDict[Hashable, V] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, compile: Callable[[], V]) -> V:
        entries = self._entries
        try:
            value = entries[key]
        except KeyError:
            value = entries[key] = compile()
            if len(entries) > STATEMENT_CACHE_SIZE:
                entries.popitem(last=False)
            return value
        entries.move_to_end(key)
        return value

    def clear(self) -> None:
        self._entries.clear()
