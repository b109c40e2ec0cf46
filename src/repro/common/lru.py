"""A bounded least-recently-used map: the one LRU under the model
manager's assembled versions and the serving tier's ``ModelCache``."""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Optional, TypeVar

from repro.common.errors import check_at_least

V = TypeVar("V")


class LRU(Generic[V]):
    """At most ``capacity`` entries: :meth:`get` makes a hit the newest,
    :meth:`put` past the capacity drops the oldest."""

    def __init__(self, capacity: int):
        self.capacity = check_at_least("capacity", capacity)
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[V]:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: V) -> None:
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
