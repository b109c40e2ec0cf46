"""Secondary indexes: an order-preserving B+-tree and an equality hash index.

The B+-tree is a textbook implementation (fixed fanout, sorted keys at every
node, leaf chaining for range scans) storing lists of RIDs per key so
non-unique indexed columns work.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator

_FANOUT = 64


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.values: list[list[int]] = []
        self.next: "_Leaf | None" = None


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.children: list[Any] = []


class BPlusTreeIndex:
    """B+-tree over one column; supports point and range lookups."""

    def __init__(self, name: str, table: str, column: str):
        self.name = name
        self.table = table
        self.column = column
        self._root: _Leaf | _Inner = _Leaf()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # -- mutation ----------------------------------------------------------

    def insert(self, key: Any, rid: int) -> None:
        if key is None:
            return  # NULLs are not indexed, matching PostgreSQL btree semantics
        split = self._insert(self._root, key, rid)
        if split is not None:
            sep, right = split
            new_root = _Inner()
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
        self._count += 1

    def delete(self, key: Any, rid: int) -> bool:
        """Remove one (key, rid) posting.  Returns True if found.

        Structural underflow is not rebalanced (deletes leave slack), which
        keeps the code simple and is a legitimate B-link-tree strategy.
        """
        if key is None:
            return False  # never indexed (see insert); bisect cannot order it
        leaf = self._find_leaf(key)
        i = bisect.bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            postings = leaf.values[i]
            if rid in postings:
                postings.remove(rid)
                if not postings:
                    leaf.keys.pop(i)
                    leaf.values.pop(i)
                self._count -= 1
                return True
        return False

    # -- lookups -------------------------------------------------------------

    def search(self, key: Any) -> list[int]:
        if key is None:
            return []
        leaf = self._find_leaf(key)
        i = bisect.bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            return list(leaf.values[i])
        return []

    def range_scan(self, low: Any = None, high: Any = None,
                   include_low: bool = True,
                   include_high: bool = True) -> Iterator[tuple[Any, int]]:
        """Yield (key, rid) for keys in [low, high] (bounds optional)."""
        leaf = self._leftmost_leaf() if low is None else self._find_leaf(low)
        while leaf is not None:
            for key, postings in zip(leaf.keys, leaf.values):
                if low is not None:
                    if key < low or (key == low and not include_low):
                        continue
                if high is not None:
                    if key > high or (key == high and not include_high):
                        return
                for rid in postings:
                    yield key, rid
            leaf = leaf.next

    # -- internals ----------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Inner):
            i = bisect.bisect_right(node.keys, key)
            node = node.children[i]
        return node

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Inner):
            node = node.children[0]
        return node

    def _insert(self, node: Any, key: Any, rid: int):
        if isinstance(node, _Leaf):
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                node.values[i].append(rid)
                return None
            node.keys.insert(i, key)
            node.values.insert(i, [rid])
            if len(node.keys) > _FANOUT:
                return self._split_leaf(node)
            return None
        i = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[i], key, rid)
        if split is not None:
            sep, right = split
            node.keys.insert(i, sep)
            node.children.insert(i + 1, right)
            if len(node.children) > _FANOUT:
                return self._split_inner(node)
        return None

    @staticmethod
    def _split_leaf(leaf: _Leaf):
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        right.next = leaf.next
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        leaf.next = right
        return right.keys[0], right

    @staticmethod
    def _split_inner(inner: _Inner):
        mid = len(inner.keys) // 2
        sep = inner.keys[mid]
        right = _Inner()
        right.keys = inner.keys[mid + 1:]
        right.children = inner.children[mid + 1:]
        inner.keys = inner.keys[:mid]
        inner.children = inner.children[:mid + 1]
        return sep, right


class HashIndex:
    """Equality-only index: dict from key to RID postings."""

    def __init__(self, name: str, table: str, column: str):
        self.name = name
        self.table = table
        self.column = column
        self._buckets: dict[Any, list[int]] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def insert(self, key: Any, rid: int) -> None:
        if key is None:
            return
        self._buckets.setdefault(key, []).append(rid)
        self._count += 1

    def delete(self, key: Any, rid: int) -> bool:
        postings = self._buckets.get(key)
        if postings and rid in postings:
            postings.remove(rid)
            if not postings:
                del self._buckets[key]
            self._count -= 1
            return True
        return False

    def search(self, key: Any) -> list[int]:
        if key is None:
            return []
        return list(self._buckets.get(key, ()))
