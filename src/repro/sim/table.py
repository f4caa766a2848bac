"""A dense index -> item table whose items are built on first access.

A hybrid job at 10k+ ranks that is charged as one fleet process never
touches a rank's matcher or injection engine, nor a node's NIC or
memory queue, so building one of each per rank and per node on every
job is pure overhead.  :class:`LazyTable` stands in for the list those
structures used to be: indexing ``i`` in ``range(size)`` builds the
item on first use (a plain dict hit afterwards), any other index raises
:class:`IndexError` and creates no entry, and iterating yields the
*built* items in index order — so sums and reports over a table are
those over the list it replaces whenever an unbuilt item has nothing to
contribute (a pristine queue, an idle matcher).
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["LazyTable"]


class LazyTable(dict):
    """Index in ``range(size)`` -> ``build(index)``, built on first access.

    ``len()`` counts the built items; ``in`` tests whether an index has
    been built.

    >>> table = LazyTable(4, lambda i: i * i)
    >>> table[3], table[1], len(table)
    (9, 1, 2)
    >>> list(table)
    [1, 9]
    >>> table[4]
    Traceback (most recent call last):
    ...
    IndexError: index 4 out of range for a table of 4
    """

    __slots__ = ("size", "build")

    def __init__(self, size: int, build: Callable[[int], Any]):
        super().__init__()
        self.size = size
        self.build = build

    def __missing__(self, index: int) -> Any:
        if not 0 <= index < self.size:
            raise IndexError(
                f"index {index} out of range for a table of {self.size}"
            )
        item = self[index] = self.build(index)
        return item

    def __iter__(self):
        return iter([item for _, item in sorted(self.items())])
