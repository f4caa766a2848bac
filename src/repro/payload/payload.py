"""Payload vectors: real numpy data or symbolic size-only stand-ins.

Partitioning semantics
----------------------
:meth:`Payload.split` uses ``numpy.array_split`` boundaries: splitting
``count`` elements into ``parts`` pieces gives the first
``count % parts`` pieces ``ceil(count / parts)`` elements and the rest
``floor(count / parts)``.  DPML leaders own these exact partitions, so a
count that is not divisible by the leader count is handled naturally
(including pieces of zero elements when ``parts > count``).

Copy-on-write
-------------
Payloads are immutable by convention (every reduction allocates a fresh
result), so :meth:`DataPayload.slice` hands out read-only numpy *views*
instead of copies, and :func:`concat` of adjacent sibling views returns
a view of the shared parent range without touching the data — the
simulated analogue of the zero-copy shared-memory discipline the
multi-leader design relies on.

The module keeps deterministic byte counters (:func:`payload_counters`)
so the golden counter tests can pin data-movement savings that do not
depend on the host machine.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from repro.errors import PayloadError
from repro.payload.ops import ReduceOp

__all__ = [
    "Payload",
    "DataPayload",
    "SymbolicPayload",
    "concat",
    "make_payload",
    "payload_counters",
    "reset_payload_counters",
    "split_bounds",
]

class _Counters:
    """Deterministic byte counters for the payload layer."""

    __slots__ = ("bytes_copied", "bytes_viewed", "bytes_reduced")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.bytes_copied = 0  # data physically duplicated
        self.bytes_viewed = 0  # data shared through zero-copy views
        self.bytes_reduced = 0  # reduction outputs (workspace, not movement)


_COUNTERS = _Counters()


def payload_counters() -> dict[str, int]:
    """Snapshot of the module-wide byte counters.

    ``bytes_copied`` counts every physical duplication of payload data
    (``concat`` materializations, :meth:`Payload.copy`); ``bytes_viewed`` counts bytes shared through
    zero-copy views instead; ``bytes_reduced`` counts reduction output
    bytes (fresh workspace, reported separately because it is not data
    movement).  Counters are process-global — reset around the region
    you want to measure.
    """
    return {
        "bytes_copied": _COUNTERS.bytes_copied,
        "bytes_viewed": _COUNTERS.bytes_viewed,
        "bytes_reduced": _COUNTERS.bytes_reduced,
    }


def reset_payload_counters() -> None:
    """Zero the module-wide byte counters."""
    _COUNTERS.reset()


@functools.lru_cache(maxsize=4096)
def split_bounds(count: int, parts: int) -> tuple[tuple[int, int], ...]:
    """``numpy.array_split``-compatible ``(start, stop)`` bounds.

    Cached: every rank of every DPML call recomputes the identical
    partition table, so the (count, parts) grid of a sweep is tiny
    compared to the number of lookups.

    >>> split_bounds(10, 3)
    ((0, 4), (4, 7), (7, 10))
    """
    if parts < 1:
        raise PayloadError(f"cannot split into {parts} parts")
    base, extra = divmod(count, parts)
    bounds = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        bounds.append((start, start + size))
        start += size
    return tuple(bounds)


class Payload:
    """Abstract 1-D message vector.

    Attributes
    ----------
    count:
        Number of elements.
    itemsize:
        Bytes per element.
    """

    __slots__ = ()

    count: int
    itemsize: int

    @property
    def nbytes(self) -> int:
        """Total size in bytes."""
        return self.count * self.itemsize

    # -- interface ----------------------------------------------------------

    def slice(self, start: int, stop: int) -> "Payload":
        """Sub-vector ``[start:stop]`` (a read-only zero-copy view for
        data payloads; treat payloads as immutable)."""
        raise NotImplementedError

    def reduce(self, other: "Payload", op: ReduceOp) -> "Payload":
        """Element-wise ``self op other`` as a new payload."""
        raise NotImplementedError

    def copy(self) -> "Payload":
        """Independent copy."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    def split(self, parts: int) -> list["Payload"]:
        """Partition into ``parts`` pieces with :func:`split_bounds`."""
        return [self.slice(a, b) for a, b in split_bounds(self.count, parts)]

    def _check_compatible(self, other: "Payload") -> None:
        if self.count != other.count:
            raise PayloadError(
                f"cannot reduce payloads of different lengths "
                f"({self.count} vs {other.count})"
            )
        if self.itemsize != other.itemsize:
            raise PayloadError(
                f"cannot reduce payloads of different item sizes "
                f"({self.itemsize} vs {other.itemsize})"
            )


class DataPayload(Payload):
    """Payload backed by a real 1-D numpy array.

    Slices are read-only views that remember their root array and
    offset (``_root``/``_start``), which lets :func:`concat` recognise
    adjacent siblings and reassemble them without copying.
    """

    __slots__ = ("array", "_root", "_start")

    def __init__(self, array: np.ndarray):
        arr = np.asarray(array)
        if arr.ndim != 1:
            raise PayloadError(f"payload arrays must be 1-D, got shape {arr.shape}")
        self.array = arr
        self._root = arr
        self._start = 0

    @classmethod
    def _view(cls, root: np.ndarray, start: int, stop: int) -> "DataPayload":
        """Internal: wrap ``root[start:stop]`` as a read-only view."""
        view = root[start:stop]
        view.flags.writeable = False
        p = cls.__new__(cls)
        p.array = view
        p._root = root
        p._start = start
        _COUNTERS.bytes_viewed += view.nbytes
        return p

    @property
    def count(self) -> int:  # type: ignore[override]
        return int(self.array.shape[0])

    @property
    def itemsize(self) -> int:  # type: ignore[override]
        return int(self.array.dtype.itemsize)

    def slice(self, start: int, stop: int) -> "DataPayload":
        # Normalize python-slice semantics (clamping) so the recorded
        # offset matches what numpy actually sliced.
        a, b, _ = slice(start, stop).indices(self.array.shape[0])
        return DataPayload._view(self._root, self._start + a, self._start + max(a, b))

    def reduce(self, other: Payload, op: ReduceOp) -> "DataPayload":
        self._check_compatible(other)
        if isinstance(other, SymbolicPayload):
            raise PayloadError("cannot mix data and symbolic payloads in reduce()")
        assert isinstance(other, DataPayload)
        out = op.apply(self.array, other.array)
        _COUNTERS.bytes_reduced += out.nbytes
        return DataPayload(out)

    def copy(self) -> "DataPayload":
        _COUNTERS.bytes_copied += self.array.nbytes
        return DataPayload(self.array.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataPayload(count={self.count}, dtype={self.array.dtype})"


class SymbolicPayload(Payload):
    """Payload that tracks only its shape — no data, no arithmetic.

    Used for large-scale timing runs: the simulated cost of copying,
    sending and reducing depends only on ``nbytes``, so carrying real
    arrays through a 10,240-rank simulation would be pure overhead.
    ``count``, ``itemsize`` and ``nbytes`` are set once, at construction.
    """

    __slots__ = ("count", "itemsize", "nbytes")

    def __init__(self, count: int, itemsize: int = 8):
        if count < 0:
            raise PayloadError(f"negative element count: {count}")
        if itemsize <= 0:
            raise PayloadError(f"non-positive item size: {itemsize}")
        self.count = count = int(count)
        self.itemsize = itemsize = int(itemsize)
        self.nbytes = count * itemsize

    def slice(self, start: int, stop: int) -> "SymbolicPayload":
        if not (0 <= start <= stop <= self.count):
            raise PayloadError(
                f"slice [{start}:{stop}] out of bounds for count {self.count}"
            )
        return _symbolic(stop - start, self.itemsize)

    def reduce(self, other: Payload, op: ReduceOp) -> "SymbolicPayload":
        self._check_compatible(other)
        if isinstance(other, DataPayload):
            raise PayloadError("cannot mix data and symbolic payloads in reduce()")
        return _symbolic(self.count, self.itemsize)

    def copy(self) -> "SymbolicPayload":
        return _symbolic(self.count, self.itemsize)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymbolicPayload(count={self.count}, itemsize={self.itemsize})"


def _symbolic(count: int, itemsize: int) -> SymbolicPayload:
    """A :class:`SymbolicPayload` of a count and item size already known
    to be valid ints, without the public constructor's checks."""
    p = object.__new__(SymbolicPayload)
    p.count, p.itemsize, p.nbytes = count, itemsize, count * itemsize
    return p


class Bundle(Payload):
    """A structured group of payloads travelling as one message.

    Used by gather/scatter trees to ship a whole subtree's blocks in a
    single transfer while preserving the per-rank boundaries (the
    block-count header an MPI implementation would carry costs nothing
    compared to the data).  The bundle's cost on the wire is the sum of
    its parts.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Payload]):
        if not parts:
            raise PayloadError("a bundle needs at least one part")
        self.parts = list(parts)

    @property
    def count(self) -> int:  # type: ignore[override]
        return sum(p.count for p in self.parts)

    @property
    def itemsize(self) -> int:  # type: ignore[override]
        # A single itemsize only exists when the parts agree; guessing
        # one for a heterogeneous bundle would silently corrupt any
        # byte accounting built on it (nbytes is always exact).
        sizes = {p.itemsize for p in self.parts}
        if len(sizes) != 1:
            raise PayloadError(
                f"bundle has heterogeneous part item sizes {sorted(sizes)}; "
                "use nbytes or inspect .parts"
            )
        return sizes.pop()

    @property
    def nbytes(self) -> int:  # type: ignore[override]
        return sum(p.nbytes for p in self.parts)

    def slice(self, start: int, stop: int) -> Payload:
        raise PayloadError("bundles cannot be sliced; unpack .parts instead")

    def reduce(self, other: Payload, op: ReduceOp) -> Payload:
        raise PayloadError("bundles cannot be reduced; unpack .parts instead")

    def copy(self) -> "Bundle":
        return Bundle([p.copy() for p in self.parts])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bundle({len(self.parts)} parts, {self.nbytes}B)"


def _sibling_range(parts: Sequence[Payload]):
    """The shared (root, start, stop) range iff ``parts`` are adjacent
    views of one root array, else None."""
    first = parts[0]
    root = first._root
    pos = first._start
    for p in parts:
        if p._root is not root or p._start != pos:
            return None
        pos += p.array.shape[0]
    return root, first._start, pos


def concat(parts: Sequence[Payload]) -> Payload:
    """Concatenate payload pieces back into one vector.

    The inverse of :meth:`Payload.split`: ``concat(p.split(k))`` equals
    ``p`` for any ``k``.  When the pieces are adjacent views of one
    parent array (exactly what ``split`` produces), the parent range is
    returned as a zero-copy view; otherwise the data is materialized.
    """
    if not parts:
        raise PayloadError("cannot concatenate an empty list of payloads")
    itemsizes = {p.itemsize for p in parts}
    if len(itemsizes) != 1:
        raise PayloadError(f"mixed item sizes in concat: {sorted(itemsizes)}")
    if all(isinstance(p, SymbolicPayload) for p in parts):
        return _symbolic(sum(p.count for p in parts), parts[0].itemsize)
    if all(isinstance(p, DataPayload) for p in parts):
        joined = _sibling_range(parts)
        if joined is not None:
            root, start, stop = joined
            return DataPayload._view(root, start, stop)
        out = np.concatenate([p.array for p in parts])
        _COUNTERS.bytes_copied += out.nbytes
        return DataPayload(out)
    raise PayloadError("cannot concatenate a mix of data and symbolic payloads")


def reduce_payloads(parts: Sequence[Payload], op: ReduceOp) -> Payload:
    """Fold a list of equal-shape payloads down to one (pure data op;
    the caller charges the simulated compute time)."""
    if not parts:
        raise PayloadError("cannot reduce an empty list of payloads")
    if len(parts) == 1:
        return parts[0].copy()
    if all(isinstance(p, DataPayload) for p in parts):
        first = parts[0]
        for p in parts[1:]:
            first._check_compatible(p)
        out = op.reduce_stack([p.array for p in parts])
        _COUNTERS.bytes_reduced += out.nbytes
        return DataPayload(out)
    if all(isinstance(p, SymbolicPayload) for p in parts):
        first = parts[0]
        for p in parts[1:]:
            first._check_compatible(p)
        return first.copy()
    raise PayloadError("cannot reduce a mix of data and symbolic payloads")


def make_payload(
    count: int,
    itemsize: int = 8,
    *,
    symbolic: bool = False,
    data: Iterable | np.ndarray | None = None,
    dtype=np.float64,
) -> Payload:
    """Convenience constructor used by benchmarks and examples.

    ``symbolic=True`` builds a :class:`SymbolicPayload`; otherwise a
    :class:`DataPayload` is built from ``data`` (or zeros).
    """
    if symbolic:
        if data is not None:
            raise PayloadError("symbolic payloads cannot carry data")
        return SymbolicPayload(count, itemsize)
    if data is None:
        return DataPayload(np.zeros(count, dtype=dtype))
    arr = np.asarray(data, dtype=dtype)
    if arr.shape != (count,):
        raise PayloadError(f"data shape {arr.shape} does not match count {count}")
    return DataPayload(arr)
