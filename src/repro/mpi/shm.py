"""Shared-memory regions for intra-node collective phases.

A :class:`ShmRegion` is a per-node key/value rendezvous space standing
in for the mmap'd segment MVAPICH2 uses for its shared-memory
collectives.  Values appear under unique keys (the caller includes its
communicator context and collective tag block in the key, so concurrent
collectives never collide), and readers block until the writer has
deposited — this data-flow dependency *is* the flag synchronisation of
the DPML phases; the copy and flag costs are charged separately by the
callers through :class:`~repro.machine.machine.Machine`.

Sanitizing
----------
When the owning simulator carries a sanitizer (``sim.sanitizer``), the
region enforces structural invariants on top of the plain rendezvous
semantics:

* a ``put`` annotated with a partition ``span`` — ``(frame, start,
  stop, total)``, claiming elements ``[start, stop)`` of the logical
  vector ``frame`` — is checked for out-of-bounds and overlapping
  partitions (the DPML phases annotate their deposits, so a leader
  publishing the wrong partition trips this instead of silently
  corrupting a neighbour's slice);
* reading a key whose value was already fully consumed is a *stale
  read* (without the tombstone the reader would block forever on a key
  nobody will write again — a silent deadlock);
* all :meth:`read` calls for one key must declare the same ``readers``
  fan-out.

Zero-copy discipline
--------------------
Values are deposited and handed back *by reference* — payloads put into
a region are read-only views (see :mod:`repro.payload.payload`), so
readback costs no host-side copy, exactly like processes mapping one
physical segment.  :meth:`concat` memoizes the reassembly of deposited
pieces per identity, so the ``ppn`` co-located readers of a node share
one materialization instead of each building their own.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional

from repro.errors import MPIError
from repro.sim import Event, Simulator

__all__ = ["ShmRegion"]


class ShmRegion:
    """Key/value rendezvous space of one node."""

    __slots__ = (
        "sim",
        "name",
        "_data",
        "_waiters",
        "_reads_left",
        "_declared_readers",
        "_consumed",
        "_concat_cache",
    )

    def __init__(self, sim: Simulator, name: str = "shm"):
        self.sim = sim
        self.name = name
        self._data: dict[Hashable, Any] = {}
        self._waiters: dict[Hashable, list[Event]] = {}
        self._reads_left: dict[Hashable, int] = {}
        # Sanitize-only bookkeeping (kept empty otherwise).
        self._declared_readers: dict[Hashable, int] = {}
        self._consumed: set = set()
        # Identity-keyed memo for concat() (regions live for one job).
        self._concat_cache: dict[tuple, Any] = {}

    def put(
        self, key: Hashable, value: Any, *, span: Optional[tuple] = None
    ) -> None:
        """Deposit ``value`` under ``key``; wakes all blocked readers.

        ``span`` optionally declares the partition this write claims:
        ``(frame, start, stop, total)`` meaning elements ``[start,
        stop)`` of the logical vector identified by ``frame`` (any
        hashable), whose full extent is ``total`` elements.  Span
        checking only happens on sanitized runs.
        """
        sanitizer = self.sim.sanitizer
        if key in self._data:
            if sanitizer is not None:
                from repro.check.reports import SHM_DOUBLE_WRITE

                sanitizer.record(
                    SHM_DOUBLE_WRITE,
                    f"shm key {key!r} on {self.name} written twice",
                    time=self.sim.now,
                    region=self.name,
                    key=repr(key),
                )
            raise MPIError(f"shm key {key!r} written twice")
        if sanitizer is not None and span is not None:
            report = sanitizer.shm_write(
                self.name, key, span, getattr(value, "count", None), self.sim.now
            )
            if report is not None:
                raise MPIError(str(report))
        self._data[key] = value
        for ev in self._waiters.pop(key, ()):  # wake in wait order
            ev.succeed(value)

    def concat(self, parts: list) -> Any:
        """Concatenate payloads read from this region, memoized by part
        identity.

        Every co-located rank of a node reads back the *same* deposited
        payload objects and reassembles them in the fan-out phase; the
        first caller does the work and the rest reuse the result (the
        shared segment holds one copy, not ``ppn``).  Payloads never
        define ``__eq__``/``__hash__``, so the tuple key hashes by
        identity; the cache holds strong references, which makes id
        reuse impossible while an entry lives.
        """
        from repro.payload.payload import concat as _concat

        key = tuple(parts)
        cached = self._concat_cache.get(key)
        if cached is None:
            cached = self._concat_cache[key] = _concat(parts)
        return cached

    def _wait(self, key: Hashable) -> Event:
        ev = self.sim.event()
        if key in self._data:
            ev.succeed(self._data[key])
        else:
            if self.sim.sanitizer is not None and key in self._consumed:
                from repro.check.reports import SHM_STALE_READ

                report = self.sim.sanitizer.record(
                    SHM_STALE_READ,
                    f"shm key {key!r} on {self.name} read after its value "
                    "was fully consumed",
                    time=self.sim.now,
                    region=self.name,
                    key=repr(key),
                )
                raise MPIError(str(report))
            self._waiters.setdefault(key, []).append(ev)
        return ev

    def take(self, key: Hashable) -> Event:
        """Event firing with the value; the single consumer removes it."""
        ev = self._wait(key)
        ev._add_callback(lambda _e: self._discard(key))
        return ev

    def read(self, key: Hashable, readers: int) -> Event:
        """Event firing with the value; auto-removed after ``readers`` reads."""
        if readers < 1:
            raise MPIError(
                f"shm read of {key!r} on {self.name} declares "
                f"readers={readers}; the fan-out must be >= 1"
            )
        if self.sim.sanitizer is not None:
            declared = self._declared_readers.setdefault(key, readers)
            if declared != readers:
                from repro.check.reports import SHM_READER_MISMATCH

                report = self.sim.sanitizer.record(
                    SHM_READER_MISMATCH,
                    f"shm key {key!r} on {self.name} read with "
                    f"readers={readers} after being read with "
                    f"readers={declared}",
                    time=self.sim.now,
                    region=self.name,
                    key=repr(key),
                    declared=declared,
                    readers=readers,
                )
                raise MPIError(str(report))
        ev = self._wait(key)

        def _count(_e: Event) -> None:
            left = self._reads_left.get(key, readers) - 1
            if left <= 0:
                self._discard(key)
                self._reads_left.pop(key, None)
            else:
                self._reads_left[key] = left

        ev._add_callback(_count)
        return ev

    def _discard(self, key: Hashable) -> None:
        """Drop a fully consumed value, tombstoning it on sanitized runs."""
        self._data.pop(key, None)
        if self.sim.sanitizer is not None:
            self._consumed.add(key)

    # -- introspection (sanitizer finalize, tests) ---------------------------

    def unconsumed(self) -> list:
        """Keys whose values were deposited but never fully consumed."""
        return list(self._data)

    def blocked_keys(self) -> list:
        """Keys with readers still blocked waiting for a writer."""
        return [key for key, waiters in self._waiters.items() if waiters]

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShmRegion {self.name!r} entries={len(self._data)} "
            f"waiters={len(self._waiters)}>"
        )
