"""Communicators.

Each rank holds its own :class:`Comm` *view* (so ``comm.rank`` is the
caller's rank); views of the same communicator share a :class:`Group`
that carries the member list, the context id isolating its traffic, and
the coordination state for ``split``.

Collective operations are generator methods — call them with
``yield from`` inside a rank coroutine::

    def main(comm):
        result = yield from comm.allreduce(payload, SUM)
        ...

Non-blocking collectives (``icoll``/``iallreduce``) spawn the same
generator as a background simulator process and return a
:class:`~repro.mpi.request.Request`, which is exactly how
DPML-Pipelined overlaps its ``k`` sub-allreduces.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, Optional, Sequence

from repro.errors import CommRevokedError, MPIError
from repro.mpi.layout import Layout, build_layout
from repro.mpi.matching import ANY
from repro.mpi.request import Request
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = ["ANY_SOURCE", "ANY_TAG", "Comm", "Group"]

ANY_SOURCE = ANY
ANY_TAG = ANY

# Collective algorithms get disjoint tag blocks of this size.
_COLL_TAG_SPAN = 64
_COLL_TAG_BASE = 1 << 20


class Group:
    """State shared by all rank views of one communicator."""

    __slots__ = (
        "ranks", "context", "index_of", "_split_calls", "_coll_calls",
        "revoked", "layout",
    )

    def __init__(self, ranks: Sequence[int], context: int):
        self.ranks = tuple(ranks)
        self.context = context
        self.index_of = {g: i for i, g in enumerate(self.ranks)}
        # split-coordination: call number -> {"args": {rank: (color, key)},
        # "event": Event fired with {global_rank: Group}}
        self._split_calls: dict[int, dict] = {}
        self._coll_calls = 0
        # ULFM-style revocation flag (see Comm.revoke): a revoked
        # communicator refuses new traffic on every rank's view.
        self.revoked = False
        # Node/socket membership, built on first use (see Comm.layout).
        self.layout: Optional[Layout] = None


class Comm:
    """One rank's view of a communicator."""

    __slots__ = (
        "runtime", "group", "rank", "_split_count", "_coll_count",
        "_shrink_count", "_agree_count", "cache",
    )

    def __init__(self, runtime, group: Group, global_rank: int):
        if global_rank not in group.index_of:
            raise MPIError(f"rank {global_rank} is not a member of this communicator")
        self.runtime = runtime
        self.group = group
        self.rank = group.index_of[global_rank]
        self._split_count = 0
        self._coll_count = 0
        self._shrink_count = 0
        self._agree_count = 0
        # Per-(comm, rank) cache used by collective plans (e.g. DPML
        # leader layouts); keyed by algorithm-specific tuples.
        self.cache: dict = {}

    # -- basic properties -------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self.group.ranks)

    @property
    def world_rank(self) -> int:
        """This rank's global (COMM_WORLD) rank."""
        return self.group.ranks[self.rank]

    @property
    def machine(self):
        """The machine this job runs on."""
        return self.runtime.machine

    @property
    def layout(self) -> Layout:
        """Node and socket membership of this communicator.

        Built once per group by the first view that asks and shared by
        every other view (see :mod:`repro.mpi.layout`).
        """
        group = self.group
        if group.layout is None:
            group.layout = build_layout(group.ranks, self.machine)
        return group.layout

    @property
    def sim(self):
        """The underlying simulator."""
        return self.runtime.sim

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self.runtime.sim.now

    def translate(self, local_rank: int) -> int:
        """Communicator rank → global rank."""
        try:
            return self.group.ranks[local_rank]
        except IndexError:
            raise MPIError(
                f"rank {local_rank} out of range for communicator of size {self.size}"
            ) from None

    # -- point-to-point -----------------------------------------------------------

    def isend(self, dst: int, payload: Payload, tag: int = 0) -> Request:
        """Non-blocking send to communicator rank ``dst``."""
        if self.group.revoked:
            raise CommRevokedError(self.group.context, "isend")
        return self.runtime.transport.isend(
            self.world_rank, self.translate(dst), payload, tag, self.group.context
        )

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive."""
        if self.group.revoked:
            raise CommRevokedError(self.group.context, "irecv")
        src_global = source if source == ANY_SOURCE else self.translate(source)
        return self.runtime.transport.irecv(
            self.world_rank, src_global, tag, self.group.context
        )

    def send(self, dst: int, payload: Payload, tag: int = 0) -> Generator:
        """Blocking send (completes when the buffer is reusable)."""
        req = self.isend(dst, payload, tag)
        yield req.event

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking receive; returns the payload."""
        req = self.irecv(source, tag)
        payload = yield req.event
        return payload

    def sendrecv(
        self,
        dst: int,
        payload: Payload,
        source: int = ANY_SOURCE,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
    ) -> Generator:
        """Concurrent send+receive; returns the received payload."""
        send_req = self.isend(dst, payload, send_tag)
        recv_req = self.irecv(source, recv_tag)
        _, received = yield self.sim.all_of([send_req.event, recv_req.event])
        return received

    # -- request completion ---------------------------------------------------------

    def wait(self, request: Request) -> Generator:
        """Block until ``request`` completes; returns its value."""
        value = yield request.event
        return value

    def waitall(self, requests: Sequence[Request]) -> Generator:
        """Block until every request completes; returns their values."""
        values = yield self.sim.all_of([r.event for r in requests])
        return values

    def waitany(self, requests: Sequence[Request]) -> Generator:
        """Block until one request completes; returns ``(index, value)``."""
        result = yield self.sim.any_of([r.event for r in requests])
        return result

    # -- synchronisation ---------------------------------------------------------------

    def barrier(self, tag_base: Optional[int] = None) -> Generator:
        """Dissemination barrier (``ceil(lg p)`` zero-byte rounds).

        In hybrid fidelity the ``p * ceil(lg p)`` message events become
        a single macro-charge of the closed-form barrier latency (the
        tag block is still allocated first, keeping per-view collective
        counters aligned with exact runs).
        """
        from repro.payload.payload import SymbolicPayload

        if tag_base is None:
            tag_base = self._alloc_coll_tags()
        p = self.size
        if p == 1:
            return
        if self.runtime.fidelity == "hybrid":
            from repro.mpi.collectives.hybrid import hybrid_barrier

            charged = yield from hybrid_barrier(self, tag_base)
            if charged:
                return
        token = SymbolicPayload(0, 1)
        distance = 1
        round_no = 0
        while distance < p:
            dst = (self.rank + distance) % p
            src = (self.rank - distance) % p
            yield from self.sendrecv(
                dst, token, source=src,
                send_tag=tag_base + round_no, recv_tag=tag_base + round_no,
            )
            distance *= 2
            round_no += 1

    # -- collectives --------------------------------------------------------------------

    def _alloc_coll_tags(self) -> int:
        """A tag block for one collective call.

        Every rank must invoke collectives on a communicator in the same
        order (an MPI requirement), so per-view counters stay aligned.
        """
        if self.group.revoked:
            raise CommRevokedError(self.group.context, "collective")
        base = _COLL_TAG_BASE + self._coll_count * _COLL_TAG_SPAN
        self._coll_count += 1
        return base

    def allreduce(
        self, payload: Payload, op: ReduceOp, algorithm: Optional[str] = None, **kwargs
    ) -> Generator:
        """Blocking allreduce; returns the fully reduced payload.

        ``algorithm`` picks an entry from the registry
        (:mod:`repro.mpi.collectives.registry`); ``None`` uses the
        machine's default selector.

        When a recovery layer is attached, every *outermost*
        world-communicator call is logged with the
        :class:`~repro.resilience.manager.RecoveryManager` — and, after
        a failover, replayed from the log up to the last boundary every
        survivor had completed.  Nested same-context calls (DPML's flat
        fallback, the adaptive selector's cost agreement) are interior
        steps of the outer collective and always re-execute with it.
        """
        manager = getattr(self.runtime, "recovery", None)
        if manager is None or self.group.context != 0:
            result = yield from self._allreduce_impl(payload, op, algorithm, kwargs)
            return result
        outermost = manager.enter_collective(self.world_rank)
        try:
            if outermost:
                hit, value = manager.replay(self.world_rank)
                if hit:
                    return value
            result = yield from self._allreduce_impl(payload, op, algorithm, kwargs)
            if outermost:
                manager.record(self.world_rank, result)
            return result
        finally:
            manager.exit_collective(self.world_rank)

    def _allreduce_impl(
        self, payload: Payload, op: ReduceOp, algorithm: Optional[str], kwargs
    ) -> Generator:
        from repro.mpi.collectives.registry import resolve_allreduce

        fn = resolve_allreduce(algorithm, self)
        tag_base = self._alloc_coll_tags()
        result = yield from fn(self, payload, op, tag_base=tag_base, **kwargs)
        return result

    def icoll(self, fn: Callable[..., Generator], *args, **kwargs) -> Request:
        """Run collective generator ``fn(comm, *args, ...)`` in the
        background; the request completes with its return value."""
        req = Request(self.sim, "coll")
        proc = self.sim.process(
            fn(self, *args, **kwargs), name=f"icoll r{self.world_rank}"
        )

        def _done(ev):
            if ev.ok:
                req.complete(ev.value)
            else:
                req.event.fail(ev.value)

        proc._add_callback(_done)
        return req

    def iallreduce(
        self, payload: Payload, op: ReduceOp, algorithm: Optional[str] = None, **kwargs
    ) -> Request:
        """Non-blocking allreduce; the request completes with the result."""
        from repro.mpi.collectives.registry import resolve_allreduce

        fn = resolve_allreduce(algorithm, self)
        tag_base = self._alloc_coll_tags()
        return self.icoll(fn, payload, op, tag_base=tag_base, **kwargs)

    def _coll(self, kind: str, algorithm: Optional[str], *args, **kwargs) -> Generator:
        from repro.mpi.collectives.registry import resolve_collective

        fn = resolve_collective(kind, algorithm, self)
        tag_base = self._alloc_coll_tags()
        result = yield from fn(self, *args, tag_base=tag_base, **kwargs)
        return result

    def _icoll(self, kind: str, algorithm: Optional[str], *args, **kwargs) -> Request:
        from repro.mpi.collectives.registry import resolve_collective

        fn = resolve_collective(kind, algorithm, self)
        tag_base = self._alloc_coll_tags()
        return self.icoll(fn, *args, tag_base=tag_base, **kwargs)

    def reduce(
        self,
        payload: Payload,
        op: ReduceOp,
        root: int = 0,
        algorithm: Optional[str] = None,
        **kwargs,
    ) -> Generator:
        """Blocking reduce; returns the result at ``root``, None elsewhere."""
        result = yield from self._coll(
            "reduce", algorithm, payload, op, root=root, **kwargs
        )
        return result

    def ireduce(
        self,
        payload: Payload,
        op: ReduceOp,
        root: int = 0,
        algorithm: Optional[str] = None,
        **kwargs,
    ) -> Request:
        """Non-blocking reduce."""
        return self._icoll("reduce", algorithm, payload, op, root=root, **kwargs)

    def bcast(
        self,
        payload: Optional[Payload],
        root: int = 0,
        algorithm: Optional[str] = None,
        **kwargs,
    ) -> Generator:
        """Blocking broadcast; returns the root's payload on every rank.

        Non-root ranks may pass ``None`` (tree algorithms) or, for the
        ``"auto"`` selector, a placeholder payload of the same count.
        """
        result = yield from self._coll(
            "bcast", algorithm, payload, root=root, **kwargs
        )
        return result

    def ibcast(
        self,
        payload: Optional[Payload],
        root: int = 0,
        algorithm: Optional[str] = None,
        **kwargs,
    ) -> Request:
        """Non-blocking broadcast."""
        return self._icoll("bcast", algorithm, payload, root=root, **kwargs)

    def allgather(
        self, payload: Payload, algorithm: Optional[str] = None, **kwargs
    ) -> Generator:
        """Blocking allgather; returns the rank-ordered concatenation of
        every rank's equal-count contribution."""
        result = yield from self._coll("allgather", algorithm, payload, **kwargs)
        return result

    def reduce_scatter(
        self,
        payload: Payload,
        op: ReduceOp,
        algorithm: Optional[str] = None,
        **kwargs,
    ) -> Generator:
        """Blocking reduce-scatter; returns this rank's reduced chunk
        (chunk boundaries from ``split_bounds(count, size)``)."""
        result = yield from self._coll(
            "reduce_scatter", algorithm, payload, op, **kwargs
        )
        return result

    def gather(
        self,
        payload: Payload,
        root: int = 0,
        algorithm: Optional[str] = None,
        **kwargs,
    ) -> Generator:
        """Blocking gather; the root returns the list of contributions."""
        result = yield from self._coll(
            "gather", algorithm, payload, root=root, **kwargs
        )
        return result

    def scatter(
        self,
        payloads,
        root: int = 0,
        algorithm: Optional[str] = None,
        **kwargs,
    ) -> Generator:
        """Blocking scatter; the root provides one payload per rank and
        every rank returns its own."""
        result = yield from self._coll(
            "scatter", algorithm, payloads, root=root, **kwargs
        )
        return result

    def alltoall(
        self,
        blocks,
        algorithm: Optional[str] = None,
        **kwargs,
    ) -> Generator:
        """Blocking all-to-all; ``blocks[i]`` goes to rank ``i``;
        returns the list of blocks received, in source-rank order."""
        result = yield from self._coll("alltoall", algorithm, blocks, **kwargs)
        return result

    # -- fault tolerance (ULFM-style) ---------------------------------------------------

    def revoke(self) -> None:
        """Revoke the communicator (``MPIX_Comm_revoke``).

        Marks the shared group so *every* rank's view refuses new
        point-to-point and collective traffic with
        :class:`~repro.errors.CommRevokedError`.  Only :meth:`shrink`
        and :meth:`agree` remain usable — the surviving ranks negotiate
        a replacement communicator through them.  Idempotent and local
        (no simulated time): the simulator's shared ``Group`` object
        plays the role of ULFM's reliable revocation broadcast.
        """
        self.group.revoked = True

    def _survivor_members(self) -> list[int]:
        """Communicator ranks of members not on a confirmed-dead node.

        Consults the runtime's recovery manager; without one, every
        member counts as surviving.
        """
        manager = getattr(self.runtime, "recovery", None)
        if manager is None or not manager.dead_nodes:
            return list(range(self.size))
        dead = manager.dead_ranks
        return [
            i for i, g in enumerate(self.group.ranks) if g not in dead
        ]

    def shrink(self) -> Generator:
        """Collective over survivors: a fresh comm without the dead
        (``MPIX_Comm_shrink``).

        Ranks on nodes the recovery manager has confirmed dead are
        excluded from the new group (and, being dead, never call);
        every survivor must call.  Works on revoked communicators —
        that is the point.  Like :meth:`split`, communicator
        construction is free setup work and advances no simulated time.
        """
        members = self._survivor_members()
        if self.rank not in members:
            raise MPIError(
                f"rank {self.rank} is on a confirmed-dead node and cannot "
                f"take part in shrink()"
            )
        call_no = self._shrink_count
        self._shrink_count += 1
        key = ("shrink", self.group.context, call_no)
        event, is_last, _ = self.runtime.gate_exchange(
            key, len(members), self.rank
        )
        if is_last:
            new_group = Group(
                [self.group.ranks[i] for i in members],
                self.runtime.next_context(),
            )
            event.succeed(new_group)
        new_group = yield event
        return Comm(self.runtime, new_group, self.world_rank)

    def agree(self, value, op: str = "min") -> Generator:
        """Deterministic agreement over survivors (``MPIX_Comm_agree``).

        Every surviving rank contributes ``value``; all of them return
        the same reduction of the contributions: ``"min"``, ``"max"``,
        or ``"and"`` (logical conjunction — ULFM's flag semantics).
        Order-independent by construction, so the agreed value is
        deterministic regardless of arrival order.  Usable on revoked
        communicators; free setup work like :meth:`shrink`.
        """
        if op not in ("min", "max", "and"):
            raise MPIError(f"agree() op must be 'min', 'max', or 'and', got {op!r}")
        members = self._survivor_members()
        if self.rank not in members:
            raise MPIError(
                f"rank {self.rank} is on a confirmed-dead node and cannot "
                f"take part in agree()"
            )
        call_no = self._agree_count
        self._agree_count += 1
        key = ("agree", self.group.context, call_no)
        event, is_last, items = self.runtime.gate_exchange(
            key, len(members), value
        )
        if is_last:
            if op == "min":
                agreed = min(items)
            elif op == "max":
                agreed = max(items)
            else:
                agreed = all(items)
            event.succeed(agreed)
        agreed = yield event
        return agreed

    # -- communicator management -----------------------------------------------------------

    def dup(self) -> Generator:
        """Collective duplicate (``MPI_Comm_dup``): same group, fresh
        context, so the duplicate's traffic never matches the original's."""
        new_comm = yield from self.split(color=0, key=self.rank)
        return new_comm

    def split(self, color: int, key: Optional[int] = None) -> Generator:
        """Collective split (``MPI_Comm_split``); returns this rank's new comm.

        Ranks passing the same ``color`` land in the same communicator,
        ordered by ``key`` (defaulting to current rank).  Returns
        ``None`` for ``color < 0`` (``MPI_UNDEFINED``).

        Communicator creation is treated as free setup work: the
        coordination is bookkeeping only and advances no simulated time
        (the paper's measurements likewise exclude communicator setup).
        """
        if key is None:
            key = self.rank
        call_no = self._split_count
        self._split_count += 1
        group = self.group
        state = group._split_calls.get(call_no)
        if state is None:
            state = {"args": {}, "event": self.sim.event()}
            group._split_calls[call_no] = state
        state["args"][self.rank] = (color, key)

        if len(state["args"]) == len(group.ranks):
            # Last member to arrive computes the split for everyone.
            by_color: dict[int, list[tuple[int, int]]] = {}
            for member, (col, k) in state["args"].items():
                if col >= 0:
                    by_color.setdefault(col, []).append((k, member))
            assignment: dict[int, Optional[Group]] = {
                member: None for member in state["args"]
            }
            for col in sorted(by_color):
                members = [m for _, m in sorted(by_color[col])]
                new_group = Group(
                    [group.ranks[m] for m in members],
                    self.runtime.next_context(),
                )
                for m in members:
                    assignment[m] = new_group
            del group._split_calls[call_no]
            state["event"].succeed(assignment)

        assignment = yield state["event"]
        new_group = assignment[self.rank]
        if new_group is None:
            return None
        return Comm(self.runtime, new_group, self.world_rank)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Comm rank {self.rank}/{self.size} ctx={self.group.context} "
            f"(world rank {self.world_rank})>"
        )
