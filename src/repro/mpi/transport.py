r"""Message transport: moves payloads between ranks, charging time.

Protocol selection mirrors MVAPICH2:

* **eager** (``nbytes <= fabric.eager_threshold``): the payload moves
  immediately; an unexpected arrival is buffered at the receiver and
  costs an extra copy when finally matched;
* **rendezvous** (larger): a zero-byte RTS control message is matched
  first, the receiver answers with a CTS, and only then does the
  payload move (zero-copy on the receive side).

Inter-node messages pass through: the sender's injection engine
(per-process overhead + per-byte injection — the per-process bandwidth
and message-rate limits of Section 3), the source node's TX NIC
pipeline (chunked, so concurrent flows interleave), the wire latency,
and the destination's RX pipeline.  Intra-node messages cost
shared-memory copies on the participating cores plus the node memory
engine (eager uses the classic double copy through a shm FIFO;
rendezvous does a single copy).

How a message moves
-------------------
No message is a process.  The sender's side, the receiver's side from
the match on, each trip over the wire and each NIC chunk of a trip is a
small continuation object.  Each of its *stages* is one FCFS-queue or
timeout event that charges time, and its next step is that event's
callable waiter, run inside the dispatch that fires the event.  A
chunk's link and RX legs are timeouts with the leg's queue as their
follow-on stage (:meth:`repro.sim.engine.Event.then`).

A message also takes a *hop* (:meth:`repro.sim.engine.Simulator.hop`,
one zero-delay calendar entry) where each side starts, where each chunk
starts and finishes, and where a trip's last chunk is in.  Those are
the calendar slots of a process start, a process completion and an
``AllOf`` firing, so a run dispatches its entries in the order a
transport built from one process per side and per chunk would.  A
side's end takes no entry: nothing waits on it, so the no-op entry a
process completion would take cannot move anything else.

A side that waits on its peer (a rendezvous sender on the CTS, a
rendezvous receiver on the data) counts as a live process while it
waits, named ``send r<src>->r<dst> tag=<tag>`` or ``recv r<rank> rndv``:
a send nobody receives still ends the run with
:class:`~repro.errors.DeadlockError`.
"""

from __future__ import annotations

from repro.errors import TransportError
from repro.machine.machine import Machine
from repro.mpi.matching import EAGER, RTS, Envelope, Matcher
from repro.mpi.request import Request
from repro.payload.payload import Payload
from repro.sim import LazyTable

__all__ = ["Transport", "RndvState"]


class RndvState:
    """Out-of-band events of one rendezvous exchange."""

    __slots__ = ("cts", "data_done")

    def __init__(self, transport: "Transport"):
        sim = transport.sim
        self.cts = sim.event()  # fired at the sender when the CTS arrives
        self.data_done = sim.event()  # fired at the receiver with the payload


class Transport:
    """Moves messages for one job on one machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.sim = machine.sim
        # Rank -> Matcher, built on first use: a macro-charged job never
        # matches a message, so its ranks never build one.
        sanitizer = machine.sim.sanitizer
        self.matchers = LazyTable(
            machine.nranks, lambda rank: Matcher(rank, sanitizer=sanitizer)
        )
        self._seq: dict[tuple[int, int], int] = {}

    # -- public API (called by Comm) -------------------------------------------

    def isend(
        self, src: int, dst: int, payload: Payload, tag: int, context: int
    ) -> Request:
        """Start a non-blocking send; the request completes when the
        send buffer is reusable (MPI local-completion semantics)."""
        req = Request(self.sim, "send", source=src, tag=tag)
        seq = self._next_seq(src, dst)
        nbytes = payload.nbytes

        if src == dst:
            env = Envelope(src, dst, tag, context, EAGER, payload, nbytes, seq)
            self.matchers[dst].arrive(env)
            req.complete()
            return req

        machine = self.machine
        intra = machine.same_node(src, dst)
        if nbytes <= machine.config.fabric.eager_threshold:
            env = Envelope(src, dst, tag, context, EAGER, payload, nbytes, seq)
            side = _EagerIntra if intra else _EagerInter
        else:
            env = Envelope(
                src, dst, tag, context, RTS, None, nbytes, seq,
                rndv=RndvState(self),
            )
            side = _RndvIntra if intra else _RndvInter
        self.sim.hop(side(self, env, payload, req).start)
        return req

    def irecv(self, rank: int, src: int, tag: int, context: int) -> Request:
        """Post a non-blocking receive; completes with the payload."""
        req = Request(self.sim, "recv", source=src, tag=tag)
        self.matchers[rank].post(src, tag, context, _Recv(self, rank, req))
        return req

    # -- sequence numbers -------------------------------------------------------

    def _next_seq(self, src: int, dst: int) -> int:
        key = (src, dst)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        return seq

    # -- introspection -------------------------------------------------------------

    def matcher(self, rank: int) -> Matcher:
        """The matching engine of ``rank`` (tests and deadlock reports)."""
        return self.matchers[rank]


class _Side:
    """One side of a message: the sender's, or the receiver's."""

    __slots__ = ("transport", "_waiting_on")

    def await_peer(self, event, step) -> None:
        """Run ``step`` once the peer fires ``event``; until then this
        side counts as a live process blocked on ``event``."""
        self.transport.sim._live_processes.add(self)
        self._waiting_on = event
        event._add_callback(step)

    def peer_arrived(self) -> None:
        """The awaited peer event fired: no longer blocked."""
        self._waiting_on = None
        self.transport.sim._live_processes.discard(self)


class _Send(_Side):
    """The sender's side of one message; the subclasses are its four
    paths, each starting with ``start`` from the hop
    :meth:`Transport.isend` takes.  Rendezvous paths define
    ``cts_arrived``, and paths that copy define ``stored``."""

    __slots__ = ("env", "payload", "req", "service")

    def __init__(self, transport, env, payload, req):
        self.transport = transport
        self.env = env
        self.payload = payload
        self.req = req

    @property
    def name(self) -> str:
        """The live-process name while waiting on the receiver."""
        env = self.env
        return f"send r{env.src}->r{env.dst} tag={env.tag}"

    def deliver(self, _) -> None:
        """The eager payload or the RTS is at the receiver: match it;
        an RTS then waits for the CTS."""
        transport = self.transport
        env = self.env
        transport.matchers[env.dst].arrive(env)
        if env.rndv is not None:
            self.await_peer(env.rndv.cts, self.cts_arrived)

    def hand_over(self, _) -> None:
        """The rendezvous payload is in the receiver's buffer."""
        self.env.rndv.data_done.succeed(self.payload)

    def copy(self, _) -> None:
        """Copy the payload on the sender's core: into the shm FIFO, or
        straight into the receiver's buffer."""
        machine = self.transport.machine
        env = self.env
        cross = not machine.same_socket(env.src, env.dst)
        node = machine.config.node
        byte_time = node.copy_byte_time * (
            node.intersocket_byte_factor if cross else 1.0
        )
        self.occupy(node.copy_latency + env.nbytes * byte_time, "copy", self.copied)

    def copied(self, _) -> None:
        """The core's copy is done; the node memory engine streams it."""
        machine = self.transport.machine
        if machine.tracer.enabled:
            machine.tracer.charge("copy", self.service)
        mem_service = self.env.nbytes * machine.config.node.mem_byte_time
        if mem_service > 0:
            machine.mem[machine.node_of(self.env.src)].submit(
                mem_service
            )._add_callback(self.stored)
        else:
            self.stored(None)

    def inject(self, nbytes: int, label: str, step) -> None:
        """Queue ``nbytes`` of injection work on the sender's engine."""
        self.occupy(self.transport.machine.injection_service(nbytes), label, step)

    def occupy(self, service: float, label: str, step) -> None:
        """:meth:`~repro.machine.machine.Machine.engine_submit` on the
        sender's engine that keeps the noised time served in
        ``self.service``, the time the tracer is charged; ``step`` runs
        once it is served."""
        machine = self.transport.machine
        if machine.noise is not None:
            service = machine.noise.perturb(service)
        self.service = service
        rank = self.env.src
        done = machine.engine[rank].submit(service)
        timeline = machine.timeline
        if timeline is not None and timeline.enabled:
            done_at = self.transport.sim.origin + done.value
            timeline.record(label, label, rank, done_at - service, done_at)
        done._add_callback(step)

    def send_payload(self, step) -> None:
        """The payload left the sender's engine: the request completes
        and the payload goes over the wire."""
        tracer = self.transport.machine.tracer
        if tracer.enabled:
            tracer.charge("net-send", self.service)
        self.req.complete()
        env = self.env
        _Wire(self.transport, env.src, env.dst, env.nbytes, step)


class _EagerInter(_Send):
    """Inject, one trip over the wire, match at the receiver."""

    __slots__ = ()

    def start(self, _) -> None:
        self.inject(self.env.nbytes, "net-send", self.injected)

    def injected(self, _) -> None:
        self.send_payload(self.deliver)


class _RndvInter(_Send):
    """The RTS's trip, wait for the CTS, then the payload's trip."""

    __slots__ = ()

    def start(self, _) -> None:
        # RTS control message (zero bytes) travels the ordered stream.
        self.inject(0, "net-ctrl", self.rts_injected)

    def rts_injected(self, _) -> None:
        _Wire(self.transport, self.env.src, self.env.dst, 0, self.deliver)

    def cts_arrived(self, _) -> None:
        self.peer_arrived()
        self.inject(self.env.nbytes, "net-send", self.injected)

    def injected(self, _) -> None:
        self.send_payload(self.hand_over)


class _EagerIntra(_Send):
    """Copy into the shm FIFO, then raise the arrival flag."""

    __slots__ = ()

    start = _Send.copy

    def stored(self, _) -> None:
        self.req.complete()
        transport = self.transport
        transport.sim.timeout(
            transport.machine.config.node.flag_latency
        )._add_callback(self.deliver)


class _RndvIntra(_Send):
    """The RTS flag, wait for the CTS, then one copy (CMA-style)."""

    __slots__ = ()

    def start(self, _) -> None:
        self.transport.machine.flag_sync()._add_callback(self.deliver)

    def cts_arrived(self, _) -> None:
        self.peer_arrived()
        self.copy(None)

    def stored(self, _) -> None:
        self.req.complete()
        self.hand_over(None)


class _Recv(_Side):
    """The receiver's side of one message.  The object is its posted
    receive's ``on_match`` callback; the side starts from the hop the
    match takes."""

    __slots__ = ("rank", "req", "env", "payload")

    def __init__(self, transport, rank, req):
        self.transport = transport
        self.rank = rank
        self.req = req

    @property
    def name(self) -> str:
        """The live-process name while waiting on the sender's data."""
        return f"recv r{self.rank} rndv"

    def __call__(self, env: Envelope) -> None:
        self.env = env
        self.transport.sim.hop(
            self.finish_eager if env.kind == EAGER else self.start_rndv
        )

    def finish_eager(self, _) -> None:
        """Move a matched eager message into the user buffer."""
        machine = self.transport.machine
        env = self.env
        rank = self.rank
        if machine.same_node(env.src, rank) and env.src != rank:
            # Copy out of the shm FIFO into the user buffer.
            cross = not machine.same_socket(env.src, rank)
            done = machine.shm_copy(rank, env.nbytes, cross_socket=cross)
        else:
            service = machine.reception_service(env.nbytes)
            if env.was_unexpected and env.nbytes:
                # Extra copy out of the bounce buffer.
                service += env.nbytes * machine.config.node.copy_byte_time
            done = machine.engine_submit(rank, service, "net-recv")
        self.payload = env.payload
        done._add_callback(self.received)

    def start_rndv(self, _) -> None:
        """Answer a matched RTS with the CTS."""
        machine = self.transport.machine
        if machine.same_node(self.env.src, self.rank):
            # Post the "ready" flag in shared memory.
            machine.flag_sync()._add_callback(self.cts_posted)
        else:
            # CTS control message back to the sender.
            machine.engine_submit(
                self.rank, machine.injection_service(0), "net-ctrl"
            )._add_callback(self.cts_injected)

    def cts_injected(self, _) -> None:
        _Wire(self.transport, self.rank, self.env.src, 0, self.cts_posted)

    def cts_posted(self, _) -> None:
        rndv = self.env.rndv
        rndv.cts.succeed()
        self.await_peer(rndv.data_done, self.data_arrived)

    def data_arrived(self, data_done) -> None:
        self.peer_arrived()
        self.payload = data_done._value
        machine = self.transport.machine
        if machine.same_node(self.env.src, self.rank):
            done = machine.flag_sync()
        else:
            done = machine.engine_submit(
                self.rank, machine.reception_service(self.env.nbytes),
                "net-recv",
            )
        done._add_callback(self.received)

    def received(self, _) -> None:
        self.req.complete(self.payload)


class _Wire:
    """One trip from ``src``'s NIC to ``dst``'s; ``then`` runs from a hop
    once every chunk is in.

    Chunks leave through the source NIC's TX pipeline one after
    another, and each then takes its own :class:`_Chunk` path.

    When the machine carries a fault injector with link faults, the
    trip first waits out any active
    :class:`~repro.faults.plan.LinkOutage` with the plan's capped
    exponential backoff (raising :class:`~repro.errors.TransportError`
    once retries exhaust, attributed to ``src`` and the edge), and any
    active :class:`~repro.faults.plan.LinkDegrade` scales the wire
    latency and per-chunk service — sampled once per message at
    injection time, so one message sees one consistent degradation
    level.
    """

    __slots__ = (
        "transport", "rank", "src_node", "dst_node", "then", "tx", "latency",
        "stages", "chunks", "factor", "attempts", "sent", "service",
        "remaining", "early",
    )

    def __init__(self, transport, src, dst, nbytes, then):
        machine = transport.machine
        self.transport = transport
        self.rank = src
        self.src_node = src_node = machine.node_of(src)
        self.dst_node = dst_node = machine.node_of(dst)
        self.then = then
        self.tx = machine.nic_tx[src_node]
        self.latency = machine.config.fabric.wire_latency
        self.stages = machine.fabric_stages(src_node, dst_node)
        self.chunks = machine.nic_chunks(nbytes)
        self.factor = 1.0
        # Chunks still to land once the last one has left (None before).
        self.remaining = None
        # Chunks whose path finished before the last one left.
        self.early = 0
        faults = machine.faults
        if faults is not None and faults.has_link_outage:
            self.attempts = 0
            self.await_link(None)
        else:
            self.inject()

    def await_link(self, _) -> None:
        """Spin on an outaged edge with capped exponential backoff.

        Each failed attempt is counted against ``rank`` and the blocked
        edge (surfaced in ``JobResult.counters["faults"]``); once
        ``retry_limit`` retries are spent while the edge is still down,
        the exhaustion is recorded with the sanitizer (when one is
        attached) and a typed :class:`~repro.errors.TransportError`
        (carrying ``rank``/``edge``/``sim_time``/``attempts``) aborts
        the send — or, when a recovery policy is attached to the
        runtime, feeds the failure detector and triggers a failover.

        Each call either injects (edge open), raises (budget spent
        while still blocked), or performs exactly one counted retry
        followed by one backoff sleep, after which it runs again: the
        retry is counted *before* the sleep, so an aborted backoff can
        never lose a performed retry.
        """
        sim = self.transport.sim
        faults = self.transport.machine.faults
        src_node, dst_node = self.src_node, self.dst_node
        blocked = faults.link_blocked_until(src_node, dst_node, sim.clock)
        if blocked is None:
            self.inject()
            return
        rank = self.rank
        edge = (src_node, dst_node)
        attempts = self.attempts
        if attempts >= faults.retry_limit:
            faults.count_exhausted(rank, edge)
            sanitizer = sim.sanitizer
            if sanitizer is not None:
                sanitizer.fault_retries_exhausted(
                    rank, src_node, dst_node, attempts, sim.clock,
                    blocked_until=blocked,
                )
            raise TransportError(
                f"rank {rank}: send over link {src_node}->{dst_node} "
                f"still failing after {attempts} retry(ies); link down "
                f"until t={blocked:g}",
                rank=rank, edge=edge, sim_time=sim.clock, attempts=attempts,
            )
        faults.count_retry(rank, edge)
        self.attempts = attempts + 1
        sim.timeout(faults.backoff(attempts))._add_callback(self.await_link)

    def inject(self) -> None:
        """The edge is open: sample its degradation, send chunk one."""
        faults = self.transport.machine.faults
        if faults is not None and faults.has_link_degrade:
            latency_factor, self.factor = faults.link_factors(
                self.src_node, self.dst_node, self.transport.sim.clock
            )
            self.latency *= latency_factor
        self.sent = 0
        self.submit_chunk()

    def submit_chunk(self) -> None:
        service = self.transport.machine.nic_service(self.chunks[self.sent])
        if self.factor != 1.0:
            service *= self.factor
        self.service = service
        self.tx.submit(service)._add_callback(self.chunk_sent)

    def chunk_sent(self, _) -> None:
        """A chunk left the TX pipeline: start its path, send the next."""
        chunk = _Chunk(self, self.chunks[self.sent], self.service)
        self.transport.sim.hop(chunk.advance)
        self.sent += 1
        if self.sent < len(self.chunks):
            self.submit_chunk()
            return
        # The last chunk left: wait for every chunk to land.  Each chunk
        # whose path already finished takes one more hop to count.
        self.remaining = self.sent
        for _ in range(self.early):
            self.transport.sim.hop(self.chunk_landed)

    def chunk_finished(self, _) -> None:
        """A chunk's path is done (run from its last hop)."""
        if self.remaining is None:
            self.early += 1
        else:
            self.chunk_landed(None)

    def chunk_landed(self, _) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.transport.sim.hop(self.then)


class _Chunk:
    """One NIC chunk's path: each routed fabric link stage (cut-through
    at chunk granularity; none without a link-level topology), then the
    wire latency into the destination's RX pipeline.  Each leg is a
    timeout with the leg's queue as its follow-on stage."""

    __slots__ = ("wire", "nbytes", "service", "leg")

    def __init__(self, wire: _Wire, nbytes: int, service: float):
        self.wire = wire
        self.nbytes = nbytes
        self.service = service
        self.leg = 0

    def advance(self, _) -> None:
        """Run the next leg (the first from the chunk's hop); after the
        last, hop to the wire."""
        wire = self.wire
        leg = self.leg
        self.leg = leg + 1
        stages = wire.stages
        sim = wire.transport.sim
        if leg < len(stages):
            stage = stages[leg]
            sim.timeout(stage.latency).then(
                stage.queue, stage.service(self.nbytes)
            )._add_callback(self.advance)
        elif leg == len(stages):
            rx = wire.transport.machine.nic_rx[wire.dst_node]
            sim.timeout(wire.latency).then(rx, self.service)._add_callback(
                self.advance
            )
        else:
            sim.hop(wire.chunk_finished)
