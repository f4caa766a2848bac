"""Message transport: moves payloads between ranks, charging time.

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
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import MPIError, TransportError
from repro.machine.machine import Machine
from repro.mpi.matching import ANY, EAGER, RTS, Envelope, Matcher
from repro.mpi.request import Request
from repro.payload.payload import Payload

__all__ = ["Transport", "RndvState", "MatcherTable"]


class MatcherTable(dict):
    """Rank -> :class:`~repro.mpi.matching.Matcher`, each built on first
    access.

    A hybrid job whose collectives are all macro-charged never touches
    a matcher, so building ``nranks`` of them per job is pure overhead
    at 10k+ ranks.  Indexing a rank in ``range(nranks)`` builds its
    matcher on first use (a plain dict hit afterwards); any other rank
    raises :class:`IndexError`, as the list this replaces did.
    Iterating yields the *built* matchers in rank order, so sanitizer
    and metering reports keep their order (an unbuilt matcher has
    nothing to report).
    """

    __slots__ = ("nranks", "sanitizer")

    def __init__(self, nranks: int, sanitizer=None):
        super().__init__()
        self.nranks = nranks
        self.sanitizer = sanitizer

    def __missing__(self, rank: int) -> Matcher:
        if not 0 <= rank < self.nranks:
            raise IndexError(
                f"rank {rank} out of range for {self.nranks} matcher(s)"
            )
        matcher = self[rank] = Matcher(rank, sanitizer=self.sanitizer)
        return matcher

    def __iter__(self):
        return iter([self[rank] for rank in sorted(self.keys())])


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
        self.matchers = MatcherTable(machine.nranks, machine.sim.sanitizer)
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
        eager = nbytes <= machine.config.fabric.eager_threshold
        if machine.same_node(src, dst):
            gen = (
                self._send_eager_intra(src, dst, payload, tag, context, seq, req)
                if eager
                else self._send_rndv_intra(src, dst, payload, tag, context, seq, req)
            )
        else:
            gen = (
                self._send_eager_inter(src, dst, payload, tag, context, seq, req)
                if eager
                else self._send_rndv_inter(src, dst, payload, tag, context, seq, req)
            )
        self.sim.process(gen, name=f"send r{src}->r{dst} tag={tag}")
        return req

    def irecv(self, rank: int, src: int, tag: int, context: int) -> Request:
        """Post a non-blocking receive; completes with the payload."""
        req = Request(self.sim, "recv", source=src, tag=tag)

        def on_match(env: Envelope) -> None:
            if env.kind == EAGER:
                self.sim.process(
                    self._finish_eager_recv(rank, env, req),
                    name=f"recv r{rank} finish",
                )
            else:
                self.sim.process(
                    self._rndv_receiver(rank, env, req),
                    name=f"recv r{rank} rndv",
                )

        self.matchers[rank].post(src, tag, context, on_match)
        return req

    # -- sequence numbers -------------------------------------------------------

    def _next_seq(self, src: int, dst: int) -> int:
        key = (src, dst)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        return seq

    # -- inter-node paths ---------------------------------------------------------

    def _wire(
        self, src_node: int, dst_node: int, nbytes: int, rank: int = 0
    ) -> Generator:
        """Chunked NIC TX → fabric links → NIC RX pipeline for one message.

        Without a link-level topology the fabric is a pure
        ``wire_latency`` delay; with one, every chunk also queues on the
        routed uplink/downlink stages (cut-through at chunk
        granularity).

        When the machine carries a fault injector with link faults,
        entering the edge first waits out any active
        :class:`~repro.faults.plan.LinkOutage` with the plan's capped
        exponential backoff (raising
        :class:`~repro.errors.TransportError` once retries exhaust,
        attributed to ``rank`` and the edge), and any active
        :class:`~repro.faults.plan.LinkDegrade` scales the wire latency
        and per-chunk service — sampled once per message at injection
        time, so one message sees one consistent degradation level.
        """
        machine = self.machine
        sim = self.sim
        tx = machine.nic_tx[src_node]
        latency = machine.config.fabric.wire_latency
        fabric_stages = machine.fabric_stages(src_node, dst_node)
        service_factor = 1.0
        faults = machine.faults
        if faults is not None and faults.has_link_faults:
            if faults.has_link_outage:
                yield from self._await_link(faults, rank, src_node, dst_node)
            if faults.has_link_degrade:
                latency_factor, service_factor = faults.link_factors(
                    src_node, dst_node, sim.now
                )
                latency *= latency_factor
        rx_chunks = []
        for chunk in machine.nic_chunks(nbytes):
            service = machine.nic_service(chunk)
            if service_factor != 1.0:
                service *= service_factor
            yield tx.submit(service)
            rx_chunks.append(
                sim.process(
                    self._chunk_path(dst_node, chunk, service, latency, fabric_stages)
                )
            )
        yield sim.all_of(rx_chunks)

    def _await_link(
        self, faults, rank: int, src_node: int, dst_node: int
    ) -> Generator:
        """Spin on an outaged edge with capped exponential backoff.

        Each failed attempt is counted against ``rank`` and the blocked
        edge (surfaced in ``JobResult.counters["faults"]``); once
        ``retry_limit`` retries are spent while the edge is still down,
        the exhaustion is recorded with the sanitizer (when one is
        attached) and a typed :class:`~repro.errors.TransportError`
        (carrying ``rank``/``edge``/``sim_time``/``attempts``) aborts
        the send — or, when a recovery policy is attached to the
        runtime, feeds the failure detector and triggers a failover.

        Loop structure (audited for ISSUE 7): each iteration either
        returns (edge open), raises (budget spent while still blocked),
        or performs exactly one counted retry followed by one backoff
        sleep — the retry is counted *before* the sleep so an
        interrupted backoff can never lose a performed retry, and no
        statement is reachable after the raise.
        """
        sim = self.sim
        edge = (src_node, dst_node)
        attempts = 0
        while True:
            blocked = faults.link_blocked_until(src_node, dst_node, sim.now)
            if blocked is None:
                return
            if attempts >= faults.retry_limit:
                faults.count_exhausted(rank, edge)
                sanitizer = sim.sanitizer
                if sanitizer is not None:
                    sanitizer.fault_retries_exhausted(
                        rank, src_node, dst_node, attempts, sim.now,
                        blocked_until=blocked,
                    )
                raise TransportError(
                    f"rank {rank}: send over link {src_node}->{dst_node} "
                    f"still failing after {attempts} retry(ies); link down "
                    f"until t={blocked:g}",
                    rank=rank, edge=edge, sim_time=sim.now, attempts=attempts,
                )
            faults.count_retry(rank, edge)
            yield sim.timeout(faults.backoff(attempts))
            attempts += 1

    def _chunk_path(
        self, dst_node: int, chunk: int, nic_service: float, latency: float,
        fabric_stages,
    ) -> Generator:
        for stage in fabric_stages:
            yield self.sim.timeout(stage.latency)
            yield stage.queue.submit(stage.service(chunk))
        yield self.sim.timeout(latency)
        yield self.machine.nic_rx[dst_node].submit(nic_service)

    def _send_eager_inter(self, src, dst, payload, tag, context, seq, req) -> Generator:
        machine = self.machine
        nbytes = payload.nbytes
        service = machine.injection_service(nbytes)
        yield machine.engine_submit(src, service, "net-send")
        machine.tracer.charge("net-send", service)
        req.complete()
        yield from self._wire(
            machine.node_of(src), machine.node_of(dst), nbytes, src
        )
        env = Envelope(src, dst, tag, context, EAGER, payload, nbytes, seq)
        self.matchers[dst].arrive(env)

    def _send_rndv_inter(self, src, dst, payload, tag, context, seq, req) -> Generator:
        machine = self.machine
        nbytes = payload.nbytes
        rndv = RndvState(self)
        env = Envelope(src, dst, tag, context, RTS, None, nbytes, seq, rndv=rndv)
        # RTS control message (zero bytes) travels the ordered stream.
        yield machine.engine_submit(src, machine.injection_service(0), "net-ctrl")
        yield from self._wire(machine.node_of(src), machine.node_of(dst), 0, src)
        self.matchers[dst].arrive(env)
        # Wait for the receiver's clear-to-send.
        yield rndv.cts
        service = machine.injection_service(nbytes)
        yield machine.engine_submit(src, service, "net-send")
        machine.tracer.charge("net-send", service)
        req.complete()
        yield from self._wire(
            machine.node_of(src), machine.node_of(dst), nbytes, src
        )
        rndv.data_done.succeed(payload)

    def _finish_eager_recv(self, rank: int, env: Envelope, req: Request) -> Generator:
        machine = self.machine
        if machine.same_node(env.src, rank) and env.src != rank:
            # Copy out of the shm FIFO into the user buffer.
            cross = not machine.same_socket(env.src, rank)
            yield from machine.shm_copy(rank, env.nbytes, cross_socket=cross)
        else:
            service = machine.reception_service(env.nbytes)
            if env.was_unexpected and env.nbytes:
                # Extra copy out of the bounce buffer.
                service += env.nbytes * machine.config.node.copy_byte_time
            yield machine.engine_submit(rank, service, "net-recv")
        req.complete(env.payload)

    def _rndv_receiver(self, rank: int, env: Envelope, req: Request) -> Generator:
        machine = self.machine
        rndv = env.rndv
        if machine.same_node(env.src, rank):
            # Post the "ready" flag in shared memory.
            yield from machine.flag_sync()
            rndv.cts.succeed()
            payload = yield rndv.data_done
            yield from machine.flag_sync()
        else:
            # CTS control message back to the sender.
            yield machine.engine_submit(rank, machine.injection_service(0), "net-ctrl")
            yield from self._wire(
                machine.node_of(rank), machine.node_of(env.src), 0, rank
            )
            rndv.cts.succeed()
            payload = yield rndv.data_done
            yield machine.engine_submit(
                rank, machine.reception_service(env.nbytes), "net-recv"
            )
        req.complete(payload)

    # -- intra-node paths ----------------------------------------------------------

    def _send_eager_intra(self, src, dst, payload, tag, context, seq, req) -> Generator:
        machine = self.machine
        nbytes = payload.nbytes
        cross = not machine.same_socket(src, dst)
        # Copy into the shm FIFO (the sender's core does the work, so we
        # serialize it on the sender's engine).
        node = machine.config.node
        byte_time = node.copy_byte_time * (node.intersocket_byte_factor if cross else 1.0)
        service = node.copy_latency + nbytes * byte_time
        yield machine.engine_submit(src, service, "copy")
        machine.tracer.charge("copy", service)
        mem_service = nbytes * node.mem_byte_time
        if mem_service > 0:
            yield machine.mem[machine.node_of(src)].submit(mem_service)
        req.complete()
        yield self.sim.timeout(node.flag_latency)
        env = Envelope(src, dst, tag, context, EAGER, payload, nbytes, seq)
        self.matchers[dst].arrive(env)

    def _send_rndv_intra(self, src, dst, payload, tag, context, seq, req) -> Generator:
        machine = self.machine
        nbytes = payload.nbytes
        rndv = RndvState(self)
        env = Envelope(src, dst, tag, context, RTS, None, nbytes, seq, rndv=rndv)
        yield from machine.flag_sync()
        self.matchers[dst].arrive(env)
        yield rndv.cts
        # Single copy straight into the receiver's buffer (CMA-style).
        cross = not machine.same_socket(src, dst)
        node = machine.config.node
        byte_time = node.copy_byte_time * (node.intersocket_byte_factor if cross else 1.0)
        service = node.copy_latency + nbytes * byte_time
        yield machine.engine_submit(src, service, "copy")
        machine.tracer.charge("copy", service)
        mem_service = nbytes * node.mem_byte_time
        if mem_service > 0:
            yield machine.mem[machine.node_of(src)].submit(mem_service)
        req.complete()
        rndv.data_done.succeed(payload)

    # -- introspection -------------------------------------------------------------

    def matcher(self, rank: int) -> Matcher:
        """The matching engine of ``rank`` (tests and deadlock reports)."""
        return self.matchers[rank]
