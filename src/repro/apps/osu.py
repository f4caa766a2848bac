"""OSU microbenchmark equivalents.

:func:`multi_pair_bandwidth` reimplements ``osu_mbw_mr`` from the OSU
suite — the benchmark behind the paper's Figure 1: *pairs* of processes
exchange windows of back-to-back messages; the aggregate bandwidth over
all pairs is reported.  For the intra-node variant all ranks share a
node; for the inter-node variant every sender sits on node 0 and its
receiver on node 1 (matching "the sender processes from each pair were
placed on the same node").

:func:`relative_throughput` normalises the aggregate to the one-pair
value, which is exactly the quantity Figure 1 plots.

Every kernel rejects ``iterations < 1``, ``warmup < 0`` and a negative
message size with :class:`~repro.errors.ConfigError` before it
simulates anything, as :func:`~repro.bench.harness.allreduce_latency`
does.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.bench.harness import allreduce_latency, check_loop, check_sample
from repro.errors import ReproError
from repro.machine.config import MachineConfig
from repro.mpi.runtime import run_job
from repro.payload.payload import SymbolicPayload

__all__ = [
    "multi_pair_bandwidth",
    "relative_throughput",
    "pingpong_latency",
    "unidirectional_bandwidth",
    "osu_collective_latency",
]


def multi_pair_bandwidth(
    config: MachineConfig,
    pairs: int,
    nbytes: int,
    *,
    intra_node: bool = False,
    window: int = 16,
    iterations: int = 3,
    warmup: int = 1,
) -> float:
    """Aggregate bandwidth (bytes/second) of ``pairs`` concurrent pairs.

    Sender ``i`` pushes ``window`` back-to-back non-blocking messages to
    receiver ``i + pairs`` per iteration and waits for a zero-byte ack,
    as in ``osu_mbw_mr``.
    """
    check_loop(iterations, warmup)
    check_sample((nbytes,))
    if pairs < 1:
        raise ReproError("need at least one communicating pair")
    nranks = 2 * pairs
    cores = config.node.cores
    if intra_node:
        if nranks > cores:
            raise ReproError(
                f"{pairs} intra-node pairs need {nranks} cores; node has {cores}"
            )
        ppn = nranks
    else:
        if pairs > cores:
            raise ReproError(f"{pairs} senders exceed the node's {cores} cores")
        ppn = pairs

    payload = SymbolicPayload(max(1, nbytes), 1)
    ack = SymbolicPayload(0, 1)
    total_rounds = warmup + iterations

    def bench(comm):
        rank = comm.rank
        if rank < pairs:  # sender
            peer = rank + pairs
            timed = 0.0
            for rnd in range(total_rounds):
                t0 = comm.now
                requests = [
                    comm.isend(peer, payload, tag=rnd * window + w)
                    for w in range(window)
                ]
                yield from comm.waitall(requests)
                yield from comm.recv(peer, tag=1 << 19)
                if rnd >= warmup:
                    timed += comm.now - t0
            return timed
        peer = rank - pairs
        for rnd in range(total_rounds):
            requests = [
                comm.irecv(peer, tag=rnd * window + w) for w in range(window)
            ]
            yield from comm.waitall(requests)
            yield from comm.send(peer, ack, tag=1 << 19)
        return 0.0

    job = run_job(config, nranks, bench, ppn=ppn)
    slowest = max(job.values[:pairs])
    if slowest <= 0:
        raise ReproError("benchmark produced no timed window")
    # All pairs move window*iterations messages; the run is over when the
    # slowest pair finishes.
    total_bytes = pairs * window * iterations * nbytes
    return total_bytes / slowest


def relative_throughput(
    config: MachineConfig,
    pair_counts: Sequence[int],
    sizes: Iterable[int],
    *,
    intra_node: bool = False,
    window: int = 16,
    iterations: int = 3,
) -> dict[int, dict[int, float]]:
    """Figure-1 data: ``{size: {pairs: aggregate / one-pair aggregate}}``."""
    sizes = tuple(sizes)
    check_loop(iterations, 0)
    check_sample(sizes)
    out: dict[int, dict[int, float]] = {}
    for size in sizes:
        base = multi_pair_bandwidth(
            config, 1, size, intra_node=intra_node, window=window,
            iterations=iterations,
        )
        out[size] = {
            pairs: multi_pair_bandwidth(
                config, pairs, size, intra_node=intra_node, window=window,
                iterations=iterations,
            )
            / base
            for pairs in pair_counts
        }
    return out


def pingpong_latency(
    config: MachineConfig,
    nbytes: int,
    *,
    inter_node: bool = True,
    iterations: int = 10,
    warmup: int = 2,
) -> float:
    """``osu_latency``: half round-trip time of a ping-pong pair."""
    check_loop(iterations, warmup)
    check_sample((nbytes,))
    payload = SymbolicPayload(max(1, nbytes), 1)
    total = warmup + iterations

    def bench(comm):
        peer = 1 - comm.rank
        if comm.rank == 0:
            timed = 0.0
            for it in range(total):
                t0 = comm.now
                yield from comm.send(peer, payload, tag=it)
                yield from comm.recv(peer, tag=it)
                if it >= warmup:
                    timed += comm.now - t0
            return timed / iterations / 2.0
        for it in range(total):
            yield from comm.recv(peer, tag=it)
            yield from comm.send(peer, payload, tag=it)
        return 0.0

    job = run_job(config, 2, bench, ppn=1 if inter_node else 2)
    return float(job.values[0])


def unidirectional_bandwidth(
    config: MachineConfig,
    nbytes: int,
    *,
    window: int = 32,
    iterations: int = 3,
    warmup: int = 1,
    bidirectional: bool = False,
) -> float:
    """``osu_bw`` / ``osu_bibw``: windowed streaming bandwidth (bytes/s)
    of one pair across nodes."""
    check_loop(iterations, warmup)
    check_sample((nbytes,))
    payload = SymbolicPayload(max(1, nbytes), 1)
    ack = SymbolicPayload(0, 1)
    total = warmup + iterations

    def bench(comm):
        peer = 1 - comm.rank
        sender = comm.rank == 0 or bidirectional
        receiver = comm.rank == 1 or bidirectional
        timed = 0.0
        for rnd in range(total):
            t0 = comm.now
            requests = []
            if sender:
                requests += [
                    comm.isend(peer, payload, tag=rnd * window + w)
                    for w in range(window)
                ]
            if receiver:
                requests += [
                    comm.irecv(peer, tag=rnd * window + w) for w in range(window)
                ]
            yield from comm.waitall(requests)
            # Window handshake, as in osu_bw.
            if comm.rank == 0:
                yield from comm.recv(peer, tag=1 << 18)
            else:
                yield from comm.send(peer, ack, tag=1 << 18)
            if rnd >= warmup:
                timed += comm.now - t0
        return timed

    elapsed = max(run_job(config, 2, bench, ppn=1).values)
    directions = 2 if bidirectional else 1
    return directions * window * iterations * nbytes / elapsed


def osu_collective_latency(
    config: MachineConfig,
    kind: str,
    nbytes: int,
    *,
    nranks: int,
    ppn: int,
    algorithm=None,
    iterations: int = 3,
    warmup: int = 1,
    **alg_kwargs,
) -> float:
    """``osu_allreduce`` / ``osu_reduce`` / ``osu_bcast``: average
    collective latency over a timed loop (max across ranks).

    ``kind="allreduce"`` is :func:`~repro.bench.harness.allreduce_latency`
    (and so takes the hybrid fleet where that applies).
    """
    from repro.payload.ops import SUM

    check_loop(iterations, warmup)
    check_sample((nbytes,))
    if kind == "allreduce":
        return allreduce_latency(
            config, algorithm, nbytes, nranks=nranks, ppn=ppn,
            iterations=iterations, warmup=warmup, **alg_kwargs,
        )
    if kind not in ("reduce", "bcast"):
        raise ReproError(f"unknown collective kind {kind!r}")
    payload = SymbolicPayload(max(1, nbytes // 4), 4)

    def one(comm):
        if kind == "reduce":
            return comm.reduce(
                payload, SUM, root=0, algorithm=algorithm, **alg_kwargs
            )
        return comm.bcast(payload, root=0, algorithm=algorithm, **alg_kwargs)

    def bench(comm):
        for _ in range(warmup):
            yield from one(comm)
        yield from comm.barrier()
        t0 = comm.now
        for _ in range(iterations):
            yield from one(comm)
        return (comm.now - t0) / iterations

    return float(max(run_job(config, nranks, bench, ppn=ppn).values))
