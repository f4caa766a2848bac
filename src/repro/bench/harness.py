"""Single-measurement harness.

Mirrors the OSU ``osu_allreduce`` methodology: warmup iterations, a
barrier, a timed loop of blocking allreduces, and the average per-call
latency reported from rank 0.  Payloads are symbolic by default (the
simulated time is identical and the host-side numpy work is skipped);
pass ``validate=True`` to carry real data and assert the result against
the numpy reference on every rank.

Multi-point measurements (message sizes, leader counts, noisy
repeats) are a :class:`~repro.bench.spec.SweepSpec` run through an
executor, which reuses one :class:`~repro.mpi.runtime.SimSession` per
layout.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigError, ReproError
from repro.machine.config import MachineConfig
from repro.machine.noise import NoiseModel
from repro.mpi.collectives.hybrid import Fleet, fleet_collective
from repro.mpi.runtime import SimSession
from repro.payload.ops import SUM, ReduceOp
from repro.payload.payload import DataPayload, SymbolicPayload

__all__ = ["allreduce_latency", "latency_kernel", "check_loop"]

#: The paper's microbenchmarks use MPI_FLOAT.
FLOAT_BYTES = 4


def check_loop(iterations: int, warmup: int) -> None:
    """Reject loop counts the OSU-style kernel cannot run: at least one
    timed iteration and no negative warm-up."""
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    if warmup < 0:
        raise ConfigError(f"warmup must be >= 0, got {warmup}")


def latency_kernel(
    algorithm: Optional[str],
    nbytes: int,
    op: ReduceOp = SUM,
    alg_kwargs: Optional[dict] = None,
    *,
    iterations: int = 3,
    warmup: int = 1,
    validate: bool = False,
):
    """The rank function :func:`allreduce_latency` launches.

    Every rank runs ``warmup`` allreduces, one barrier and
    ``iterations`` timed allreduces of ``max(1, nbytes // 4)`` floats,
    and returns its mean timed window.  Without ``validate`` (symbolic
    payloads) the function also carries a
    :class:`~repro.mpi.collectives.hybrid.Fleet` form: in a hybrid job
    where every one of those collectives is macro-chargeable, one
    process issues the same sequence of macro-charges for all ranks and
    returns ``[elapsed] * p`` (every rank leaves each charged
    collective at the same instant, so every window is equal).
    """
    count = max(1, nbytes // FLOAT_BYTES)
    alg_kwargs = alg_kwargs or {}

    def bench(comm):
        if validate:
            base = np.arange(count, dtype=np.float32) + float(comm.rank)
            payload = DataPayload(base)
        else:
            payload = SymbolicPayload(count, FLOAT_BYTES)
        for _ in range(warmup):
            result = yield from comm.allreduce(
                payload, op, algorithm=algorithm, **alg_kwargs
            )
        yield from comm.barrier()
        t0 = comm.now
        for _ in range(iterations):
            result = yield from comm.allreduce(
                payload, op, algorithm=algorithm, **alg_kwargs
            )
        elapsed = (comm.now - t0) / iterations
        if validate:
            expected = (
                np.arange(count, dtype=np.float32) * comm.size
                + sum(range(comm.size))
            )
            if not np.allclose(result.array, expected):
                raise ReproError(
                    f"allreduce validation failed on rank {comm.rank} "
                    f"(algorithm={algorithm!r})"
                )
        return elapsed

    if validate:
        return bench
    payload = SymbolicPayload(count, FLOAT_BYTES)

    def fleet(comm, plans):
        allreduce, barrier = plans
        sim = comm.sim
        for _ in range(warmup):
            yield from fleet_collective(sim, allreduce, payload)
        yield from fleet_collective(sim, barrier)
        t0 = comm.now
        for _ in range(iterations):
            yield from fleet_collective(sim, allreduce, payload)
        return [(comm.now - t0) / iterations] * comm.size

    bench.fleet = Fleet(
        fleet,
        (("allreduce", algorithm, payload.nbytes, alg_kwargs), ("barrier",)),
    )
    return bench


def allreduce_latency(
    config: MachineConfig,
    algorithm: Optional[str],
    nbytes: int,
    *,
    nranks: Optional[int] = None,
    ppn: Optional[int] = None,
    iterations: int = 3,
    warmup: int = 1,
    op: ReduceOp = SUM,
    validate: bool = False,
    trace: bool = False,
    noise: Optional[NoiseModel] = None,
    timeline=None,
    session: Optional[SimSession] = None,
    faults=None,
    fault_seed: int = 0,
    fidelity: Optional[str] = None,
    recovery=None,
    **alg_kwargs,
) -> float:
    """Average per-call allreduce latency (seconds).

    ``recovery`` attaches a resilience layer (a
    :class:`~repro.resilience.policy.RecoveryPolicy` or pre-built
    manager) so the measured job survives permanent link outages via
    failover instead of aborting — the latency then includes the
    restart.  With a ``session``, the session must have been built with
    the recovery layer (a runtime's recovery manager, like its
    fidelity, is fixed at construction).

    ``fidelity`` selects the collective execution mode (``"exact"`` |
    ``"hybrid"``; ``None`` consults ``REPRO_FIDELITY``).  With a
    ``session``, its fidelity must agree — a runtime's fidelity is
    fixed at construction.

    ``nbytes`` is the message size; the element count is
    ``nbytes / 4`` (MPI_FLOAT), minimum one element.

    ``session`` optionally supplies a pre-built
    :class:`~repro.mpi.runtime.SimSession` whose layout must match
    ``(config, nranks, ppn)``; the measurement then reuses its machine.
    Without one, a one-shot session is built for this call (a run on a
    reused session is bit-identical to one on a fresh session).

    ``faults`` injects a :class:`~repro.faults.plan.FaultPlan` (realised
    with ``fault_seed``) or a pre-realised injector into the run.  Note
    the OSU-style warmup+barrier absorbs arrival skew — the timed loop
    starts after every rank has arrived, so ``ArrivalSkew`` only shifts
    the job's wall clock here.  Use ``benchmarks/bench_pap_imbalance.py``
    (full-job elapsed, no barrier) to measure PAP sensitivity.

    Which jobs take the fleet: a hybrid job without ``validate`` runs
    as one process standing for every rank (see :func:`latency_kernel`)
    when it has no noise, faults or recovery layer, fully populated
    nodes, more than one rank, and a priced ``algorithm`` whose charge
    succeeds.  Any other job launches one process per rank and is, in
    hybrid mode, counted in
    ``JobResult.counters["hybrid_fleet_fallbacks"]``; both launches
    produce identical latencies.

    ``iterations < 1`` or ``warmup < 0`` raises
    :class:`~repro.errors.ConfigError` before anything is simulated.
    """
    check_loop(iterations, warmup)
    if nranks is None:
        if ppn is None:
            raise ReproError("allreduce_latency needs nranks (and usually ppn)")
        nranks = config.nodes * ppn
    kernel = latency_kernel(
        algorithm, nbytes, op, alg_kwargs,
        iterations=iterations, warmup=warmup, validate=validate,
    )

    if session is None:
        session = SimSession(
            config, nranks, ppn, trace=trace, fidelity=fidelity,
            recovery=recovery,
        )
    elif not session.matches(config, nranks, ppn):
        raise ReproError(
            f"session layout {session.key} does not match the requested "
            f"point ({config.name!r}, nranks={nranks}, ppn={ppn})"
        )
    elif fidelity is not None and session.fidelity != fidelity:
        raise ReproError(
            f"session fidelity {session.fidelity!r} does not match the "
            f"requested {fidelity!r}"
        )
    elif recovery is not None and session.recovery is None:
        raise ReproError(
            "recovery= needs a session built with the recovery layer "
            "(pass recovery= to SimSession)"
        )
    job = session.run(
        kernel, noise=noise, timeline=timeline,
        faults=faults, fault_seed=fault_seed,
    )
    # The slowest rank's window is the collective's completion latency
    # (matches how OSU reports max across ranks at scale).  Ranks lost
    # to a failover return None; only survivors report a window.
    return float(max(v for v in job.values if v is not None))
