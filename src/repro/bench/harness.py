"""Single-measurement harness.

Mirrors the OSU ``osu_allreduce`` methodology: warmup iterations, a
barrier, then timed blocking allreduces, reported as the slowest
rank's per-call latency.  Each timed call starts from an idle fence
(:meth:`~repro.sim.engine.Simulator.idle`): every rank is released at
one instant, in rank order, once nothing else is in the machine, and
times the call from that release to its return.  A call therefore
never overlaps the previous one, and a noise-free point times exactly
one call (every call would give the same number); with a noise model
or a fault injector the point is the mean of ``iterations`` fenced
calls.  Payloads are symbolic by default (the simulated time is
identical and the host-side numpy work is skipped); pass
``validate=True`` to carry real data and assert the result against
the numpy reference on every rank.

Multi-point measurements (message sizes, leader counts, noisy
repeats) are a :class:`~repro.bench.spec.SweepSpec` run through an
executor, which reuses one :class:`~repro.mpi.runtime.SimSession` per
layout.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from repro.errors import ConfigError, ReproError
from repro.machine.config import MachineConfig
from repro.machine.noise import NoiseModel
from repro.mpi.collectives.hybrid import Fleet, fleet_collective
from repro.mpi.collectives.registry import check_knobs
from repro.mpi.runtime import SimSession
from repro.payload.ops import SUM, ReduceOp
from repro.payload.payload import DataPayload, SymbolicPayload

__all__ = [
    "allreduce_latency", "latency_kernel", "timed_calls", "check_loop",
    "check_sample",
]

#: The paper's microbenchmarks use MPI_FLOAT.
FLOAT_BYTES = 4


def check_loop(iterations: int, warmup: int) -> None:
    """Reject loop counts the OSU-style kernel cannot run: at least one
    timed iteration and no negative warm-up."""
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    if warmup < 0:
        raise ConfigError(f"warmup must be >= 0, got {warmup}")


def check_sample(sizes: Iterable[int], sigma: float = 0.0) -> None:
    """Reject a negative message size (it would run as one element yet
    be stored and hashed as given) and negative noise (it would run
    noise-free yet be keyed apart from ``sigma=0``)."""
    for nbytes in sizes:
        if nbytes < 0:
            raise ConfigError(f"message size must be >= 0 bytes, got {nbytes}")
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")


def timed_calls(comm, call: Callable, iterations: int, warmup: int):
    """Run OSU's loop around ``call(comm)`` on one rank; returns the
    mean timed window and the last call's result.

    The rank runs ``warmup`` calls and one barrier, then waits on an
    idle fence (ordered by its world rank) before each timed call and
    times the call from the release to its return.  A machine with no
    noise model and no fault injector times one call, since every
    fenced call of such a machine takes the same time; otherwise
    ``iterations`` fenced calls are timed and averaged.
    """
    for _ in range(warmup):
        yield from call(comm)
    yield from comm.barrier()
    machine = comm.machine
    if machine.noise is None and machine.faults is None:
        iterations = 1
    sim = comm.sim
    total = 0.0
    for _ in range(iterations):
        yield sim.idle(comm.world_rank)
        t0 = comm.now
        result = yield from call(comm)
        total += comm.now - t0
    return total / iterations, result


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

    Every rank runs :func:`timed_calls` around an allreduce of
    ``max(1, nbytes // 4)`` floats and returns its mean timed window.
    Without ``validate`` (symbolic payloads) the function also carries
    a :class:`~repro.mpi.collectives.hybrid.Fleet` form: in a hybrid
    job where every one of those collectives is macro-chargeable, one
    process issues the warm-up charges, the barrier charge and one
    timed charge for all ranks and returns ``[elapsed] * p`` (every
    rank leaves each charged collective at the same instant, so every
    window is equal).  The fleet needs no fence: it runs only without
    noise or faults and is the only process, so the calendar is empty
    whenever it resumes.
    """
    count = max(1, nbytes // FLOAT_BYTES)
    alg_kwargs = alg_kwargs or {}

    def bench(comm):
        if validate:
            base = np.arange(count, dtype=np.float32) + float(comm.rank)
            payload = DataPayload(base)
        else:
            payload = SymbolicPayload(count, FLOAT_BYTES)

        def call(comm):
            return comm.allreduce(payload, op, algorithm=algorithm, **alg_kwargs)

        elapsed, result = yield from timed_calls(comm, call, iterations, warmup)
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
        yield from fleet_collective(sim, allreduce, payload)
        return [comm.now - t0] * comm.size

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
    """Per-call allreduce latency (seconds): the slowest rank's mean
    window over the fenced timed calls of :func:`timed_calls` (one call
    on a noise-free, fault-free machine).

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
    the idle fence before each timed call removes arrival skew from the
    measurement: every rank starts each timed call from one common
    release, so ``ArrivalSkew`` only shifts the job's wall clock here.
    The ``pap`` figure (:func:`repro.bench.figures.pap_imbalance`)
    times bare jobs to measure PAP sensitivity.

    Which jobs take the fleet: a hybrid job without ``validate`` runs
    as one process standing for every rank (see :func:`latency_kernel`)
    when it has no noise, faults or recovery layer, fully populated
    nodes, more than one rank, and a priced ``algorithm`` whose charge
    succeeds.  Any other job launches one process per rank and is, in
    hybrid mode, counted in
    ``JobResult.counters["hybrid_fleet_fallbacks"]``; both launches
    produce identical latencies.

    ``iterations < 1``, ``warmup < 0``, ``nbytes < 0`` and the knobs
    :func:`~repro.mpi.collectives.registry.check_knobs` rejects raise
    :class:`~repro.errors.ConfigError` before anything is simulated.
    """
    check_loop(iterations, warmup)
    check_sample((nbytes,))
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
    check_knobs(algorithm, nranks, session.ppn, alg_kwargs)
    job = session.run(
        kernel, noise=noise, timeline=timeline,
        faults=faults, fault_seed=fault_seed,
    )
    # The slowest rank's window is the collective's completion latency
    # (matches how OSU reports max across ranks at scale).  Ranks lost
    # to a failover return None; only survivors report a window, and
    # only a session with a recovery layer can fail over.
    values = job.values
    if session.recovery is not None:
        values = [v for v in values if v is not None]
    return float(max(values))
