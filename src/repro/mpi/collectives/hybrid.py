"""Hybrid-fidelity macro executor.

In hybrid mode (``fidelity="hybrid"``), an allreduce whose
:class:`~repro.core.phases.AllreduceAlgorithm` record is priced is not
simulated message-by-message.  Instead every rank arrives at a runtime
gate with its input payload; the last arriver combines the inputs in one
vectorised numpy reduction (:meth:`~repro.payload.ops.ReduceOp.reduce_batch`),
prices the collective's phases with the calibrated
:class:`~repro.core.model.CostModel`, and charges the total as a single
:meth:`~repro.sim.engine.Simulator.macro_charge` — one heap push where
the exact path schedules hundreds of thousands of message events.  This
is what moves the kernel from ~450 simulatable ranks to 10k–100k.

Macro-charging is only sound when the exact path has nothing left to
say about the outcome:

- the collective runs on the world communicator of a homogeneous
  layout (``nranks == nodes * ppn``) — the closed-form phase prices
  assume it;
- no noise model and no fault injector is installed — both perturb
  individual service times, which a single closed-form charge cannot
  see.

When any condition fails, the wrapper transparently falls back to the
exact coroutine implementation (per-collective, so faulted jobs still
complete with full fault fidelity).  Every rank evaluates the same
deterministic eligibility predicate, so the fleet never splits between
the two paths.
"""

from __future__ import annotations

from typing import Generator

from repro.core.model import CostModel, _lg_ceil
from repro.errors import ConfigError, PayloadError
from repro.payload.payload import (
    DataPayload,
    SymbolicPayload,
    _COUNTERS,
)

__all__ = ["make_hybrid_allreduce", "hybrid_barrier", "macro_eligible"]


def macro_eligible(comm) -> bool:
    """Whether a collective on ``comm`` may be macro-charged.

    Deterministic and identical on every rank (it reads only shared
    machine/runtime state), so all ranks agree on the path taken.
    """
    machine = comm.machine
    if comm.size != machine.nranks:
        # Sub-communicator (e.g. a DPML leader comm running inside an
        # exact fallback): its layout does not match the closed forms.
        return False
    if machine.noise is not None or machine.faults is not None:
        return False
    if getattr(comm.runtime, "recovery", None) is not None:
        # A recovery policy is active: the job may fail over onto a
        # shrunk, possibly ragged layout mid-run, and the detector
        # needs the exact per-message transport path to observe
        # failures — hybrid runs fall back to exact wholesale.
        return False
    if machine.nranks != machine.placement.nodes_used * machine.ppn:
        # Ragged placement: the cost model assumes p = h * ppn.
        return False
    return True


def _combine(items, op):
    """Rank-ordered combine of the gathered ``(rank, payload)`` pairs.

    Data payloads reduce in one vectorised pass; all-symbolic inputs
    pass through shape-only, mirroring
    :func:`~repro.payload.payload.reduce_payloads`.
    """
    payloads = [pl for _, pl in sorted(items, key=lambda item: item[0])]
    first = payloads[0]
    if all(isinstance(p, SymbolicPayload) for p in payloads):
        for p in payloads[1:]:
            first._check_compatible(p)
        return first.copy()
    if all(isinstance(p, DataPayload) for p in payloads):
        for p in payloads[1:]:
            first._check_compatible(p)
        out = op.reduce_batch([p.array for p in payloads])
        _COUNTERS.bytes_reduced += out.nbytes
        return DataPayload(out)
    raise PayloadError("cannot reduce a mix of data and symbolic payloads")


def make_hybrid_allreduce(algorithm):
    """Wrap a priced record's exact coroutine with the macro-charging
    fast path.

    Returned generator has the registry signature
    ``(comm, payload, op, tag_base=0, **kwargs)``; the record's
    ``charge`` prices the phases.  Called by
    :func:`~repro.mpi.collectives.registry.resolve_allreduce` when the
    runtime fidelity is ``"hybrid"``.
    """
    name, fn = algorithm.name, algorithm.fn

    def hybrid_allreduce(comm, payload, op, tag_base: int = 0, **kwargs) -> Generator:
        charges = None
        if macro_eligible(comm):
            machine = comm.machine
            model = CostModel.from_machine(machine.config, payload.nbytes)
            try:
                charges = algorithm.charge(
                    model,
                    p=comm.size,
                    h=machine.placement.nodes_used,
                    n=payload.nbytes,
                    **kwargs,
                )
            except ConfigError:
                charges = None  # unpriceable corner: run it exactly
        if charges is None:
            result = yield from fn(comm, payload, op, tag_base=tag_base, **kwargs)
            return result

        key = ("macro", name, comm.group.context, tag_base)
        event, is_last, items = comm.runtime.gate_exchange(
            key, comm.size, (comm.rank, payload)
        )
        if is_last:
            result = _combine(items, op)
            total = 0.0
            for _, seconds in charges:
                total += seconds
            comm.sim.macro_charge(
                event,
                result,
                total,
                label=f"{name}[p={comm.size},n={payload.nbytes}]",
                phases=charges,
            )
        result = yield event
        return result

    hybrid_allreduce.__name__ = f"hybrid_{name}"
    hybrid_allreduce.exact_fn = fn
    return hybrid_allreduce


def hybrid_barrier(comm, tag_base: int) -> Generator:
    """Charge a dissemination barrier as one macro-event.

    Returns True when the barrier was macro-charged; False tells the
    caller (:meth:`~repro.mpi.comm.Comm.barrier`) to run the exact
    ``ceil(lg p)``-round dissemination loop instead.  The charge is the
    barrier's closed-form latency: ``ceil(lg p)`` rounds of one
    zero-byte message each.
    """
    if not macro_eligible(comm):
        return False
    p = comm.size
    model = CostModel.from_machine(comm.machine.config, 0)
    duration = _lg_ceil(p) * model.a
    key = ("macro", "barrier", comm.group.context, tag_base)
    event, is_last = comm.runtime.gate(key, p)
    if is_last:
        comm.sim.macro_charge(
            event,
            None,
            duration,
            label=f"barrier[p={p}]",
            phases=(("barrier", duration),),
        )
    yield event
    return True
