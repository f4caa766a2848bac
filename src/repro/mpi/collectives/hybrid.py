"""Hybrid-fidelity macro executor.

In hybrid mode (``fidelity="hybrid"``), an allreduce whose
:class:`~repro.core.phases.AllreduceAlgorithm` record is priced is not
simulated message-by-message.  Instead every rank arrives at a runtime
gate with its input payload; the last arriver combines the inputs in one
vectorised numpy reduction (:meth:`~repro.payload.ops.ReduceOp.reduce_batch`)
and charges the collective's priced phases as a single
:meth:`~repro.sim.engine.Simulator.macro_charge` — one heap push where
the exact path schedules hundreds of thousands of message events.  This
is what moves the kernel from ~450 simulatable ranks to 10k–100k.

Macro-charging is only sound when the exact path has nothing left to
say about the outcome:

- no noise model, no fault injector and no recovery layer is installed
  — each perturbs individual service times or needs the per-message
  transport path, which a single closed-form charge cannot see;
- every node is fully populated (``nranks == nodes * ppn``) and the
  collective runs on a world-sized communicator — the closed-form
  phase prices assume that layout.

When any condition fails, the wrapper falls back to the exact
coroutine implementation (per-collective, so faulted jobs still
complete with full fault fidelity), and so does a collective whose
charge raises :class:`~repro.errors.ConfigError`.

Whether a collective is macro-charged, and at what price, is a pure
function of the algorithm, the communicator size, the payload size and
the algorithm keywords for the lifetime of one job.  The first rank to
dispatch a collective therefore builds its *macro plan* — the priced
``charges``, or the reason it runs exact — into the runtime's per-job
table (``Runtime.macro_plans``), and every other rank does one dict
lookup; ``Runtime.reset()`` clears the table.  Every rank sees the same
plan, so the fleet never splits between the two paths.  Each rank that
falls back is counted in ``Runtime.hybrid_exact_fallbacks`` under
``"<algorithm>:<reason>"`` (surfaced as
``JobResult.counters["hybrid_exact_fallbacks"]``), so no downgrade is
silent.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.model import CostModel, _lg_ceil
from repro.errors import ConfigError, PayloadError
from repro.payload.payload import (
    DataPayload,
    SymbolicPayload,
    _COUNTERS,
)

__all__ = ["make_hybrid_allreduce", "hybrid_barrier", "macro_eligible"]


def macro_eligible(comm) -> Optional[str]:
    """Why a collective on ``comm`` may not be macro-charged, or
    ``None`` when it may.

    The reason is one of ``"noise"``, ``"faults"``, ``"recovery"``,
    ``"ragged"`` and ``"subcomm"``, checked in that order so a job-wide
    cause is named before a per-communicator one.  Deterministic and
    identical on every rank (it reads only shared machine/runtime state
    and the communicator size), so all ranks agree on the path taken.
    """
    machine = comm.machine
    if machine.noise is not None:
        return "noise"
    if machine.faults is not None:
        return "faults"
    if getattr(comm.runtime, "recovery", None) is not None:
        # A recovery policy is active: the job may fail over onto a
        # shrunk, possibly ragged layout mid-run, and the detector
        # needs the exact per-message transport path to observe
        # failures — hybrid runs fall back to exact wholesale.
        return "recovery"
    if machine.nranks != machine.placement.nodes_used * machine.ppn:
        # Ragged placement: the cost model assumes p = h * ppn.
        return "ragged"
    if comm.size != machine.nranks:
        # Sub-communicator (e.g. a DPML leader comm running inside an
        # exact fallback): its layout does not match the closed forms.
        return "subcomm"
    return None


def _planned(comm, key, build, *args):
    """The macro price planned for ``key``, or ``None`` to run exact.

    ``build(comm, *args)`` returns ``(price, fallback)`` and runs once
    per key per job; later ranks read the runtime's plan table.  A
    ``None`` price is tallied per rank under its ``fallback`` key.
    """
    runtime = comm.runtime
    plans = runtime.macro_plans
    try:
        price, fallback = plans[key]
    except KeyError:
        price, fallback = plans[key] = build(comm, *args)
    except TypeError:
        # An unhashable keyword value (e.g. a radices list): price it
        # on every dispatch instead.
        price, fallback = build(comm, *args)
    if price is None:
        counts = runtime.hybrid_exact_fallbacks
        counts[fallback] = counts.get(fallback, 0) + 1
    return price


def _allreduce_plan(comm, algorithm, nbytes: int, kwargs: dict):
    """``(charges, None)`` for a macro-chargeable allreduce, else
    ``(None, "<algorithm>:<reason>")``."""
    reason = macro_eligible(comm)
    if reason is None:
        machine = comm.machine
        model = CostModel.from_machine(machine.config, nbytes)
        try:
            charges = algorithm.charge(
                model,
                p=comm.size,
                h=machine.placement.nodes_used,
                n=nbytes,
                **kwargs,
            )
            return charges, None
        except ConfigError:
            reason = "unpriceable"  # the exact path raises the error
    return None, f"{algorithm.name}:{reason}"


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
    ``charge`` prices the phases.  The registry builds one wrapper per
    priced record at import and
    :func:`~repro.mpi.collectives.registry.resolve_allreduce` returns it
    when the runtime fidelity is ``"hybrid"``.
    """
    name, fn = algorithm.name, algorithm.fn

    def hybrid_allreduce(comm, payload, op, tag_base: int = 0, **kwargs) -> Generator:
        nbytes = payload.nbytes
        charges = _planned(
            comm,
            (name, comm.size, nbytes, tuple(sorted(kwargs.items()))),
            _allreduce_plan, algorithm, nbytes, kwargs,
        )
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
                label=f"{name}[p={comm.size},n={nbytes}]",
                phases=charges,
            )
        result = yield event
        return result

    hybrid_allreduce.__name__ = f"hybrid_{name}"
    hybrid_allreduce.exact_fn = fn
    return hybrid_allreduce


def _barrier_plan(comm):
    """``(seconds, None)`` for a macro-chargeable barrier, else
    ``(None, "barrier:<reason>")``: ``ceil(lg p)`` rounds of one
    zero-byte message each."""
    reason = macro_eligible(comm)
    if reason is not None:
        return None, f"barrier:{reason}"
    model = CostModel.from_machine(comm.machine.config, 0)
    return _lg_ceil(comm.size) * model.a, None


def hybrid_barrier(comm, tag_base: int) -> Generator:
    """Charge a dissemination barrier as one macro-event.

    Returns True when the barrier was macro-charged; False tells the
    caller (:meth:`~repro.mpi.comm.Comm.barrier`) to run the exact
    ``ceil(lg p)``-round dissemination loop instead.  The duration comes
    from the same per-job plan table as the allreduce charges.
    """
    p = comm.size
    duration = _planned(comm, ("barrier", p, 0, ()), _barrier_plan)
    if duration is None:
        return False
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
