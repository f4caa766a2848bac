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
dispatch a collective therefore builds its *macro plan* — its
``macro_log`` label and priced phases, or the reason it runs exact —
into the runtime's per-job table (``Runtime.macro_plans``), and every
other rank does one dict lookup; ``Runtime.reset()`` clears the table.
Every rank sees the same plan, so the ranks never split between the
two paths.  Each rank that
falls back is counted in ``Runtime.hybrid_exact_fallbacks`` under
``"<algorithm>:<reason>"`` (surfaced as
``JobResult.counters["hybrid_exact_fallbacks"]``), so no downgrade is
silent.

A rank function may also carry a :class:`Fleet` form.  When
:func:`plan_fleet` prices every collective it issues, the runtime runs
that one process instead of one per rank; it issues the same charges
through the same :func:`_charge` helper, so ``macro_log`` and every
simulated time match the per-rank launch.  A fleet-capable job launched
per rank is counted once in
``JobResult.counters["hybrid_fleet_fallbacks"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.core.model import CostModel, _lg_ceil
from repro.errors import ConfigError, PayloadError
from repro.payload.payload import (
    DataPayload,
    SymbolicPayload,
    _COUNTERS,
)

__all__ = [
    "make_hybrid_allreduce",
    "hybrid_barrier",
    "macro_eligible",
    "Fleet",
    "plan_fleet",
    "fleet_collective",
]


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


def _plan(comm, key, build, *args):
    """``(plan, fallback)`` for ``key`` from the runtime's per-job table.

    ``build(comm, *args)`` returns ``(plan, fallback)`` and runs once
    per key per job; later lookups read the table.  A ``plan`` is the
    ``(label, phases)`` pair :func:`_charge` takes; a ``None`` plan means
    the collective runs exact, for the ``fallback`` reason.
    """
    plans = comm.runtime.macro_plans
    try:
        return plans[key]
    except KeyError:
        entry = plans[key] = build(comm, *args)
        return entry
    except TypeError:
        # An unhashable keyword value (e.g. a radices list): price it
        # on every dispatch instead.
        return build(comm, *args)


def _planned(comm, key, build, *args):
    """The macro plan for ``key``, or ``None`` to run exact; a ``None``
    plan is tallied per rank under its ``fallback`` key."""
    plan, fallback = _plan(comm, key, build, *args)
    if plan is None:
        counts = comm.runtime.hybrid_exact_fallbacks
        counts[fallback] = counts.get(fallback, 0) + 1
    return plan


def _allreduce_key(name: str, p: int, nbytes: int, kwargs: dict) -> tuple:
    return (name, p, nbytes, tuple(sorted(kwargs.items())))


def _barrier_key(p: int) -> tuple:
    return ("barrier", p, 0, ())


def _allreduce_plan(comm, algorithm, nbytes: int, kwargs: dict):
    """``((label, charges), None)`` for a macro-chargeable allreduce,
    else ``(None, "<algorithm>:<reason>")``."""
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
            return (f"{algorithm.name}[p={comm.size},n={nbytes}]", charges), None
        except ConfigError:
            reason = "unpriceable"  # the exact path raises the error
    return None, f"{algorithm.name}:{reason}"


def _charge(sim, event, value, plan) -> None:
    """Fire ``event`` with ``value`` after ``plan``'s summed phases, as
    one :meth:`~repro.sim.engine.Simulator.macro_charge`.

    The one body shared by the last arriver of a per-rank gate and by
    each collective of a fleet process, so the two launch paths append
    the same ``macro_log`` entries.
    """
    label, phases = plan
    total = 0.0
    for _, seconds in phases:
        total += seconds
    sim.macro_charge(event, value, total, label=label, phases=phases)


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
        plan = _planned(
            comm, _allreduce_key(name, comm.size, nbytes, kwargs),
            _allreduce_plan, algorithm, nbytes, kwargs,
        )
        if plan is None:
            result = yield from fn(comm, payload, op, tag_base=tag_base, **kwargs)
            return result

        key = ("macro", name, comm.group.context, tag_base)
        event, is_last, items = comm.runtime.gate_exchange(
            key, comm.size, (comm.rank, payload)
        )
        if is_last:
            _charge(comm.sim, event, _combine(items, op), plan)
        result = yield event
        return result

    hybrid_allreduce.__name__ = f"hybrid_{name}"
    hybrid_allreduce.exact_fn = fn
    return hybrid_allreduce


def _barrier_plan(comm):
    """``((label, phases), None)`` for a macro-chargeable barrier, else
    ``(None, "barrier:<reason>")``: ``ceil(lg p)`` rounds of one
    zero-byte message each."""
    reason = macro_eligible(comm)
    if reason is not None:
        return None, f"barrier:{reason}"
    model = CostModel.from_machine(comm.machine.config, 0)
    seconds = _lg_ceil(comm.size) * model.a
    return (f"barrier[p={comm.size}]", (("barrier", seconds),)), None


def hybrid_barrier(comm, tag_base: int) -> Generator:
    """Charge a dissemination barrier as one macro-event.

    Returns True when the barrier was macro-charged; False tells the
    caller (:meth:`~repro.mpi.comm.Comm.barrier`) to run the exact
    ``ceil(lg p)``-round dissemination loop instead.  The duration comes
    from the same per-job plan table as the allreduce charges.
    """
    p = comm.size
    plan = _planned(comm, _barrier_key(p), _barrier_plan)
    if plan is None:
        return False
    key = ("macro", "barrier", comm.group.context, tag_base)
    event, is_last = comm.runtime.gate(key, p)
    if is_last:
        _charge(comm.sim, event, None, plan)
    yield event
    return True


# -- fleet launch ----------------------------------------------------------


@dataclass(frozen=True)
class Fleet:
    """The one-process form of an SPMD rank function.

    A rank function that carries a ``fleet`` attribute declares that,
    in a fully macro-eligible hybrid job, one process running
    ``run(comm, plans, *args, **kwargs)`` stands for every rank:
    ``comm`` is the world view of the first rank, ``plans[i]`` is the
    macro plan of ``collectives[i]``, and the generator returns the
    per-rank values list, in world-rank order.  Each entry of
    ``collectives`` is one distinct collective the process issues,
    ``("allreduce", algorithm, nbytes, kwargs)`` or ``("barrier",)``.
    :meth:`~repro.mpi.runtime.Runtime.launch` prices them all before
    any process starts (:func:`plan_fleet`) and launches per rank when
    any cannot be priced.
    """

    run: Callable[..., Generator]
    collectives: tuple


def plan_fleet(comm, collectives) -> tuple[Optional[list], Optional[str]]:
    """``(plans, None)`` pricing every entry of ``collectives`` for a
    fleet on world view ``comm``, or ``(None, reason)`` when the job
    must launch per rank.

    ``reason`` is a :func:`macro_eligible` reason, ``"single-rank"``
    (a 1-rank barrier charges nothing), ``"<algorithm>:exempt"`` (no
    priced record of that name) or ``"<algorithm>:unpriceable"``.
    Plans go through the same per-job table as per-rank dispatch, so
    a per-rank launch after a fallback reads the same plans, but a
    failed plan is not tallied here: per-rank dispatch tallies its own.
    """
    from repro.mpi.collectives.registry import allreduce_name, resolve_phase_plan

    reason = macro_eligible(comm)
    if reason is not None:
        return None, reason
    p = comm.size
    if p == 1:
        return None, "single-rank"
    plans = []
    for kind, *args in collectives:
        if kind == "barrier":
            plan, fallback = _plan(comm, _barrier_key(p), _barrier_plan)
        else:
            algorithm, nbytes, kwargs = args
            name = allreduce_name(algorithm)
            record = resolve_phase_plan(name)
            if record is None:
                return None, f"{name}:exempt"
            plan, fallback = _plan(
                comm, _allreduce_key(name, p, nbytes, kwargs),
                _allreduce_plan, record, nbytes, kwargs,
            )
        if plan is None:
            return None, fallback
        plans.append(plan)
    return plans, None


def fleet_collective(sim, plan, value=None) -> Generator:
    """One collective of a fleet process: charge ``plan`` and wait for
    it; returns ``value``, the collective's result."""
    event = sim.event()
    _charge(sim, event, value, plan)
    result = yield event
    return result
