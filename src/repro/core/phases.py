"""Allreduce declarations and phase probes.

An :class:`AllreduceAlgorithm` is the one declaration of a registered
allreduce: its name, its exact coroutine, and either how the calibrated
:class:`~repro.core.model.CostModel` prices it — named phases plus a
charge function — or the reason the model cannot.  Each record lives
next to its coroutine; :mod:`repro.mpi.collectives.registry` collects
them.  In hybrid fidelity the macro executor
(:mod:`repro.mpi.collectives.hybrid`) charges the sum of a priced
record's phase prices as a single macro-event instead of running the
exact coroutine path, :meth:`CostModel.predict_allreduce` returns the
same sum, and exempt records always run exact.

The phase names line up with the labels the exact implementations
record into a :class:`PhaseProbe`, so the spot-check oracle
(:func:`repro.check.oracle.spot_check_hybrid`) can re-run a sampled
configuration exactly and compare phase-by-phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import TuningError

__all__ = ["AllreduceAlgorithm", "PhaseProbe"]


@dataclass(frozen=True)
class AllreduceAlgorithm:
    """One registered allreduce and its cost-model pricing.

    Parameters
    ----------
    name:
        Registry name (``comm.allreduce(..., algorithm=name)``).
    fn:
        The exact coroutine ``(comm, payload, op, tag_base=0, **kw)``.
    phases:
        Phase labels in execution order; these match the probe labels
        the exact implementation emits.  Priced records only.
    charge:
        ``(model, *, p, h, n, **kwargs) -> ((phase, seconds), ...)``
        for a ``p``-rank, ``h``-node, ``n``-byte allreduce; the sum is
        the macro-event duration.  ``kwargs`` carries the algorithm
        keywords the caller passed (``leaders``, ``pipeline_unit``,
        ...); unknown keywords are the charge function's to ignore.
    exempt:
        Why the Section 5 model cannot price this algorithm.  Exactly
        one of ``charge`` and ``exempt`` is given.
    """

    name: str
    fn: Callable = field(repr=False)
    phases: tuple = ()
    charge: Optional[Callable] = field(default=None, repr=False)
    exempt: str = ""

    def __post_init__(self):
        if self.priced == bool(self.exempt.strip()):
            raise TuningError(
                f"allreduce {self.name!r} needs exactly one of a charge "
                "function and an exemption reason"
            )
        if self.priced != bool(self.phases):
            raise TuningError(
                f"allreduce {self.name!r}: phases name the charges of a "
                "priced algorithm and nothing else"
            )

    @property
    def priced(self) -> bool:
        """Whether the cost model prices (and hybrid mode macro-charges)
        this algorithm."""
        return self.charge is not None


class PhaseProbe:
    """Collects exact-execution phase windows for the spot-check oracle.

    Attach one to a :class:`~repro.mpi.runtime.Runtime` (``phase_probe``
    attribute) and run a job in *exact* fidelity: the phase-structured
    implementations record ``(start, end)`` simulated-time windows per
    ``(algorithm, phase)``.  Windows from concurrent ranks merge, so
    :meth:`duration` is the global earliest-entry to latest-exit span of
    the phase — the quantity the cost model's per-phase equations
    predict.
    """

    def __init__(self):
        self.windows: dict = {}

    def record(
        self, algorithm: str, phase: str, start: float, end: float
    ) -> None:
        """Merge one rank's ``[start, end]`` window into the phase."""
        key = (algorithm, phase)
        window = self.windows.get(key)
        if window is None:
            self.windows[key] = [start, end]
        else:
            if start < window[0]:
                window[0] = start
            if end > window[1]:
                window[1] = end

    def duration(self, algorithm: str, phase: str):
        """Merged span of the phase in simulated seconds, or None."""
        window = self.windows.get((algorithm, phase))
        if window is None:
            return None
        return window[1] - window[0]
