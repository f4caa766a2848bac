"""Differential oracle: simulation vs. numpy and the analytical model.

Every sanitized collective run is cross-checked two ways:

* **numeric** — the per-rank results of a real-data allreduce are
  compared element-wise against the numpy reference
  (``op.reduce_stack`` over the same inputs), so a protocol bug that
  still terminates cleanly cannot smuggle a wrong answer past the
  structural invariants;
* **cost** — the simulated completion time is compared against the
  Section 5 closed-form model (:class:`~repro.core.model.CostModel`)
  for the algorithms the model describes.  Simulation and model
  deliberately disagree in the details (the simulator charges NIC
  pipelining, unexpected-message copies, rendezvous handshakes the
  equations fold into single constants), so the check is a *band* on
  the simulated/predicted ratio, not equality: a run outside the band
  means one of the two sides regressed.

Violations are recorded on the run's sanitizer as structured
:class:`~repro.check.reports.SanitizerReport` records
(``numeric-mismatch`` / ``cost-model-divergence``) and summarised in the
returned :class:`OracleOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.check import reports as R
from repro.check.sanitizer import Sanitizer
from repro.core.model import CostModel
from repro.machine.config import MachineConfig
from repro.mpi.runtime import run_job
from repro.payload.ops import SUM, ReduceOp
from repro.payload.payload import DataPayload

__all__ = [
    "OracleOutcome",
    "SpotCheckOutcome",
    "DEFAULT_BAND",
    "check_allreduce",
    "spot_check_hybrid",
]

#: Default acceptance band on simulated_time / predicted_time.  The
#: measured ratios across the calibration grid (4 priced
#: algorithms x 7 layouts x 5 sizes) span 0.53-7.14 with median 1.47,
#: so the band flags order-of-magnitude divergence — a lost factor of
#: p, bytes-vs-elements confusion, a dropped phase — not
#: constant-factor modelling slack.  See docs/sanitizer.md.
DEFAULT_BAND: tuple[float, float] = (0.2, 15.0)


@dataclass
class OracleOutcome:
    """Result of one differential-oracle run."""

    algorithm: str
    nranks: int
    ppn: int
    count: int
    elapsed: float  #: simulated completion time (seconds)
    predicted: Optional[float]  #: model prediction, None when undescribed
    ratio: Optional[float]  #: elapsed / predicted
    reports: list = field(default_factory=list)  #: sanitizer reports

    @property
    def ok(self) -> bool:
        """True when both the numeric and the cost check passed."""
        return not self.reports

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "nranks": self.nranks,
            "ppn": self.ppn,
            "count": self.count,
            "elapsed": self.elapsed,
            "predicted": self.predicted,
            "ratio": self.ratio,
            "ok": self.ok,
            "reports": [r.to_dict() for r in self.reports],
        }


def check_allreduce(
    config: MachineConfig,
    algorithm: str,
    *,
    nranks: int,
    ppn: int,
    count: int,
    op: ReduceOp = SUM,
    leaders: Optional[int] = None,
    seed: int = 0,
    band: tuple[float, float] = DEFAULT_BAND,
    sanitizer: Optional[Sanitizer] = None,
) -> OracleOutcome:
    """Run one sanitized allreduce and cross-check it both ways.

    ``sanitizer`` defaults to a fresh ``strict=False`` collector so the
    outcome carries every finding instead of raising at the first; pass
    a shared instance to accumulate findings across a grid.
    """
    sanitizer = sanitizer if sanitizer is not None else Sanitizer(strict=False)
    n_before = len(sanitizer.reports)
    rng = np.random.default_rng(seed)
    inputs = [
        rng.integers(1, 9, count).astype(np.float64) for _ in range(nranks)
    ]
    kwargs = {"algorithm": algorithm}
    if leaders is not None:
        kwargs["leaders"] = leaders

    def fn(comm):
        me = DataPayload(inputs[comm.rank].copy())
        out = yield from comm.allreduce(me, op, **kwargs)
        return out.array

    job = run_job(config, nranks, fn, ppn=ppn, sanitize=sanitizer)

    # -- numeric differential ------------------------------------------------
    expected = op.reduce_stack(inputs)
    for rank, got in enumerate(job.values):
        if got is None or not np.array_equal(got, expected):
            sanitizer.record(
                R.NUMERIC_MISMATCH,
                f"{algorithm} allreduce p={nranks} ppn={ppn} n={count}: "
                f"rank {rank} disagrees with the numpy reference",
                time=job.elapsed,
                algorithm=algorithm,
                rank=rank,
                nranks=nranks,
                ppn=ppn,
                count=count,
            )
            break  # one report per run is enough to localise

    # -- cost differential ---------------------------------------------------
    predicted = ratio = None
    nodes = job.machine.placement.nodes_used
    if op is SUM and nranks == nodes * ppn:
        # Partial last nodes fall outside the homogeneous p = h * ppn
        # model; MAX runs share the timing of SUM, so checking SUM only
        # avoids double-counting.
        nbytes = count * 8  # float64 payloads
        model = CostModel.from_machine(config, nbytes)
        predicted = model.predict_allreduce(
            algorithm, p=nranks, h=nodes, n=nbytes, l=leaders
        )
        if predicted is not None and predicted > 0 and job.elapsed > 0:
            ratio = job.elapsed / predicted
            lo, hi = band
            if not (lo <= ratio <= hi):
                sanitizer.record(
                    R.COST_DIVERGENCE,
                    f"{algorithm} allreduce p={nranks} ppn={ppn} n={count}: "
                    f"simulated {job.elapsed:.3e}s vs predicted "
                    f"{predicted:.3e}s (ratio {ratio:.3g} outside "
                    f"[{lo:g}, {hi:g}])",
                    time=job.elapsed,
                    algorithm=algorithm,
                    nranks=nranks,
                    ppn=ppn,
                    count=count,
                    elapsed=job.elapsed,
                    predicted=predicted,
                    ratio=ratio,
                )

    return OracleOutcome(
        algorithm=algorithm,
        nranks=nranks,
        ppn=ppn,
        count=count,
        elapsed=job.elapsed,
        predicted=predicted,
        ratio=ratio,
        reports=sanitizer.reports[n_before:],
    )


@dataclass
class SpotCheckOutcome:
    """Result of one hybrid-fidelity spot check."""

    algorithm: str
    nranks: int
    ppn: int
    count: int
    hybrid_elapsed: float  #: simulated time of the macro-charged run
    exact_elapsed: float  #: simulated time of the exact reference run
    #: per-phase comparison rows: ``{phase, charged, exact, ratio, ok}``
    #: (``exact``/``ratio`` are None for phases the probe could not
    #: window; zero-cost phases are skipped)
    phases: list = field(default_factory=list)
    charged: bool = True  #: False when the run never macro-charged
    reports: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when results matched and every phase stayed in band."""
        return not self.reports

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "nranks": self.nranks,
            "ppn": self.ppn,
            "count": self.count,
            "hybrid_elapsed": self.hybrid_elapsed,
            "exact_elapsed": self.exact_elapsed,
            "phases": list(self.phases),
            "charged": self.charged,
            "ok": self.ok,
            "reports": [r.to_dict() for r in self.reports],
        }


def spot_check_hybrid(
    config: MachineConfig,
    algorithm: str,
    *,
    nranks: int,
    ppn: int,
    count: int,
    op: ReduceOp = SUM,
    leaders: Optional[int] = None,
    seed: int = 0,
    band: tuple[float, float] = DEFAULT_BAND,
    sanitizer: Optional[Sanitizer] = None,
) -> SpotCheckOutcome:
    """Re-run a hybrid macro charge exactly and bound its drift.

    Runs the same allreduce twice — once in hybrid fidelity (collecting
    the simulator's :attr:`~repro.sim.engine.Simulator.macro_log`) and
    once exactly with a :class:`~repro.core.phases.PhaseProbe` attached
    — then checks that

    * both fidelities return bit-identical result buffers
      (``numeric-mismatch`` otherwise), and
    * each charged phase's price lands within ``band`` of the exact
      phase window (``phase-timing-divergence`` otherwise).  Phases
      charged at zero cost (e.g. the intra-node reduce when every rank
      is a leader) and phases the probe could not window are skipped.

    This is the oracle that keeps hybrid mode honest: the exact
    coroutine path stays the golden reference, and macro-charging must
    continuously reprove itself against it on sampled configurations.
    """
    from repro.core.phases import PhaseProbe
    from repro.mpi.runtime import SimSession

    sanitizer = sanitizer if sanitizer is not None else Sanitizer(strict=False)
    n_before = len(sanitizer.reports)
    rng = np.random.default_rng(seed)
    inputs = [
        rng.integers(1, 9, count).astype(np.float64) for _ in range(nranks)
    ]
    kwargs = {"algorithm": algorithm}
    if leaders is not None:
        kwargs["leaders"] = leaders

    def fn(comm):
        me = DataPayload(inputs[comm.rank].copy())
        out = yield from comm.allreduce(me, op, **kwargs)
        return out.array

    hybrid_job = run_job(config, nranks, fn, ppn=ppn, fidelity="hybrid")
    macro_log = list(hybrid_job.machine.sim.macro_log)

    probe = PhaseProbe()
    session = SimSession(config, nranks, ppn)
    session.runtime.phase_probe = probe
    exact_job = session.run(fn)

    for rank, (want, got) in enumerate(zip(exact_job.values, hybrid_job.values)):
        if got is None or not np.array_equal(got, want):
            sanitizer.record(
                R.NUMERIC_MISMATCH,
                f"{algorithm} allreduce p={nranks} ppn={ppn} n={count}: "
                f"hybrid rank {rank} disagrees with the exact reference",
                time=hybrid_job.elapsed,
                algorithm=algorithm,
                rank=rank,
                nranks=nranks,
                ppn=ppn,
                count=count,
            )
            break

    lo, hi = band
    rows: list = []
    for label, _start, _duration, phases in macro_log:
        single = len(phases) == 1
        for phase, charged in phases:
            if charged <= 0.0:
                continue  # nothing to bound
            exact = (
                exact_job.elapsed if single else probe.duration(algorithm, phase)
            )
            ratio = None
            ok = True
            if exact is not None and exact > 0.0:
                ratio = exact / charged
                ok = lo <= ratio <= hi
                if not ok:
                    sanitizer.record(
                        R.PHASE_DIVERGENCE,
                        f"{algorithm} phase {phase!r} p={nranks} ppn={ppn} "
                        f"n={count}: exact {exact:.3e}s vs charged "
                        f"{charged:.3e}s (ratio {ratio:.3g} outside "
                        f"[{lo:g}, {hi:g}])",
                        time=hybrid_job.elapsed,
                        algorithm=algorithm,
                        phase=phase,
                        nranks=nranks,
                        ppn=ppn,
                        count=count,
                        exact=exact,
                        charged=charged,
                        ratio=ratio,
                        label=label,
                    )
            rows.append(
                {
                    "phase": phase,
                    "charged": charged,
                    "exact": exact,
                    "ratio": ratio,
                    "ok": ok,
                }
            )

    # The whole-collective drift, bounded with the same band.
    if macro_log and hybrid_job.elapsed > 0.0 and exact_job.elapsed > 0.0:
        total_ratio = exact_job.elapsed / hybrid_job.elapsed
        if not (lo <= total_ratio <= hi):
            sanitizer.record(
                R.PHASE_DIVERGENCE,
                f"{algorithm} allreduce p={nranks} ppn={ppn} n={count}: "
                f"exact total {exact_job.elapsed:.3e}s vs hybrid "
                f"{hybrid_job.elapsed:.3e}s (ratio {total_ratio:.3g} "
                f"outside [{lo:g}, {hi:g}])",
                time=hybrid_job.elapsed,
                algorithm=algorithm,
                phase="total",
                nranks=nranks,
                ppn=ppn,
                count=count,
                exact=exact_job.elapsed,
                charged=hybrid_job.elapsed,
                ratio=total_ratio,
            )

    return SpotCheckOutcome(
        algorithm=algorithm,
        nranks=nranks,
        ppn=ppn,
        count=count,
        hybrid_elapsed=hybrid_job.elapsed,
        exact_elapsed=exact_job.elapsed,
        phases=rows,
        charged=bool(macro_log),
        reports=sanitizer.reports[n_before:],
    )
