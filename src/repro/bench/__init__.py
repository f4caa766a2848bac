"""Experiment harness: sweeps, tables, and the figure regenerators.

* :mod:`repro.bench.harness` — the OSU-style allreduce latency kernel
  and :func:`~repro.bench.harness.allreduce_latency`, which runs it once
  (one configuration, one message size), optionally on a reusable
  :class:`~repro.mpi.runtime.SimSession`;
* :mod:`repro.bench.spec` — declarative sweeps: a
  :class:`~repro.bench.spec.SweepSpec` expands into
  :class:`~repro.bench.spec.SamplePoint` measurements and executors
  return a JSON-serialisable :class:`~repro.bench.spec.SweepResult`.
  Every multi-point measurement is one: figure sweeps, noisy repeats
  (``repeats=``, ``sigma=``; read them back with
  :meth:`~repro.bench.spec.SweepResult.samples`) and the autotuner;
* :mod:`repro.bench.executor` — serial and process-parallel sweep
  execution with per-point error capture;
* :mod:`repro.bench.store` — the content-addressed result store that
  ``REPRO_RESULT_STORE`` selects;
* :mod:`repro.bench.report` — fixed-width tables matching the paper's
  figure axes;
* :mod:`repro.bench.figures` — one entry point per paper figure
  (Fig. 1 throughput study through Fig. 11 applications; Figs. 4-10
  render the named-sweep records of ``repro.bench.spec.SWEEPS``), run from
  the command line as ``python -m repro bench fig9b`` /
  ``python -m repro bench run fig5 --jobs 4`` (:mod:`repro.cli`).
"""

from repro.bench.executor import (
    ParallelExecutor,
    SerialExecutor,
    default_executor,
    get_executor,
    run_point,
    run_sweep,
)
from repro.bench.harness import allreduce_latency
from repro.bench.report import format_table, sweep_table
from repro.bench.spec import (
    PointResult,
    SamplePoint,
    SweepResult,
    SweepSpec,
    named_sweep,
)

__all__ = [
    "allreduce_latency",
    "format_table",
    "sweep_table",
    "SweepSpec",
    "SamplePoint",
    "PointResult",
    "SweepResult",
    "named_sweep",
    "SerialExecutor",
    "ParallelExecutor",
    "get_executor",
    "default_executor",
    "run_point",
    "run_sweep",
]
