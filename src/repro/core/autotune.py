"""Empirical tuning-table generation (paper Section 6.4).

"We performed empirical evaluation of different configurations on the
four clusters and chose the best configuration for each message size."

:func:`autotune_cluster` measures the candidate configurations (leader
counts, plain vs pipelined DPML, SHArP designs where available) over a
set of message sizes on the simulator and returns
:class:`~repro.core.tuning.Rule` rows in the shape of a
:data:`repro.core.tuning.TUNING_TABLES` entry.  Each candidate
group is one :class:`~repro.bench.spec.SweepSpec` run through
:func:`~repro.bench.executor.run_sweep`, so ``REPRO_BENCH_JOBS`` fans it
out and ``REPRO_RESULT_STORE`` answers a repeated call from the store.
``docs/calibration.md`` records how the shipped tables compare with
``python -m repro bench autotune --cluster c`` output.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core.tuning import INF, Rule
from repro.errors import ConfigError
from repro.machine.config import MachineConfig

__all__ = ["autotune_cluster", "candidate_specs"]

DEFAULT_SIZES = (64, 512, 2048, 8192, 32768, 131072, 524288, 2097152)
DEFAULT_LEADER_COUNTS = (1, 2, 4, 8, 16)


def candidate_specs(
    config: MachineConfig,
    leader_counts: Sequence[int] = DEFAULT_LEADER_COUNTS,
    ppn: int = 28,
) -> list[Rule]:
    """All configurations the empirical sweep considers, as catch-all rows."""
    fits = [l for l in leader_counts if l <= ppn]
    specs = [Rule(INF, "dpml", {"leaders": l}) for l in fits]
    specs += [Rule(INF, "dpml_pipelined", {"leaders": l}) for l in fits if l >= 4]
    if config.sharp is not None:
        specs += [Rule(INF, "sharp_node_leader"), Rule(INF, "sharp_socket_leader")]
    return specs


def autotune_cluster(
    config: MachineConfig,
    *,
    ppn: int = 28,
    sizes: Sequence[int] = DEFAULT_SIZES,
    leader_counts: Sequence[int] = DEFAULT_LEADER_COUNTS,
    iterations: int = 2,
    verbose: bool = False,
) -> list[Rule]:
    """Measure every candidate at every size; return the best-per-size
    rows in ascending size order, neighbours won by the same candidate
    merged and the last row unbounded: a ``TUNING_TABLES`` entry.

    Ties go to the candidate listed first by :func:`candidate_specs`.
    Raises :class:`~repro.errors.ConfigError` when ``ppn`` is not in
    ``1..cores`` of the node or no candidate fits it.
    """
    from repro.bench.executor import run_sweep
    from repro.bench.spec import SweepSpec

    cores = config.node.cores
    if not 1 <= ppn <= cores:
        raise ConfigError(
            f"autotune needs 1 <= ppn <= {cores} (the node's cores), got {ppn}"
        )
    candidates = candidate_specs(config, leader_counts, ppn)
    if not candidates:
        raise ConfigError(
            f"no candidate fits ppn={ppn} with leader counts "
            f"{tuple(leader_counts)}"
        )
    sizes = sorted(set(sizes))
    if verbose:
        print(f"autotuning {config.name} at {config.nodes} nodes x {ppn} ppn ...")
    # One sweep per group: the dpml ladder, the dpml_pipelined ladder,
    # and the leaderless SHArP designs.
    groups: dict[str, list[Rule]] = {}
    for spec in candidates:
        family = spec.algorithm if spec.kwargs else "sharp"
        groups.setdefault(family, []).append(spec)
    latency: dict[tuple[Rule, int], float] = {}
    for family, members in groups.items():
        result = run_sweep(SweepSpec(
            name=f"autotune-{family}", cluster=config, nodes=config.nodes,
            ppn=ppn, sizes=tuple(sizes), iterations=iterations,
            algorithms=tuple(dict.fromkeys(s.algorithm for s in members)),
            leader_counts=tuple(
                dict.fromkeys(dict(s.kwargs).get("leaders") for s in members)
            ),
        ))
        for spec in members:
            for size in sizes:
                latency[spec, size] = result.samples(
                    nbytes=size, algorithm=spec.algorithm, **dict(spec.kwargs)
                )[0]
    table: list[Rule] = []
    for size in sizes:
        timed = [(latency[spec, size], spec) for spec in candidates]
        best = min(timed, key=lambda pair: pair[0])[1]
        if verbose:
            for t, spec in timed:
                print(f"  {size:>9}B {spec.label:>28} {t * 1e6:10.2f} us")
            print(f"{size:>9}B -> {best.label}")
        if table and replace(table[-1], max_bytes=INF) == best:
            table.pop()  # the same configuration wins: widen its row
        table.append(replace(best, max_bytes=size))
    # The last row covers everything larger.
    table[-1] = replace(table[-1], max_bytes=INF)
    return table
