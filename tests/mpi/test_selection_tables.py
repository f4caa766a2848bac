"""Every size-based selector's choice, pinned over a grid of layouts.

The registry lookups are replaced by a stub that records the nested
dispatch (the algorithm name and its keywords, minus ``tag_base`` and
``root``) and returns at once, so each pick costs no simulation.  One
job per layout has rank 0 call every selector at every size; the whole
grid is pinned by the sha256 of its canonical form, and a few boundary
picks are spelled out so a failure reads as a rule.
"""

import dataclasses

import pytest

from repro import canonical
from repro.machine.clusters import get_cluster
from repro.mpi import run_job
from repro.mpi.collectives import registry
from repro.payload import SUM, SymbolicPayload

SELECTORS = (
    ("allreduce", "mvapich2"),
    ("allreduce", "intel_mpi"),
    ("allreduce", "flat_auto"),
    ("allreduce", "dpml_tuned"),
    ("reduce", "auto"),
    ("bcast", "auto"),
)
CLUSTERS = ("a", "b", "c", "d", "custom")
LAYOUTS = (
    (1, 1), (1, 2), (2, 1), (1, 8), (2, 4),
    (1, 28), (8, 8), (16, 4), (3, 28), (16, 8),
)
THRESHOLDS = (64, 512, 2048, 4096, 8192, 16384, 65536, 131072, 524288)
SIZES = (0, 4, *(n for b in THRESHOLDS for n in (b, b + 1)), 2 << 20)

GRID_SHA256 = (
    "8d5e5e0cc7b0a8cc92fe597f0bf22b978a1d5fc6fbc21ae6ab066bc5cbe81722"
)


def _config(cluster: str, nodes: int):
    if cluster == "custom":
        # Cluster B under a name with no tuning table of its own.
        return dataclasses.replace(get_cluster("b", nodes), name="custom")
    return get_cluster(cluster, nodes)


def _picks(cluster: str, nodes: int, ppn: int) -> dict:
    """``{(selector, nbytes): (algorithm, keywords)}`` on one layout."""
    selectors = {
        (kind, name): registry.resolve_collective(kind, name, None)
        for kind, name in SELECTORS
    }
    dispatched = []

    def stub(*args):
        algorithm = args[-2]

        def fn(comm, *data, **kwargs):
            for knob in ("tag_base", "root"):
                kwargs.pop(knob, None)
            dispatched.append((algorithm, kwargs))
            return None
            yield

        return fn

    def rank(comm):
        yield comm.sim.timeout(0)
        if comm.rank != 0:
            return None
        picks = {}
        for (kind, name), fn in selectors.items():
            for nbytes in SIZES:
                payload = SymbolicPayload(nbytes, 1)
                if kind == "allreduce":
                    call = fn(comm, payload, SUM, tag_base=0)
                elif kind == "reduce":
                    call = fn(comm, payload, SUM, root=0, tag_base=0)
                else:
                    call = fn(comm, payload, root=0, tag_base=0)
                yield from call
                assert len(dispatched) == 1, (kind, name, nbytes, dispatched)
                picks[f"{kind}:{name}", nbytes] = dispatched.pop()
        return picks

    mp = pytest.MonkeyPatch()
    mp.setattr(registry, "resolve_collective", stub)
    mp.setattr(registry, "resolve_allreduce", stub)
    try:
        result = run_job(
            _config(cluster, nodes), nodes * ppn, rank, ppn=ppn,
            fidelity="exact",
        )
    finally:
        mp.undo()
    return result.values[0]


@pytest.fixture(scope="module")
def grid() -> dict:
    picks = {}
    for cluster in CLUSTERS:
        for nodes, ppn in LAYOUTS:
            if ppn > _config(cluster, nodes).node.cores:
                continue
            for (selector, nbytes), pick in _picks(cluster, nodes, ppn).items():
                picks[selector, cluster, nodes, ppn, nbytes] = pick
    return picks


def test_grid_is_pinned(grid):
    rows = [[*key, *pick] for key, pick in sorted(grid.items())]
    assert canonical.sha256(rows) == GRID_SHA256


RD, RSAG = "recursive_doubling", "rabenseifner"
HIER = "hierarchical"


@pytest.mark.parametrize("selector, cluster, layout, nbytes, expected", [
    # Intel MPI: ring for large vectors only while p <= 64.
    ("allreduce:intel_mpi", "b", (8, 8), 65536 + 1, ("ring", {})),
    ("allreduce:intel_mpi", "b", (16, 8), 65536 + 1, (RSAG, {})),
    ("allreduce:intel_mpi", "b", (8, 8), 4096, (RD, {})),
    ("allreduce:intel_mpi", "b", (8, 8), 4096 + 1, (RSAG, {})),
    # flat_auto: recursive doubling at p <= 2 whatever the size.
    ("allreduce:flat_auto", "c", (1, 2), 524288 + 1, (RD, {})),
    ("allreduce:flat_auto", "c", (16, 4), 524288 + 1, ("ring", {})),
    ("allreduce:flat_auto", "c", (16, 8), 524288 + 1, (RSAG, {})),
    # MVAPICH2: one-node jobs take the shm scheme at every size.
    ("allreduce:mvapich2", "d", (1, 28), 2 << 20, (HIER, {})),
    ("allreduce:mvapich2", "d", (2, 4), 16384,
     (HIER, {"inter_algorithm": RD})),
    ("allreduce:mvapich2", "d", (2, 4), 16384 + 1,
     (HIER, {"inter_algorithm": RSAG})),
    ("allreduce:mvapich2", "d", (2, 4), 524288 + 1, (RSAG, {})),
    # dpml_tuned: SHArP rows on A, the fallback table on unknown names.
    ("allreduce:dpml_tuned", "a", (2, 4), 512, ("sharp_socket_leader", {})),
    ("allreduce:dpml_tuned", "custom", (2, 4), 2048, ("dpml", {"leaders": 1})),
    ("allreduce:dpml_tuned", "custom", (2, 4), 2048 + 1,
     ("dpml", {"leaders": 4})),
    ("allreduce:dpml_tuned", "c", (2, 4), 524288,
     ("dpml_pipelined", {"leaders": 16})),
    ("allreduce:dpml_tuned", "c", (2, 4), 524288 + 1, ("dpml", {"leaders": 16})),
    # reduce and bcast: DPML only across nodes.
    ("reduce:auto", "b", (1, 8), 16384 + 1, ("knomial", {})),
    ("reduce:auto", "b", (2, 4), 16384 + 1, ("dpml", {})),
    ("bcast:auto", "b", (2, 4), 8192, ("binomial", {})),
    ("bcast:auto", "b", (1, 28), 8192, ("knomial", {})),
    ("bcast:auto", "b", (1, 28), 8192 + 1, ("scatter_ring", {})),
    ("bcast:auto", "b", (2, 4), 8192 + 1, ("dpml", {})),
])
def test_boundary_pick(grid, selector, cluster, layout, nbytes, expected):
    assert grid[(selector, cluster, *layout, nbytes)] == expected
