"""Selection tables: every size-based selector is rows read by one :func:`pick`.

The paper's authors "performed empirical evaluation of different
configurations on the four clusters and chose the best configuration
for each message size" (Section 6.4); the libraries it compares against
pick an algorithm by message size and layout too.  Each selector is a
table ``{cluster name: rows, None: rows}`` of :class:`Rule` rows.
:data:`TUNING_TABLES` drives the hybrid DPML selector and
:mod:`repro.core.autotune` regenerates its rows on the simulator;
:mod:`repro.mpi.collectives.selector` holds the library emulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Mapping, Optional

from repro.core.phases import AllreduceAlgorithm
from repro.errors import TuningError

__all__ = [
    "DPML_TUNED", "Rule", "TUNING_TABLES", "allreduce_selector", "pick", "select",
]

INF = float("inf")


@dataclass(frozen=True)
class Rule:
    """Run ``algorithm`` with ``kwargs`` on at most ``max_bytes`` and
    ``max_ranks``; a ``single_node`` row covers one-node comms only."""

    max_bytes: float
    algorithm: str  #: registry name ("dpml", "sharp_*", "ring", ...)
    kwargs: tuple = ()  #: keyword arguments as sorted (name, value) pairs
    max_ranks: float = INF
    single_node: bool = False

    def __post_init__(self):
        if isinstance(self.kwargs, Mapping):
            object.__setattr__(self, "kwargs", tuple(sorted(self.kwargs.items())))

    @property
    def label(self) -> str:
        """The call this row makes, e.g. ``dpml(leaders=4)``."""
        args = ", ".join(f"{key}={value}" for key, value in self.kwargs)
        return f"{self.algorithm}({args})"


Table = Mapping[Optional[str], list]


def pick(tables: Table, comm, nbytes: int) -> Rule:
    """The first row of the comm's cluster table (else the ``None``
    one) that covers the message and the comm; a ``sharp_*`` row is
    skipped on a machine without SHArP."""
    machine = comm.machine
    for rule in tables.get(machine.config.name) or tables[None]:
        if (
            nbytes <= rule.max_bytes
            and comm.size <= rule.max_ranks
            and not (rule.single_node and comm.layout.multinode)
            and not (rule.algorithm.startswith("sharp") and machine.sharp is None)
        ):
            return rule
    raise TuningError(f"no selection row covers {nbytes} bytes on {comm.size} ranks")


def select(kind: str, tables: Table, comm, nbytes: int, *args, **kwargs) -> Generator:
    """The call of the ``kind`` algorithm :func:`pick` chooses, resolved
    through the registry.  It returns that algorithm's own generator, not
    a wrapper: every extra ``yield from`` level is paid on each resume."""
    from repro.mpi.collectives import registry

    rule = pick(tables, comm, nbytes)
    fn = registry.resolve_collective(kind, rule.algorithm, comm)
    return fn(comm, *args, **kwargs, **dict(rule.kwargs))


def allreduce_selector(name: str, tables: Table, exempt: str) -> AllreduceAlgorithm:
    """The allreduce record ``name`` that dispatches by ``tables``."""

    def selector(comm, payload, op, tag_base: int = 0) -> Generator:
        return select(
            "allreduce", tables, comm, payload.nbytes, payload, op,
            tag_base=tag_base,
        )

    selector.__name__ = f"allreduce_{name}"
    return AllreduceAlgorithm(name, selector, exempt=exempt)


# Rows per cluster.  A-C equal repro.core.autotune's output at 16 nodes
# x 28 ppn; D differs in one row (docs/calibration.md has the
# comparison).  The pattern matches Section 6.2: one/few leaders for
# small messages, more leaders as the message grows, SHArP for tiny
# messages where available, pipelined DPML for very large messages.
TUNING_TABLES: dict[Optional[str], list[Rule]] = {
    "cluster-a": [
        Rule(512, "sharp_socket_leader"),
        Rule(2048, "dpml", {"leaders": 4}),
        Rule(8192, "dpml", {"leaders": 8}),
        Rule(131072, "dpml", {"leaders": 16}),
        Rule(INF, "dpml_pipelined", {"leaders": 16}),
    ],
    "cluster-b": [
        Rule(64, "dpml", {"leaders": 1}),
        Rule(512, "dpml", {"leaders": 2}),
        Rule(2048, "dpml", {"leaders": 4}),
        Rule(8192, "dpml", {"leaders": 8}),
        Rule(131072, "dpml", {"leaders": 16}),
        Rule(INF, "dpml_pipelined", {"leaders": 16}),
    ],
    "cluster-c": [
        Rule(64, "dpml", {"leaders": 1}),
        Rule(512, "dpml", {"leaders": 2}),
        Rule(2048, "dpml", {"leaders": 4}),
        Rule(8192, "dpml", {"leaders": 8}),
        Rule(131072, "dpml", {"leaders": 16}),
        Rule(524288, "dpml_pipelined", {"leaders": 16}),
        Rule(INF, "dpml", {"leaders": 16}),
    ],
    "cluster-d": [
        Rule(64, "dpml", {"leaders": 1}),
        Rule(512, "dpml", {"leaders": 4}),
        Rule(2048, "dpml", {"leaders": 8}),
        Rule(131072, "dpml", {"leaders": 16}),
        Rule(524288, "dpml_pipelined", {"leaders": 16}),
        Rule(INF, "dpml", {"leaders": 16}),
    ],
    None: [
        Rule(2048, "dpml", {"leaders": 1}),
        Rule(16384, "dpml", {"leaders": 4}),
        Rule(131072, "dpml", {"leaders": 8}),
        Rule(INF, "dpml", {"leaders": 16}),
    ],
}

DPML_TUNED = allreduce_selector(
    "dpml_tuned", TUNING_TABLES,
    exempt="size-dependent dispatch to other registered entries",
)
