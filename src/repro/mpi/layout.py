"""Communicator layout: which members share a node, which share a socket.

A :class:`Layout` is the node and socket membership of one
communicator, in communicator ranks.  It is built once per
:class:`~repro.mpi.comm.Group`, in O(p), by the first rank view that
reads ``comm.layout``; every other view of the same group reuses it.
Group membership never changes (``split``, ``dup``, ``shrink`` and a
world reset all make a new group), so the layout never goes stale.

The layout is read-only and shared: collectives index it, they never
copy or extend it.  Per-rank derived state (leader index, leader
communicator) stays in ``comm.cache``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

__all__ = ["Layout", "build_layout"]


class Layout(NamedTuple):
    """Node and socket membership of one communicator (immutable)."""

    node: tuple[int, ...]  #: node id of each comm rank
    node_ranks: Mapping[int, tuple[int, ...]]  #: node -> comm ranks, placement order
    socket_ranks: Mapping[tuple[int, int], tuple[int, ...]]  #: (node, socket) -> comm ranks
    nodes: tuple[int, ...]  #: sorted node ids
    min_ppn: int  #: fewest members on any one node
    multinode: bool  #: whether the members span more than one node


def build_layout(ranks: Sequence[int], machine) -> Layout:
    """The layout of a group whose comm rank ``i`` is global ``ranks[i]``.

    Node ids are the machine's own (``machine.loc``), so a tenant job on
    a shared fabric reports global fabric nodes.
    """
    node: list[int] = []
    by_node: dict[int, list[int]] = {}
    by_socket: dict[tuple[int, int], list[int]] = {}
    for local, world in enumerate(ranks):
        loc = machine.loc(world)
        node.append(loc.node)
        by_node.setdefault(loc.node, []).append(local)
        by_socket.setdefault((loc.node, loc.socket), []).append(local)
    return Layout(
        node=tuple(node),
        node_ranks=MappingProxyType(
            {n: tuple(members) for n, members in by_node.items()}
        ),
        socket_ranks=MappingProxyType(
            {k: tuple(members) for k, members in by_socket.items()}
        ),
        nodes=tuple(sorted(by_node)),
        min_ppn=min(map(len, by_node.values()), default=0),
        multinode=len(by_node) > 1,
    )
