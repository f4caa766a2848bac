"""Golden transport records: every message path, pinned.

Each scenario runs a few point-to-point messages on a fresh machine and
its record must equal the committed :data:`GOLDEN` entry exactly:

* ``values`` — what every rank returns: the simulated time each of its
  sends and receives completed (and the received sizes);
* ``elapsed`` — :attr:`~repro.mpi.runtime.JobResult.elapsed`;
* ``tracer`` — :meth:`~repro.sim.trace.Tracer.as_dict`;
* ``spans`` — every :class:`~repro.sim.timeline.Timeline` span;
* ``fast`` — the kernel's calendar counts
  (``heap_pushes``/``heap_pops``/``nowq_entries``).

The scenarios cover the paths the golden determinism grid reaches only
in passing or not at all: eager and rendezvous on the same socket,
across sockets and across nodes; a multi-chunk message; four senders
into one receiver through a fat-tree fabric; an unexpected arrival with
its bounce copy; a rendezvous RTS overtaking a chunked eager message
from the same sender; ``ANY_SOURCE``; a self-send; a degraded link; and
a link outage, once recovered by retries and once exhausting them (that
record pins the :class:`~repro.errors.TransportError` instead of the
rank values).

Event allocation and pool counts are not pinned: they depend on how the
transport is built, not on what it simulates.  Run the file under
``REPRO_SANITIZE=1`` too; the sanitizer must not move a single value.
When a change moves a record on purpose, copy the observed record
printed by the failing test into :data:`GOLDEN` and say why in the
change description.
"""

from __future__ import annotations

import dataclasses
import pprint

import pytest

from repro.errors import TransportError
from repro.faults.plan import FaultPlan, LinkDegrade, LinkOutage
from repro.machine.clusters import cluster_b
from repro.machine.fattree import FatTreeConfig
from repro.machine.machine import Machine
from repro.mpi import ANY_SOURCE, run_job
from repro.payload import SymbolicPayload
from repro.sim.timeline import Timeline

CALENDAR_KEYS = ("heap_pushes", "heap_pops", "nowq_entries")

#: Element counts (8-byte items) on cluster B: eager is <= 16 KiB and a
#: NIC chunk is 32 KiB.
EAGER = 512  # 4 KiB
RNDV = 4096  # 32 KiB: one chunk
MULTI = 5 * 4096 + 100  # 6 chunks

#: Two nodes of four ranks; ranks alternate sockets, so rank 0 shares a
#: socket with rank 2, not with rank 1, and rank 4 is on the other node.
SAME_SOCKET, CROSS_SOCKET, INTER_NODE = 2, 1, 4

TAG = 5


def _pair(comm, dst, counts, late=0.0):
    """Rank 0 sends one message per count to ``dst``, back to back."""
    if comm.rank == 0:
        reqs = [comm.isend(dst, SymbolicPayload(n), tag=TAG) for n in counts]
        stamps = []
        for req in reqs:
            yield from comm.wait(req)
            stamps.append(comm.now)
        return stamps
    if comm.rank == dst:
        if late:
            yield comm.sim.timeout(late)
        reqs = [comm.irecv(0, tag=TAG) for _ in counts]
        stamps = []
        for req in reqs:
            payload = yield from comm.wait(req)
            stamps.append((comm.now, payload.nbytes))
        return stamps
    return None


def _fan_in(comm):
    """Every other rank sends one eager and one rendezvous message to 0."""
    if comm.rank != 0:
        reqs = [
            comm.isend(0, SymbolicPayload(EAGER), tag=1),
            comm.isend(0, SymbolicPayload(2 * RNDV), tag=2),
        ]
        stamps = []
        for req in reqs:
            yield from comm.wait(req)
            stamps.append(comm.now)
        return stamps
    reqs = [
        comm.irecv(src, tag=tag)
        for src in range(1, comm.size)
        for tag in (1, 2)
    ]
    stamps = []
    for req in reqs:
        payload = yield from comm.wait(req)
        stamps.append((comm.now, payload.nbytes))
    return stamps


def _overtake(comm):
    """A chunked eager message, then a rendezvous one, 0 -> 4.

    With 4 KiB chunks the eager message takes four trips through the
    TX pipeline; the rendezvous RTS enters it between them and reaches
    rank 4 first, so matching must hold it back until the eager message
    is admitted.
    """
    if comm.rank == 0:
        first = comm.isend(INTER_NODE, SymbolicPayload(2048), tag=1)
        second = comm.isend(INTER_NODE, SymbolicPayload(4096), tag=2)
        yield from comm.wait(first)
        sent_first = comm.now
        yield from comm.wait(second)
        return [sent_first, comm.now]
    if comm.rank == INTER_NODE:
        first = comm.irecv(0, tag=1)
        second = comm.irecv(0, tag=2)
        stamps = []
        for req in (first, second):
            payload = yield from comm.wait(req)
            stamps.append((comm.now, payload.nbytes))
        return stamps
    return None


def _any_source(comm):
    """Ranks 1 (other socket) and 4 (other node) send to a wildcard."""
    if comm.rank in (CROSS_SOCKET, INTER_NODE):
        yield from comm.send(0, SymbolicPayload(EAGER + comm.rank), tag=TAG)
        return [comm.now]
    if comm.rank == 0:
        stamps = []
        for _ in range(2):
            payload = yield from comm.recv(ANY_SOURCE, tag=TAG)
            stamps.append((comm.now, payload.nbytes))
        return stamps
    return None


def _self_send(comm):
    """Rank 0 sends an eager and a rendezvous-sized message to itself."""
    if comm.rank != 0:
        return None
    sends = [
        comm.isend(0, SymbolicPayload(EAGER), tag=1),
        comm.isend(0, SymbolicPayload(RNDV), tag=2),
    ]
    recvs = [comm.irecv(0, tag=2), comm.irecv(0, tag=1)]
    stamps = []
    for req in sends + recvs:
        yield from comm.wait(req)
        stamps.append(comm.now)
    return stamps


BASE = cluster_b(2)
FAT_TREE = dataclasses.replace(
    cluster_b(5), topology=FatTreeConfig(nodes_per_leaf=2, spines=2)
)
SMALL_CHUNKS = dataclasses.replace(
    BASE, fabric=dataclasses.replace(BASE.fabric, chunk_bytes=4096)
)

#: name -> (config, nranks, ppn, rank function, kwargs, fault plan).
SCENARIOS = {
    **{
        f"{proto}_{where}": (
            BASE, 8, 4, _pair, {"dst": dst, "counts": (count, count)}, None
        )
        for proto, count in (("eager", EAGER), ("rndv", RNDV))
        for where, dst in (
            ("same_socket", SAME_SOCKET),
            ("cross_socket", CROSS_SOCKET),
            ("inter_node", INTER_NODE),
        )
    },
    "multi_chunk": (
        BASE, 8, 4, _pair, {"dst": INTER_NODE, "counts": (MULTI,)}, None
    ),
    "fat_tree_fan_in": (FAT_TREE, 5, 1, _fan_in, {}, None),
    "unexpected_bounce": (
        BASE, 8, 4, _pair,
        {"dst": INTER_NODE, "counts": (EAGER, EAGER), "late": 5e-5}, None,
    ),
    "rts_overtakes_eager": (SMALL_CHUNKS, 8, 4, _overtake, {}, None),
    "any_source": (BASE, 8, 4, _any_source, {}, None),
    "self_send": (BASE, 8, 4, _self_send, {}, None),
    "link_degrade": (
        BASE, 8, 4, _pair, {"dst": INTER_NODE, "counts": (EAGER, MULTI)},
        FaultPlan(
            faults=(
                LinkDegrade(
                    src=0, dst=1, latency_factor=3.0, bandwidth_factor=0.5
                ),
            )
        ),
    ),
    "link_outage_recovered": (
        BASE, 8, 4, _pair, {"dst": INTER_NODE, "counts": (EAGER, RNDV)},
        FaultPlan(
            faults=(LinkOutage(src=0, dst=1, start=0.0, duration=2e-5),),
            retry_limit=50,
        ),
    ),
    "link_outage_exhausted": (
        BASE, 8, 4, _pair, {"dst": INTER_NODE, "counts": (EAGER,)},
        FaultPlan(
            faults=(LinkOutage(src=0, dst=1, start=0.0, duration=None),),
            retry_limit=3,
        ),
    ),
}


def observed(name: str) -> dict:
    """Run one scenario on a fresh machine; its full record."""
    config, nranks, ppn, fn, kwargs, plan = SCENARIOS[name]
    timeline = Timeline()
    machine = Machine(config, nranks, ppn, trace=True, timeline=timeline)
    record: dict = {}
    try:
        job = run_job(machine, nranks, fn, faults=plan, kwargs=kwargs)
    except TransportError as err:
        record["error"] = {
            "rank": err.rank,
            "edge": err.edge,
            "attempts": err.attempts,
            "sim_time": err.sim_time,
        }
    else:
        record["values"] = job.values
        record["elapsed"] = job.elapsed
    record["tracer"] = machine.tracer.as_dict()
    record["spans"] = [dataclasses.astuple(span) for span in timeline.spans]
    counters = machine.sim.counters()
    record["fast"] = {key: counters[key] for key in CALENDAR_KEYS}
    return record


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_transport_record(name):
    record = observed(name)
    assert record == GOLDEN[name], (
        f"{name} moved; observed record:\n{pprint.pformat(record, width=78)}"
    )


def test_every_scenario_is_pinned():
    assert sorted(GOLDEN) == sorted(SCENARIOS)


GOLDEN = {
    "any_source":
        {"elapsed": 5.562879999999999e-06,
         "fast": {"heap_pops": 10, "heap_pushes": 10, "nowq_entries": 31},
         "spans": [("copy", "copy", 1, 0.0, 1.51328e-06),
                   ("net-send", "net-send", 4, 0.0, 3.7024e-06),
                   ("copy", "shm_copy", 0, 1.66458e-06, 3.47786e-06),
                   ("net-recv", "net-recv", 0, 5.2628799999999995e-06,
                    5.562879999999999e-06)],
         "tracer": {"copy": {"count": 2.0, "time": 3.3265600000000002e-06},
                    "net-send": {"count": 1.0, "time": 3.7024e-06}},
         "values": [[(3.5291599999999998e-06, 4104),
                     (5.562879999999999e-06, 4128)],
                    [1.56458e-06], None, None, [3.7024e-06], None, None,
                    None]},
    "eager_cross_socket":
        {"elapsed": 5.03456e-06,
         "fast": {"heap_pops": 10, "heap_pushes": 10, "nowq_entries": 28},
         "spans": [("copy", "copy", 0, 0.0, 1.5107200000000001e-06),
                   ("copy", "copy", 0, 1.5107200000000001e-06,
                    3.0214400000000002e-06),
                   ("copy", "shm_copy", 1, 1.6619200000000003e-06,
                    3.4726400000000003e-06),
                   ("copy", "shm_copy", 1, 3.17264e-06, 4.98336e-06)],
         "tracer": {"copy": {"count": 4.0, "time": 6.642880000000001e-06}},
         "values": [[1.5619200000000002e-06, 3.0726400000000003e-06],
                    [(3.5238400000000003e-06, 4096), (5.03456e-06, 4096)],
                    None, None, None, None, None, None]},
    "eager_inter_node":
        {"elapsed": 9.208960000000002e-06,
         "fast": {"heap_pops": 10, "heap_pushes": 10, "nowq_entries": 34},
         "spans": [("net-send", "net-send", 0, 0.0, 3.6768e-06),
                   ("net-send", "net-send", 0, 3.6768e-06, 7.3536e-06),
                   ("net-recv", "net-recv", 4, 5.232159999999999e-06,
                    5.532159999999999e-06),
                   ("net-recv", "net-recv", 4, 8.908960000000001e-06,
                    9.208960000000002e-06)],
         "tracer": {"net-send": {"count": 2.0, "time": 7.3536e-06}},
         "values": [[3.6768e-06, 7.3536e-06], None, None, None,
                    [(5.532159999999999e-06, 4096),
                     (9.208960000000002e-06, 4096)],
                    None, None, None]},
    "eager_same_socket":
        {"elapsed": 3.2599999999999997e-06,
         "fast": {"heap_pops": 10, "heap_pushes": 10, "nowq_entries": 28},
         "spans": [("copy", "copy", 0, 0.0, 1.0192e-06),
                   ("copy", "copy", 0, 1.0192e-06, 2.0384e-06),
                   ("copy", "shm_copy", 2, 1.1703999999999998e-06,
                    2.1895999999999998e-06),
                   ("copy", "shm_copy", 2, 2.1895999999999998e-06,
                    3.2087999999999997e-06)],
         "tracer": {"copy": {"count": 4.0, "time": 4.0768e-06}},
         "values": [[1.0704e-06, 2.0896e-06], None,
                    [(2.2408e-06, 4096), (3.2599999999999997e-06, 4096)],
                    None, None, None, None, None]},
    "fat_tree_fan_in":
        {"elapsed": 8.636296000000004e-05,
         "fast": {"heap_pops": 144, "heap_pushes": 144, "nowq_entries": 126},
         "spans": [("net-send", "net-send", 1, 0.0, 3.6768e-06),
                   ("net-ctrl", "net-ctrl", 1, 3.6767999999999997e-06,
                    4.0768e-06),
                   ("net-send", "net-send", 2, 0.0, 3.6768e-06),
                   ("net-ctrl", "net-ctrl", 2, 3.6767999999999997e-06,
                    4.0768e-06),
                   ("net-send", "net-send", 3, 0.0, 3.6768e-06),
                   ("net-ctrl", "net-ctrl", 3, 3.6767999999999997e-06,
                    4.0768e-06),
                   ("net-send", "net-send", 4, 0.0, 3.6768e-06),
                   ("net-ctrl", "net-ctrl", 4, 3.6767999999999997e-06,
                    4.0768e-06),
                   ("net-recv", "net-recv", 0, 5.232159999999999e-06,
                    5.532159999999999e-06),
                   ("net-ctrl", "net-ctrl", 0, 5.53216e-06,
                    5.9321599999999995e-06),
                   ("net-recv", "net-recv", 0, 6.187519999999999e-06,
                    6.487519999999999e-06),
                   ("net-recv", "net-recv", 0, 6.515199999999999e-06,
                    6.815199999999999e-06),
                   ("net-ctrl", "net-ctrl", 0, 6.815199999999999e-06,
                    7.215199999999998e-06),
                   ("net-send", "net-send", 1, 6.8461599999999995e-06,
                    5.9674960000000004e-05),
                   ("net-recv", "net-recv", 0, 7.215199999999998e-06,
                    7.515199999999998e-06),
                   ("net-ctrl", "net-ctrl", 0, 7.515199999999999e-06,
                    7.915199999999998e-06),
                   ("net-ctrl", "net-ctrl", 0, 7.915199999999998e-06,
                    8.315199999999998e-06),
                   ("net-send", "net-send", 4, 8.441199999999996e-06,
                    6.127e-05),
                   ("net-send", "net-send", 2, 9.1412e-06, 6.197e-05),
                   ("net-send", "net-send", 3, 9.541199999999996e-06,
                    6.237e-05),
                   ("net-recv", "net-recv", 0, 6.843928e-05, 6.873928e-05),
                   ("net-recv", "net-recv", 0, 7.819864000000003e-05,
                    7.849864000000002e-05),
                   ("net-recv", "net-recv", 0, 8.344152000000004e-05,
                    8.374152000000003e-05),
                   ("net-recv", "net-recv", 0, 8.606296000000004e-05,
                    8.636296000000004e-05)],
         "tracer": {"net-send": {"count": 8.0, "time": 0.0002260224}},
         "values": [[(5.532159999999999e-06, 4096), (6.873928e-05, 65536),
                     (6.873928e-05, 4096), (8.374152000000003e-05, 65536),
                     (8.374152000000003e-05, 4096),
                     (8.636296000000004e-05, 65536),
                     (8.636296000000004e-05, 4096),
                     (8.636296000000004e-05, 65536)],
                    [3.6768e-06, 5.9674960000000004e-05],
                    [3.6768e-06, 6.197e-05], [3.6768e-06, 6.237e-05],
                    [3.6768e-06, 6.127e-05]]},
    "link_degrade":
        {"elapsed": 0.0001759988000000001,
         "fast": {"heap_pops": 33, "heap_pushes": 33, "nowq_entries": 55},
         "spans": [("net-send", "net-send", 0, 0.0, 3.6768e-06),
                   ("net-ctrl", "net-ctrl", 0, 3.6767999999999997e-06,
                    4.0768e-06),
                   ("net-recv", "net-recv", 4, 7.68752e-06, 7.98752e-06),
                   ("net-ctrl", "net-ctrl", 4, 7.98752e-06, 8.38752e-06),
                   ("net-send", "net-send", 0, 9.301520000000007e-06,
                    0.00014141352000000002),
                   ("net-recv", "net-recv", 4, 0.0001756988000000001,
                    0.0001759988000000001)],
         "tracer": {"net-send": {"count": 2.0,
                                 "time": 0.00013578880000000002}},
         "values": [[3.6768e-06, 0.00014141352000000002], None, None, None,
                    [(7.98752e-06, 4096), (0.0001759988000000001, 164640)],
                    None, None, None]},
    "link_outage_exhausted":
        {"error": {"attempts": 3,
                   "edge": (0, 1),
                   "rank": 0,
                   "sim_time": 1.0676799999999999e-05},
         "fast": {"heap_pops": 4, "heap_pushes": 4, "nowq_entries": 17},
         "spans": [("net-send", "net-send", 0, 0.0, 3.6768e-06)],
         "tracer": {"net-send": {"count": 1.0, "time": 3.6768e-06}}},
    "link_outage_recovered":
        {"elapsed": 7.090344e-05,
         "fast": {"heap_pops": 28, "heap_pushes": 28, "nowq_entries": 42},
         "spans": [("net-send", "net-send", 0, 0.0, 3.6768e-06),
                   ("net-ctrl", "net-ctrl", 0, 3.6767999999999997e-06,
                    4.0768e-06),
                   ("net-recv", "net-recv", 4, 3.623215999999999e-05,
                    3.653215999999999e-05),
                   ("net-ctrl", "net-ctrl", 4, 3.653215999999999e-05,
                    3.6932159999999996e-05),
                   ("net-send", "net-send", 0, 3.784616e-05, 6.446056e-05),
                   ("net-recv", "net-recv", 4, 7.060344e-05, 7.090344e-05)],
         "tracer": {"net-send": {"count": 2.0, "time": 3.02912e-05}},
         "values": [[3.6768e-06, 6.446056e-05], None, None, None,
                    [(3.653215999999999e-05, 4096), (7.090344e-05, 32768)],
                    None, None, None]},
    "multi_chunk":
        {"elapsed": 0.00015173263999999995,
         "fast": {"heap_pops": 28, "heap_pushes": 28, "nowq_entries": 46},
         "spans": [("net-ctrl", "net-ctrl", 0, 0.0, 4e-07),
                   ("net-ctrl", "net-ctrl", 4, 1.314e-06, 1.714e-06),
                   ("net-send", "net-send", 0, 2.627999999999989e-06,
                    0.00013474),
                   ("net-recv", "net-recv", 4, 0.00015143263999999995,
                    0.00015173263999999995)],
         "tracer": {"net-send": {"count": 1.0, "time": 0.000132112}},
         "values": [[0.00013474], None, None, None,
                    [(0.00015173263999999995, 164640)], None, None, None]},
    "rndv_cross_socket":
        {"elapsed": 2.2081120000000002e-05,
         "fast": {"heap_pops": 10, "heap_pushes": 10, "nowq_entries": 32},
         "spans": [("copy", "copy", 0, 1.9999999999999978e-07, 1.088576e-05),
                   ("copy", "copy", 0, 1.0885760000000002e-05,
                    2.1571520000000003e-05)],
         "tracer": {"copy": {"count": 2.0, "time": 2.137152e-05},
                    "sync": {"count": 6.0, "time": 6e-07}},
         "values": [[1.1295360000000001e-05, 2.1981120000000003e-05],
                    [(1.1395360000000002e-05, 32768),
                     (2.2081120000000002e-05, 32768)],
                    None, None, None, None, None, None]},
    "rndv_inter_node":
        {"elapsed": 6.229968e-05,
         "fast": {"heap_pops": 26, "heap_pushes": 26, "nowq_entries": 50},
         "spans": [("net-ctrl", "net-ctrl", 0, 0.0, 4e-07),
                   ("net-ctrl", "net-ctrl", 0, 4e-07, 8e-07),
                   ("net-ctrl", "net-ctrl", 4, 1.314e-06, 1.714e-06),
                   ("net-ctrl", "net-ctrl", 4, 1.714e-06, 2.114e-06),
                   ("net-send", "net-send", 0, 2.6279999999999992e-06,
                    2.92424e-05),
                   ("net-send", "net-send", 0, 2.9242400000000003e-05,
                    5.5856800000000004e-05),
                   ("net-recv", "net-recv", 4, 3.538528e-05, 3.568528e-05),
                   ("net-recv", "net-recv", 4, 6.199968000000001e-05,
                    6.229968e-05)],
         "tracer": {"net-send": {"count": 2.0, "time": 5.32288e-05}},
         "values": [[2.92424e-05, 5.5856800000000004e-05], None, None, None,
                    [(3.568528e-05, 32768), (6.229968e-05, 32768)], None,
                    None, None]},
    "rndv_same_socket":
        {"elapsed": 1.42168e-05,
         "fast": {"heap_pops": 10, "heap_pushes": 10, "nowq_entries": 32},
         "spans": [("copy", "copy", 0, 1.9999999999999978e-07, 6.9536e-06),
                   ("copy", "copy", 0, 6.9536e-06, 1.37072e-05)],
         "tracer": {"copy": {"count": 2.0, "time": 1.35072e-05},
                    "sync": {"count": 6.0, "time": 6e-07}},
         "values": [[7.3632e-06, 1.41168e-05], None,
                    [(7.4632e-06, 32768), (1.42168e-05, 32768)], None, None,
                    None, None, None]},
    "rts_overtakes_eager":
        {"elapsed": 4.843012e-05,
         "fast": {"heap_pops": 48, "heap_pushes": 48, "nowq_entries": 66},
         "spans": [("net-send", "net-send", 0, 0.0, 1.35072e-05),
                   ("net-ctrl", "net-ctrl", 0, 1.35072e-05, 1.39072e-05),
                   ("net-recv", "net-recv", 4, 1.6052600000000003e-05,
                    1.6352600000000003e-05),
                   ("net-ctrl", "net-ctrl", 4, 1.6352600000000003e-05,
                    1.6752600000000003e-05),
                   ("net-send", "net-send", 0, 1.7666600000000005e-05,
                    4.4281000000000005e-05),
                   ("net-recv", "net-recv", 4, 4.8130119999999997e-05,
                    4.843012e-05)],
         "tracer": {"net-send": {"count": 2.0, "time": 4.01216e-05}},
         "values": [[1.35072e-05, 4.4281000000000005e-05], None, None, None,
                    [(1.6352600000000003e-05, 16384), (4.843012e-05, 32768)],
                    None, None, None]},
    "self_send":
        {"elapsed": 7.9728e-06,
         "fast": {"heap_pops": 2, "heap_pushes": 2, "nowq_entries": 24},
         "spans": [("net-recv", "net-recv", 0, 0.0, 6.8536e-06),
                   ("net-recv", "net-recv", 0, 6.853599999999999e-06,
                    7.9728e-06)],
         "tracer": {},
         "values": [[0.0, 0.0, 6.8536e-06, 7.9728e-06], None, None, None,
                    None, None, None, None]},
    "unexpected_bounce":
        {"elapsed": 5.2238400000000005e-05,
         "fast": {"heap_pops": 11, "heap_pushes": 11, "nowq_entries": 34},
         "spans": [("net-send", "net-send", 0, 0.0, 3.6768e-06),
                   ("net-send", "net-send", 0, 3.6768e-06, 7.3536e-06),
                   ("net-recv", "net-recv", 4, 5e-05, 5.1119200000000003e-05),
                   ("net-recv", "net-recv", 4, 5.1119200000000003e-05,
                    5.2238400000000005e-05)],
         "tracer": {"net-send": {"count": 2.0, "time": 7.3536e-06}},
         "values": [[3.6768e-06, 7.3536e-06], None, None, None,
                    [(5.1119200000000003e-05, 4096),
                     (5.2238400000000005e-05, 4096)],
                    None, None, None]},
}
