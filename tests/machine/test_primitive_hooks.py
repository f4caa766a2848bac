"""Every hook of the machine's charged primitives, pinned.

Four machines on two cluster-A nodes (four ranks per node, so the ranks
of node 0 sit on both sockets) run the same calls, each from its own
process started at t=0:

* ``plain`` -- no hook;
* ``noise`` -- ``NoiseModel(0.3, seed=1)`` and the tracer on;
* ``fault`` -- a :class:`~repro.faults.plan.NodeSlowdown` active from
  t=0 on node 0, which hosts every calling rank, and the tracer on;
* ``timeline`` -- an enabled :class:`~repro.sim.timeline.Timeline` and
  the tracer on.

The record of each run must equal :data:`GOLDEN` exactly: when each
call's event fired, the served time and job count of ``mem[0]`` and of
every rank engine, the tracer's counts and times, and the timeline's
spans.  The noisy machine's tracer times are left out: its counts are
pinned, its charged times are what the noise drew.  When a change moves
a record on purpose, copy the observed record the failing test prints
into :data:`GOLDEN`.
"""

from __future__ import annotations

import pprint

import pytest

from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, NodeSlowdown
from repro.machine.clusters import cluster_a
from repro.machine.machine import Machine
from repro.machine.noise import NoiseModel
from repro.sim.timeline import Timeline

#: (name, primitive, arguments); ranks 0 and 2 sit on socket 0, ranks 1
#: and 3 on socket 1.
CALLS = (
    ("copy_same_socket", "shm_copy", (0, 4096)),
    ("copy_cross_socket", "shm_copy", (1, 4096, True)),
    ("compute", "compute", (2, 65536, 3)),
    ("compute_empty", "compute", (3, 0)),
    ("engine", "engine_submit", (0, 1e-6, "net")),
    ("flag", "flag_sync", ()),
    ("gather", "gather_sync", (0, 27)),
)


def build(kind: str) -> Machine:
    config = cluster_a(2)
    if kind == "plain":
        return Machine(config, 8, 4)
    if kind == "noise":
        return Machine(config, 8, 4, trace=True, noise=NoiseModel(0.3, seed=1))
    if kind == "fault":
        machine = Machine(config, 8, 4, trace=True)
        plan = FaultPlan((NodeSlowdown(node=0, factor=2.5, start=0.0),))
        machine.faults = FaultInjector.for_machine(plan, machine)
        return machine
    assert kind == "timeline"
    return Machine(config, 8, 4, trace=True, timeline=Timeline())


def exercise(machine: Machine) -> dict:
    """Run every call of :data:`CALLS`; the hooks' record."""
    sim = machine.sim
    done = {}

    def one(name, primitive, args):
        yield getattr(machine, primitive)(*args)
        done[name] = sim.now

    for call in CALLS:
        sim.process(one(*call))
    sim.run()
    tracer = machine.tracer
    record = {
        "done": done,
        "mem": (machine.mem[0].served_time, machine.mem[0].job_count),
        "engine": {
            rank: (machine.engine[rank].served_time, machine.engine[rank].job_count)
            for rank in range(4)
        },
        "counts": dict(tracer.count_by_category),
        "times": dict(tracer.time_by_category),
        "spans": [
            (s.category, s.name, s.rank, s.start, s.end)
            for s in (machine.timeline.spans if machine.timeline else ())
        ],
    }
    if machine.noise is not None:
        del record["times"]
    return record


GOLDEN: dict = {'fault': {'counts': {'compute': 4, 'copy': 2, 'sync': 2},
           'done': {'compute': 8.11008e-05,
                    'compute_empty': 0.0,
                    'copy_cross_socket': 4.578e-06,
                    'copy_same_socket': 2.5992e-06,
                    'engine': 1e-06,
                    'flag': 1e-07,
                    'gather': 1.99e-06},
           'engine': {0: (1e-06, 1),
                      1: (0.0, 0),
                      2: (7.3728e-05, 1),
                      3: (0.0, 0)},
           'mem': (7.4752e-06, 3),
           'spans': [],
           'times': {'compute': 7.3728e-05,
                     'copy': 7.0748000000000004e-06,
                     'sync': 2.09e-06}},
 'noise': {'counts': {'compute': 4, 'copy': 2, 'sync': 2},
           'done': {'compute': 3.993730972510637e-05,
                    'compute_empty': 0.0,
                    'copy_cross_socket': 2.3680534632710837e-06,
                    'copy_same_socket': 1.1817375905631334e-06,
                    'engine': 6.764158904976922e-07,
                    'flag': 1e-07,
                    'gather': 1.99e-06},
           'engine': {0: (6.764158904976922e-07, 1),
                      1: (0.0, 0),
                      2: (3.256450972510637e-05, 1),
                      3: (0.0, 0)},
           'mem': (7.4752e-06, 3),
           'spans': []},
 'plain': {'counts': {},
           'done': {'compute': 3.6864e-05,
                    'compute_empty': 0.0,
                    'copy_cross_socket': 1.86192e-06,
                    'copy_same_socket': 1.0704e-06,
                    'engine': 1e-06,
                    'flag': 1e-07,
                    'gather': 1.99e-06},
           'engine': {0: (1e-06, 1),
                      1: (0.0, 0),
                      2: (2.94912e-05, 1),
                      3: (0.0, 0)},
           'mem': (7.4752e-06, 3),
           'spans': [],
           'times': {}},
 'timeline': {'counts': {'compute': 4, 'copy': 2, 'sync': 2},
              'done': {'compute': 3.6864e-05,
                       'compute_empty': 0.0,
                       'copy_cross_socket': 1.86192e-06,
                       'copy_same_socket': 1.0704e-06,
                       'engine': 1e-06,
                       'flag': 1e-07,
                       'gather': 1.99e-06},
              'engine': {0: (1e-06, 1),
                         1: (0.0, 0),
                         2: (2.94912e-05, 1),
                         3: (0.0, 0)},
              'mem': (7.4752e-06, 3),
              'spans': [('copy', 'shm_copy', 0, 0.0, 1.0192e-06),
                        ('copy', 'shm_copy', 1, 0.0, 1.81072e-06),
                        ('compute', 'compute', 2, 0.0, 2.94912e-05),
                        ('net', 'net', 0, 0.0, 1e-06)],
              'times': {'compute': 2.94912e-05,
                        'copy': 2.82992e-06,
                        'sync': 2.09e-06}}}


@pytest.mark.parametrize("kind", ["plain", "noise", "fault", "timeline"])
def test_primitive_hooks(kind):
    record = exercise(build(kind))
    assert record == GOLDEN[kind], "observed record:\n" + pprint.pformat(record)
