"""LazyTable, and rewinding exactly the queues a run touched.

Per-rank engines, per-node NIC and memory queues and per-rank matchers
are built on first access, and ``Simulator.reset`` rewinds only the
queues submitted to since the last reset.  A reused session must still
be indistinguishable from a fresh one when consecutive jobs touch
different queue sets.
"""

import pytest

from repro.machine.clusters import cluster_b
from repro.machine.machine import Machine
from repro.mpi.runtime import SimSession
from repro.payload import SUM
from repro.payload.payload import SymbolicPayload
from repro.sim import FCFSQueue, LazyTable, Simulator

QUEUE_TABLES = ("engine", "nic_tx", "nic_rx", "mem")
# Kernel counters that do not depend on the event pools a reused
# session keeps across resets.
POOL_FREE = ("heap_pushes", "heap_pops", "nowq_entries", "macro_events")


def _squares(size=4):
    built = []

    def build(index):
        built.append(index)
        return index * index

    return LazyTable(size, build), built


class TestLazyTable:
    @pytest.mark.parametrize("index", [-1, -4, 4, 100])
    def test_out_of_range_index_raises_and_builds_nothing(self, index):
        table, built = _squares()
        with pytest.raises(IndexError):
            table[index]
        assert len(table) == 0
        assert index not in table
        assert built == []

    def test_item_built_once_on_first_access(self):
        table, built = _squares()
        assert table[3] == 9
        assert table[3] == 9
        assert built == [3]
        assert len(table) == 1 and 3 in table and 2 not in table

    def test_iteration_yields_built_items_in_index_order(self):
        table, _ = _squares(size=10)
        assert list(table) == []
        for index in (7, 2, 9, 0):
            table[index]
        assert list(table) == [0, 4, 49, 81]

    def test_machine_builds_queues_on_first_use(self):
        machine = Machine(cluster_b(2), 8, 4)
        for name in QUEUE_TABLES:
            assert len(getattr(machine, name)) == 0
        queue = machine.engine[5]
        assert isinstance(queue, FCFSQueue)
        assert queue.name == "engine[r5]"
        assert machine.engine[5] is queue
        assert machine.nic_tx[1].name == "nic_tx[n1]"
        with pytest.raises(IndexError):
            machine.nic_rx[2]
        assert [len(getattr(machine, n)) for n in QUEUE_TABLES] == [1, 1, 0, 0]


def _state(queue):
    return (queue.busy_until, queue.served_time, queue.job_count)


PRISTINE = (0.0, 0.0, 0)


class TestSimulatorRewind:
    def _run(self, sim, *work):
        def proc(queue, service):
            yield queue.submit(service)

        for queue, service in work:
            sim.process(proc(queue, service))
        sim.run()

    def test_reset_rewinds_only_touched_queues(self):
        sim = Simulator()
        a, b, idle = (FCFSQueue(sim, name) for name in ("a", "b", "idle"))
        self._run(sim, (a, 1.0), (a, 2.0), (b, 0.5))
        assert sim._queues == [a, b]
        assert _state(a) == (3.0, 3.0, 2)
        sim.reset()
        assert sim._queues == []
        assert [_state(q) for q in (a, b, idle)] == [PRISTINE] * 3

    def test_queue_registers_again_after_a_rewind(self):
        sim = Simulator()
        a, b = FCFSQueue(sim, "a"), FCFSQueue(sim, "b")
        self._run(sim, (a, 1.0))
        sim.reset()
        self._run(sim, (b, 2.0), (a, 0.25))
        assert sim._queues == [b, a]
        sim.reset()
        assert _state(a) == _state(b) == PRISTINE

    def test_double_rewind_is_harmless(self):
        sim = Simulator()
        a = FCFSQueue(sim, "a")
        self._run(sim, (a, 1.0))
        a.reset()  # an owner's explicit rewind before the simulator's
        self._run(sim, (a, 1.0))
        assert sim._queues == [a, a]
        sim.reset()
        sim.reset()
        assert _state(a) == PRISTINE
        self._run(sim, (a, 4.0))
        assert _state(a) == (4.0, 4.0, 1)
        assert sim.now == 4.0


NODES, PPN = 4, 8
NBYTES = 65536
# (algorithm, world ranks taking part): the two jobs touch different
# engines and different nodes' NIC and memory queues.
JOBS = {
    "mvapich2": range(0, 2 * PPN),
    "dpml_pipelined": range(PPN, NODES * PPN),
}


def _subset_allreduce(algorithm, members):
    members = frozenset(members)

    def fn(comm):
        sub = yield from comm.split(0 if comm.rank in members else -1)
        if sub is None:
            return None
        payload = SymbolicPayload(NBYTES // 4, 4)
        t0 = comm.now
        yield from sub.allreduce(payload, SUM, algorithm=algorithm)
        return comm.now - t0

    return fn


def _observe(session, result):
    machine = session.machine
    kernel = machine.sim.counters()
    touched = {
        (name, index): _state(queue)
        for name in QUEUE_TABLES
        for index, queue in getattr(machine, name).items()
        if queue.job_count
    }
    return {
        "values": result.values,
        "elapsed": result.elapsed,
        "tracer": machine.tracer.as_dict(),
        "kernel": {key: kernel[key] for key in POOL_FREE},
        "touched": touched,
    }


def _new_session():
    return SimSession(cluster_b(NODES), NODES * PPN, ppn=PPN, trace=True)


@pytest.mark.parametrize(
    "order",
    [("mvapich2", "dpml_pipelined", "mvapich2"),
     ("dpml_pipelined", "mvapich2", "dpml_pipelined")],
)
def test_reused_session_matches_fresh_across_queue_sets(order):
    fresh = {}
    for algorithm in set(order):
        session = _new_session()
        result = session.run(_subset_allreduce(algorithm, JOBS[algorithm]))
        fresh[algorithm] = _observe(session, result)
    touched = {alg: set(obs["touched"]) for alg, obs in fresh.items()}
    assert touched["mvapich2"] != touched["dpml_pipelined"]
    assert not touched["mvapich2"] <= touched["dpml_pipelined"]

    reused = _new_session()
    for algorithm in order:
        result = reused.run(_subset_allreduce(algorithm, JOBS[algorithm]))
        assert _observe(reused, result) == fresh[algorithm], algorithm
        # Queues only the previous job touched were rewound to pristine.
        for name in QUEUE_TABLES:
            for index, queue in getattr(reused.machine, name).items():
                if (name, index) not in touched[algorithm]:
                    assert _state(queue) == PRISTINE, (name, index)
