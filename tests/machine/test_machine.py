"""Tests for the live Machine: charged primitives and cost helpers."""

import pytest

from repro.errors import ConfigError
from repro.machine.clusters import cluster_a, cluster_b, cluster_c
from repro.machine.config import FabricConfig, MachineConfig, NodeConfig
from repro.machine.machine import Machine
from repro.machine.noise import NoiseModel
from repro.mpi import run_job
from repro.payload import SymbolicPayload
from repro.sim import Simulator
from repro.sim.timeline import Timeline


def make_machine(nranks=8, ppn=4, nodes=2, **cfg_kw):
    config = MachineConfig(
        nodes=nodes, node=NodeConfig(sockets=2, cores_per_socket=4), **cfg_kw
    )
    return Machine(config, nranks, ppn)


def run_gen(machine, work):
    """Run a process body, or one primitive's event, to the end."""
    if not hasattr(work, "send"):
        primitive = work

        def wait_once():
            yield primitive

        work = wait_once()
    machine.sim.process(work)
    machine.sim.run()
    return machine.sim.now


class TestChargedPrimitives:
    def test_compute_time_scales_with_bytes(self):
        m1 = make_machine()
        t1 = run_gen(m1, m1.compute(0, 1000))
        m2 = make_machine()
        t2 = run_gen(m2, m2.compute(0, 100000))
        assert t2 > t1 * 10

    def test_compute_scales_with_combines(self):
        m1 = make_machine()
        t1 = run_gen(m1, m1.compute(0, 10000, combines=1))
        m2 = make_machine()
        t2 = run_gen(m2, m2.compute(0, 10000, combines=8))
        assert t2 == pytest.approx(t1 * 8, rel=0.05)

    def test_zero_byte_compute_is_free(self):
        m = make_machine()
        assert run_gen(m, m.compute(0, 0)) == 0.0

    def test_shm_copy_has_startup_floor(self):
        m = make_machine()
        t = run_gen(m, m.shm_copy(0, 0))
        assert t >= m.config.node.copy_latency

    def test_cross_socket_copy_costs_more(self):
        m1 = make_machine()
        t_local = run_gen(m1, m1.shm_copy(0, 100000, cross_socket=False))
        m2 = make_machine()
        t_cross = run_gen(m2, m2.shm_copy(0, 100000, cross_socket=True))
        assert t_cross > t_local

    def test_concurrent_compute_serializes_on_engine(self):
        m = make_machine()

        def one(rank):
            yield m.compute(rank, 1_000_000)

        def both_same_rank():
            a = m.sim.process(one(0))
            b = m.sim.process(one(0))
            yield m.sim.all_of([a, b])

        serial = run_gen(m, both_same_rank())
        m2 = make_machine()

        def one2(rank):
            yield m2.compute(rank, 1_000_000)

        def different_ranks():
            a = m2.sim.process(one2(0))
            b = m2.sim.process(one2(1))
            yield m2.sim.all_of([a, b])

        parallel = run_gen(m2, different_ranks())
        # Engine time fully serializes (2x); the shared memory engine
        # keeps the ratio a bit below 2.
        assert serial > 1.5 * parallel

    def test_gather_sync_scales_with_parties(self):
        m = make_machine()
        t1 = run_gen(m, m.gather_sync(0, 1))
        m2 = make_machine()
        t28 = run_gen(m2, m2.gather_sync(0, 28))
        assert t28 > t1


class TestChargesUnderNoise:
    """Under noise the tracer is charged the time the queue served."""

    @staticmethod
    def noisy_machine(seed):
        return Machine(
            cluster_b(2), 4, ppn=2, trace=True, noise=NoiseModel(0.3, seed),
            timeline=Timeline(),
        )

    @staticmethod
    def one_send(machine, dst, nbytes):
        def fn(comm):
            if comm.rank == 0:
                yield from comm.send(dst, SymbolicPayload(nbytes // 8))
            elif comm.rank == dst:
                yield from comm.recv(0)

        run_job(machine, 4, fn)

    def test_compute(self):
        m = self.noisy_machine(1)
        run_gen(m, m.compute(0, 65536, combines=3))
        served = m.engine[0].served_time
        assert served != 65536 * 3 * m.config.node.reduce_byte_time
        assert m.tracer.time("compute") == served

    def test_inter_node_eager_send(self):
        m = self.noisy_machine(2)
        self.one_send(m, 2, 1024)
        assert m.tracer.count("net-send") == 1
        assert m.tracer.time("net-send") == m.engine[0].served_time

    def test_intra_node_eager_send(self):
        # The sender's copy into the shm FIFO runs on its engine, the
        # receiver's copy out is a shared-memory copy; both are spans.
        m = self.noisy_machine(2)
        self.one_send(m, 1, 1024)
        spans = [s for s in m.timeline.spans if s.category == "copy"]
        assert m.tracer.count("copy") == len(spans) == 2
        assert m.tracer.time("copy") == pytest.approx(
            sum(s.duration for s in spans), rel=1e-12
        )


class TestFabricHelpers:
    def test_injection_service_has_overhead_floor(self):
        m = Machine(cluster_b(2), 2, 1)
        assert m.injection_service(0) == pytest.approx(
            cluster_b(2).fabric.send_overhead
        )

    def test_pio_dma_split_on_omnipath(self):
        m = Machine(cluster_c(2), 2, 1)
        fabric = cluster_c(2).fabric
        small = m.injection_service(1024)
        # PIO rate applies below the threshold.
        assert small == pytest.approx(
            fabric.send_overhead + 1024 * fabric.pio_byte_time
        )
        big = m.injection_service(1 << 20)
        assert big == pytest.approx(
            fabric.send_overhead + (1 << 20) * fabric.proc_byte_time
        )

    def test_ib_has_no_pio_split(self):
        m = Machine(cluster_b(2), 2, 1)
        fabric = cluster_b(2).fabric
        assert m.injection_service(1024) == pytest.approx(
            fabric.send_overhead + 1024 * fabric.proc_byte_time
        )

    def test_nic_chunks_cover_message(self):
        m = Machine(cluster_b(2), 2, 1)
        chunk = cluster_b(2).fabric.chunk_bytes
        for nbytes in (0, 1, chunk, chunk + 1, 5 * chunk + 17):
            chunks = m.nic_chunks(nbytes)
            assert sum(chunks) == max(0, nbytes)
            assert all(c <= chunk for c in chunks)

    def test_nic_service_message_floor(self):
        m = Machine(cluster_b(2), 2, 1)
        fabric = cluster_b(2).fabric
        assert m.nic_service(0) == fabric.nic_msg_time
        assert m.nic_service(1 << 20) > fabric.nic_msg_time


class TestTopologyQueries:
    def test_same_socket(self):
        m = make_machine(nranks=8, ppn=4)  # scatter: sockets alternate
        assert m.same_socket(0, 2)
        assert not m.same_socket(0, 1)
        assert not m.same_socket(0, 4)  # different node

    def test_require_sharp(self):
        with_sharp = Machine(cluster_a(2), 4, 2)
        assert with_sharp.require_sharp() is with_sharp.sharp
        without = Machine(cluster_b(2), 4, 2)
        with pytest.raises(ConfigError):
            without.require_sharp()

    def test_machine_rejects_too_many_ranks(self):
        with pytest.raises(ConfigError):
            Machine(cluster_b(1), 64, 32)

    def test_shared_simulator(self):
        sim = Simulator()
        m = Machine(cluster_b(2), 4, 2, sim=sim)
        assert m.sim is sim
