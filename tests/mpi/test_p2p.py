"""Point-to-point semantics through the full transport stack."""

import numpy as np
import pytest

from repro.errors import DeadlockError, MPIError
from repro.machine.clusters import cluster_a, cluster_b
from repro.mpi import ANY_SOURCE, ANY_TAG, run_job
from repro.payload import SUM, DataPayload, SymbolicPayload, make_payload
from repro.sim import Simulator


def job(nranks=4, ppn=2, nodes=4):
    return cluster_b(nodes), nranks, ppn


class TestBlockingSendRecv:
    def test_intra_node_roundtrip(self):
        config, n, ppn = job(2, 2, 1)

        def fn(comm):
            if comm.rank == 0:
                yield from comm.send(1, make_payload(4, data=[1, 2, 3, 4]))
                reply = yield from comm.recv(1)
                return reply.array.tolist()
            msg = yield from comm.recv(0)
            yield from comm.send(0, DataPayload(msg.array * 2))
            return None

        res = run_job(config, n, fn, ppn=ppn)
        assert res.values[0] == [2.0, 4.0, 6.0, 8.0]

    def test_inter_node_roundtrip(self):
        config, n, ppn = job(2, 1, 2)

        def fn(comm):
            if comm.rank == 0:
                yield from comm.send(1, make_payload(3, data=[5, 6, 7]))
                return None
            msg = yield from comm.recv(0)
            return msg.array.tolist()

        res = run_job(config, n, fn, ppn=ppn)
        assert res.values[1] == [5.0, 6.0, 7.0]

    def test_large_message_uses_rendezvous_and_arrives(self):
        config, n, ppn = job(2, 1, 2)
        count = 1 << 16  # 512 KB of float64: beyond the eager threshold

        def fn(comm):
            if comm.rank == 0:
                yield from comm.send(1, make_payload(count, data=np.arange(count)))
                return None
            msg = yield from comm.recv(0)
            return float(msg.array[-1])

        res = run_job(config, n, fn, ppn=ppn)
        assert res.values[1] == float(count - 1)

    def test_message_ordering_same_pair(self):
        """Non-overtaking: a big eager message posted first must match
        the first recv even if a tiny one could physically overtake."""
        config, n, ppn = job(2, 1, 2)

        def fn(comm):
            if comm.rank == 0:
                big = SymbolicPayload(4000, 1)  # chunked, slower
                small = SymbolicPayload(1, 1)
                r1 = comm.isend(1, big, tag=7)
                r2 = comm.isend(1, small, tag=7)
                yield from comm.waitall([r1, r2])
                return None
            first = yield from comm.recv(0, tag=7)
            second = yield from comm.recv(0, tag=7)
            return (first.nbytes, second.nbytes)

        res = run_job(config, n, fn, ppn=ppn)
        assert res.values[1] == (4000, 1)

    def test_self_send(self):
        config, n, ppn = job(1, 1, 1)

        def fn(comm):
            req = comm.isend(0, make_payload(2, data=[9, 9]), tag=3)
            msg = yield from comm.recv(0, tag=3)
            yield from comm.wait(req)
            return msg.array.tolist()

        res = run_job(config, n, fn, ppn=ppn)
        assert res.values[0] == [9.0, 9.0]


class TestNonBlocking:
    def test_waitany_returns_first_completion(self):
        config, n, ppn = job(3, 3, 1)

        def fn(comm):
            if comm.rank == 0:
                fast = comm.irecv(1, tag=1)
                slow = comm.irecv(2, tag=2)
                idx, payload = yield from comm.waitany([slow, fast])
                yield from comm.waitall([slow, fast])
                return idx
            if comm.rank == 1:
                yield from comm.send(0, SymbolicPayload(1, 1), tag=1)
            else:
                yield comm.sim.timeout(1e-3)
                yield from comm.send(0, SymbolicPayload(1, 1), tag=2)

        res = run_job(config, n, fn, ppn=ppn)
        assert res.values[0] == 1  # the 'fast' request (index 1) wins

    def test_isend_completes_before_recv_posted(self):
        """Eager sends complete locally without a matching receive."""
        config, n, ppn = job(2, 1, 2)

        def fn(comm):
            if comm.rank == 0:
                req = comm.isend(1, SymbolicPayload(8, 1), tag=1)
                yield from comm.wait(req)
                done_at = comm.now
                # Receiver only posts much later.
                yield from comm.send(1, SymbolicPayload(0, 1), tag=2)
                return done_at
            yield comm.sim.timeout(1e-3)
            yield from comm.recv(0, tag=1)
            msg = yield from comm.recv(0, tag=2)
            return comm.now

        res = run_job(config, n, fn, ppn=ppn)
        assert res.values[0] < 1e-3  # sender was not blocked

    def test_wildcards(self):
        config, n, ppn = job(3, 3, 1)

        def fn(comm):
            if comm.rank == 0:
                a = yield from comm.recv(ANY_SOURCE, ANY_TAG)
                b = yield from comm.recv(ANY_SOURCE, ANY_TAG)
                return sorted([a.count, b.count])
            yield comm.sim.timeout(comm.rank * 1e-6)
            yield from comm.send(0, SymbolicPayload(comm.rank, 1), tag=comm.rank)

        res = run_job(config, n, fn, ppn=ppn)
        assert res.values[0] == [1, 2]


class TestDeadlocks:
    def test_unmatched_recv_deadlocks_with_named_rank(self):
        config, n, ppn = job(2, 2, 1)

        def fn(comm):
            if comm.rank == 0:
                yield from comm.recv(1, tag=99)  # nobody sends this

        with pytest.raises(DeadlockError, match="rank0"):
            run_job(config, n, fn, ppn=ppn)

    def test_mutual_blocking_large_sends_deadlock(self):
        """Two rendezvous sends with no receives posted must hang."""
        config, n, ppn = job(2, 1, 2)
        big = 1 << 16

        def fn(comm):
            peer = 1 - comm.rank
            yield from comm.send(peer, SymbolicPayload(big, 8))
            yield from comm.recv(peer)

        with pytest.raises(DeadlockError):
            run_job(config, n, fn, ppn=ppn)

    @pytest.mark.parametrize(
        "nodes, ppn", [(1, 2), (2, 1)], ids=["intra", "inter"]
    )
    def test_unreceived_rendezvous_isend_deadlocks_with_named_send(
        self, nodes, ppn
    ):
        """A rendezvous send nobody receives or waits on still hangs the
        job, and the deadlock names the send."""
        config = cluster_b(nodes)
        big = config.fabric.eager_threshold + 1

        def fn(comm):
            if comm.rank == 0:
                comm.isend(1, SymbolicPayload(big, 1), tag=5)
            yield comm.sim.timeout(0.0)

        with pytest.raises(DeadlockError, match="send r0->r1 tag=5") as info:
            run_job(config, 2, fn, ppn=ppn)
        assert info.value.blocked == ["send r0->r1 tag=5"]
        if info.value.wait_graph:
            assert list(info.value.wait_graph) == ["send r0->r1 tag=5"]


class TestProcesses:
    def test_only_rank_coroutines_are_processes(self, monkeypatch):
        """Messages, copies and combines run as continuations: a job of
        barriers and allreduces (eager and rendezvous, intra- and
        inter-node) starts one process per rank and no other."""
        names = []
        process = Simulator.process

        def counting(sim, gen, name=""):
            names.append(name)
            return process(sim, gen, name=name)

        monkeypatch.setattr(Simulator, "process", counting)

        def fn(comm):
            yield from comm.barrier()
            out = []
            for count in (8, 8192):
                data = make_payload(
                    count, data=np.full(count, float(comm.rank))
                )
                result = yield from comm.allreduce(data, SUM)
                out.append(float(result.array[0]))
            return out

        res = run_job(cluster_b(2), 8, fn, ppn=4)
        assert res.values == [[28.0, 28.0]] * 8
        assert sorted(names) == [f"rank{r}" for r in range(8)]


class TestTiming:
    def test_inter_node_slower_than_intra_node(self):
        def fn(comm):
            if comm.rank == 0:
                t0 = comm.now
                yield from comm.send(1, SymbolicPayload(1024, 1))
                yield from comm.recv(1)
                return comm.now - t0
            msg = yield from comm.recv(0)
            yield from comm.send(0, msg)

        intra = run_job(cluster_b(1), 2, fn, ppn=2).values[0]
        inter = run_job(cluster_b(2), 2, fn, ppn=1).values[0]
        assert inter > intra

    def test_transfer_time_grows_with_size(self):
        def fn(comm, nbytes):
            if comm.rank == 0:
                yield from comm.send(1, SymbolicPayload(nbytes, 1))
                yield from comm.recv(1)
                return comm.now
            yield from comm.recv(0)
            yield from comm.send(0, SymbolicPayload(0, 1))

        times = [
            run_job(cluster_b(2), 2, fn, ppn=1, args=(nb,)).values[0]
            for nb in (1024, 65536, 1 << 20)
        ]
        assert times == sorted(times)
        assert times[2] > times[0] * 5


class TestRankRange:
    """A negative comm rank is an error, not Python's index from the end."""

    @pytest.mark.parametrize("call", [
        lambda comm: comm.send(-1, SymbolicPayload(1, 8)),
        lambda comm: comm.recv(source=-2),
    ], ids=["send_to_-1", "recv_from_-2"])
    def test_negative_rank_raises(self, call):
        def fn(comm):
            if comm.rank == 0:
                yield from call(comm)
            else:
                yield comm.sim.timeout(0)

        with pytest.raises(MPIError, match="out of range"):
            run_job(cluster_a(1), 4, fn, ppn=4)
