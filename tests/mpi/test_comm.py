"""Communicator management: split, barrier, request API, contexts."""

import pytest

from repro.errors import ConfigError, MPIError
from repro.machine.clusters import cluster_b
from repro.mpi import run_job
from repro.payload import SUM, SymbolicPayload, make_payload


class TestSplit:
    def test_split_by_parity(self):
        def fn(comm):
            sub = yield from comm.split(color=comm.rank % 2)
            return (sub.rank, sub.size, sub.world_rank)

        res = run_job(cluster_b(2), 8, fn, ppn=4)
        for rank, (sub_rank, sub_size, world) in enumerate(res.values):
            assert sub_size == 4
            assert world == rank
            assert sub_rank == rank // 2

    def test_split_undefined_color_returns_none(self):
        def fn(comm):
            sub = yield from comm.split(color=0 if comm.rank < 2 else -1)
            return sub if sub is None else sub.size

        res = run_job(cluster_b(2), 4, fn, ppn=2)
        assert res.values == [2, 2, None, None]

    def test_split_key_reorders_ranks(self):
        def fn(comm):
            sub = yield from comm.split(color=0, key=-comm.rank)
            return sub.rank

        res = run_job(cluster_b(2), 4, fn, ppn=2)
        assert res.values == [3, 2, 1, 0]

    def test_nested_split(self):
        def fn(comm):
            node_comm = yield from comm.split(color=comm.machine.node_of(comm.world_rank))
            pair = yield from node_comm.split(color=node_comm.rank // 2)
            return (node_comm.size, pair.size)

        res = run_job(cluster_b(2), 8, fn, ppn=4)
        assert all(v == (4, 2) for v in res.values)

    def test_split_comms_have_distinct_contexts(self):
        def fn(comm):
            a = yield from comm.split(color=0)
            b = yield from comm.split(color=0)
            return (a.group.context, b.group.context)

        res = run_job(cluster_b(2), 4, fn, ppn=2)
        a_ctx, b_ctx = res.values[0]
        assert a_ctx != b_ctx
        assert all(v == (a_ctx, b_ctx) for v in res.values)

    def test_traffic_isolated_between_split_comms(self):
        """Same tags on different communicators must not cross-match."""
        def fn(comm):
            sub = yield from comm.split(color=comm.rank % 2)
            # Everyone sends on world and on sub with the same tag.
            peer_world = comm.rank ^ 1
            peer_sub = sub.rank ^ 1
            w = comm.isend(peer_world, SymbolicPayload(1, 1), tag=9)
            s = sub.isend(peer_sub, SymbolicPayload(2, 1), tag=9)
            from_world = yield from comm.recv(peer_world, tag=9)
            from_sub = yield from sub.recv(peer_sub, tag=9)
            yield from comm.waitall([w, s])
            return (from_world.count, from_sub.count)

        res = run_job(cluster_b(2), 4, fn, ppn=2)
        assert all(v == (1, 2) for v in res.values)


class TestBarrier:
    def test_barrier_synchronizes(self):
        def fn(comm):
            yield comm.sim.timeout(comm.rank * 1e-5)
            yield from comm.barrier()
            return comm.now

        res = run_job(cluster_b(2), 6, fn, ppn=3)
        latest_arrival = 5 * 1e-5
        assert all(v >= latest_arrival for v in res.values)

    def test_barrier_single_rank_is_noop(self):
        def fn(comm):
            yield from comm.barrier()
            return comm.now

        res = run_job(cluster_b(1), 1, fn, ppn=1)
        assert res.values[0] == 0.0

    def test_non_power_of_two_barrier(self):
        def fn(comm):
            yield from comm.barrier()
            return True

        res = run_job(cluster_b(3), 7, fn, ppn=3)
        assert all(res.values)


class TestRequests:
    def test_value_before_completion_raises(self):
        def fn(comm):
            if comm.rank == 0:
                req = comm.irecv(1, tag=1)
                with pytest.raises(MPIError):
                    _ = req.value
                payload = yield from comm.wait(req)
                return payload.count
            yield from comm.send(0, SymbolicPayload(5, 1), tag=1)

        res = run_job(cluster_b(2), 2, fn, ppn=1)
        assert res.values[0] == 5

    def test_translate_out_of_range(self):
        def fn(comm):
            with pytest.raises(MPIError):
                comm.translate(99)
            yield comm.sim.timeout(0)

        run_job(cluster_b(2), 2, fn, ppn=1)


class TestNonBlockingCollectives:
    def test_iallreduce_overlaps_and_completes(self):
        def fn(comm):
            data = make_payload(8, data=[float(comm.rank)] * 8)
            req = comm.iallreduce(data, SUM, algorithm="recursive_doubling")
            # Do other work while the collective progresses.
            yield comm.sim.timeout(1e-6)
            result = yield from comm.wait(req)
            return result.array.tolist()

        res = run_job(cluster_b(2), 4, fn, ppn=2)
        assert all(v == [6.0] * 8 for v in res.values)

    def test_multiple_outstanding_iallreduces(self):
        def fn(comm):
            reqs = [
                comm.iallreduce(
                    make_payload(4, data=[float(comm.rank + i)] * 4),
                    SUM,
                    algorithm="recursive_doubling",
                )
                for i in range(3)
            ]
            results = yield from comm.waitall(reqs)
            return [r.array[0] for r in results]

        res = run_job(cluster_b(2), 4, fn, ppn=2)
        base = sum(range(4))
        assert all(v == [base, base + 4, base + 8] for v in res.values)


class TestCollectiveErrors:
    def test_unknown_algorithm(self):
        from repro.errors import TuningError

        def fn(comm):
            with pytest.raises(TuningError, match="unknown"):
                yield from comm.allreduce(
                    SymbolicPayload(1, 4), SUM, algorithm="nope"
                )

        run_job(cluster_b(2), 2, fn, ppn=1)

    #: kind -> (the blocking wrapper's call, the algorithm whose
    #: keywords are checked: an allreduce without one checks none).
    WRAPPERS = {
        "allreduce": (lambda comm, p, **kw: comm.allreduce(p, SUM, **kw), "dpml"),
        "reduce": (lambda comm, p, **kw: comm.reduce(p, SUM, **kw), None),
        "bcast": (lambda comm, p, **kw: comm.bcast(p, **kw), None),
        "allgather": (lambda comm, p, **kw: comm.allgather(p, **kw), None),
        "reduce_scatter": (
            lambda comm, p, **kw: comm.reduce_scatter(p, SUM, **kw), None
        ),
        "gather": (lambda comm, p, **kw: comm.gather(p, **kw), None),
        "scatter": (lambda comm, p, **kw: comm.scatter([p] * comm.size, **kw), None),
        "alltoall": (
            lambda comm, p, **kw: comm.alltoall([p] * comm.size, **kw), None
        ),
    }

    @pytest.mark.parametrize("kind", list(WRAPPERS))
    def test_wrapper_raises_at_the_call(self, kind):
        """An unknown algorithm and a bad keyword (``tag_base`` too:
        the communicator allocates it) raise when the wrapper is
        called, before any simulated time."""
        from repro.errors import TuningError

        call, keyed = self.WRAPPERS[kind]

        def fn(comm):
            payload = SymbolicPayload(8, 4)
            with pytest.raises(TuningError, match="unknown"):
                call(comm, payload, algorithm="nope")
            with pytest.raises(ConfigError, match="bogus"):
                call(comm, payload, algorithm=keyed, bogus=1)
            with pytest.raises(ConfigError, match="tag_base"):
                call(comm, payload, algorithm=keyed, tag_base=1)
            assert comm.now == 0.0
            yield comm.sim.timeout(0)
            return kind

        res = run_job(cluster_b(2), 4, fn, ppn=2)
        assert res.values == [kind] * 4


class TestDup:
    def test_dup_same_group_fresh_context(self):
        def fn(comm):
            dup = yield from comm.dup()
            assert dup.size == comm.size
            assert dup.rank == comm.rank
            assert dup.group.context != comm.group.context
            # Traffic isolation: same (peer, tag) on both comms.
            peer = comm.rank ^ 1
            a = comm.isend(peer, SymbolicPayload(1, 1), tag=5)
            b = dup.isend(peer, SymbolicPayload(2, 1), tag=5)
            from_dup = yield from dup.recv(peer, tag=5)
            from_orig = yield from comm.recv(peer, tag=5)
            yield from comm.waitall([a, b])
            return (from_orig.count, from_dup.count)

        res = run_job(cluster_b(2), 4, fn, ppn=2)
        assert all(v == (1, 2) for v in res.values)


class TestAllreduceKeywords:
    """A rank function's allreduce keywords are checked at dispatch."""

    @pytest.mark.parametrize(
        "algorithm, kwargs, match",
        [
            ("dpml", {"leaders": 64}, "leaders must be in"),
            ("dpml", {"bogus": 1}, "takes no keyword"),
            ("generalized", {"radices": (3,)}, "radices"),
            ("dualroot_pipelined", {"segment_bytes": 1024}, "takes no keyword"),
            ("dpml_pipelined", {"max_k": 4}, "takes no keyword"),
            ("rabenseifner", {"radices": (2, 2)}, "takes no keyword"),
            ("ring", {"bogus": 1}, "takes no keyword"),
        ],
        ids=[
            "leaders-clamped", "unknown-keyword", "radices-do-not-factor",
            "retired-segment-bytes", "retired-max-k",
            "schedule-record-radices", "schedule-record-unknown",
        ],
    )
    def test_bad_keywords_raise_config_error(self, algorithm, kwargs, match):
        def fn(comm):
            out = yield from comm.allreduce(
                SymbolicPayload(64, 4), SUM, algorithm=algorithm, **kwargs
            )
            return out.count

        with pytest.raises(ConfigError, match=match):
            run_job(cluster_b(2), 8, fn, ppn=4)

    def test_radices_list_is_checked(self):
        def job(radices):
            def fn(comm):
                out = yield from comm.allreduce(
                    SymbolicPayload(64, 4), SUM, algorithm="generalized",
                    radices=radices,
                )
                return out.count

            return run_job(cluster_b(2), 8, fn, ppn=4)

        assert job([2, 4]).values == [64] * 8
        with pytest.raises(ConfigError, match="radices"):
            job([3])


class TestRootedKeywords:
    """Rooted and other non-allreduce collectives check their keywords
    at dispatch too, blocking and non-blocking; ``root`` is the
    caller's own argument."""

    @staticmethod
    def _call(kind, algorithm, **kwargs):
        def fn(comm):
            data = SymbolicPayload(64, 4)
            if kind == "reduce":
                out = yield from comm.reduce(
                    data, SUM, root=1, algorithm=algorithm, **kwargs
                )
            elif kind == "bcast":
                out = yield from comm.bcast(
                    data, root=1, algorithm=algorithm, **kwargs
                )
            elif kind == "ireduce":
                req = comm.ireduce(
                    data, SUM, root=1, algorithm=algorithm, **kwargs
                )
                out = yield from comm.wait(req)
            else:
                req = comm.ibcast(data, root=1, algorithm=algorithm, **kwargs)
                out = yield from comm.wait(req)
            return None if out is None else out.count

        return run_job(cluster_b(2), 4, fn, ppn=2)

    @pytest.mark.parametrize(
        "kind, algorithm, kwargs, match",
        [
            ("reduce", "dpml", {"leaders": 16}, "leaders must be in"),
            ("bcast", "dpml", {"leaders": 16}, "leaders must be in"),
            ("ireduce", "dpml", {"leaders": 16}, "leaders must be in"),
            ("ibcast", "dpml", {"leaders": 16}, "leaders must be in"),
            ("reduce", "binomial", {"bogus": 3}, "reduce 'binomial' takes no"),
            ("bcast", None, {"leaders": 2}, "bcast 'binomial' takes no"),
            ("bcast", "knomial", {"radix": 2, "bogus": 1}, "takes no"),
            ("reduce", "dpml", {"inter_algorithm": "nonexistent"},
             "no registered reduce"),
            ("bcast", "dpml", {"inter_algorithm": "nonexistent"},
             "no registered bcast"),
            ("reduce", "knomial", {"radix": 2.5}, "radix must be an integer"),
            ("reduce", "knomial", {"radix": "3"}, "radix must be an integer"),
            ("reduce", "knomial", {"radix": 1}, "radix must be >= 2"),
            ("bcast", "knomial", {"radix": 2.5}, "radix must be an integer"),
            ("bcast", "knomial", {"radix": "3"}, "radix must be an integer"),
            ("bcast", "knomial", {"radix": 1}, "radix must be >= 2"),
        ],
        ids=[
            "reduce-leaders", "bcast-leaders", "ireduce-leaders",
            "ibcast-leaders", "reduce-unknown", "bcast-default-unknown",
            "bcast-knomial-unknown", "reduce-unknown-inter",
            "bcast-unknown-inter",
            "reduce-float-radix", "reduce-string-radix", "reduce-radix-1",
            "bcast-float-radix", "bcast-string-radix", "bcast-radix-1",
        ],
    )
    def test_bad_keywords_raise_config_error(self, kind, algorithm, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            self._call(kind, algorithm, **kwargs)

    @pytest.mark.parametrize("kind", ["reduce", "bcast", "ireduce", "ibcast"])
    def test_accepted_keywords_run(self, kind):
        job = self._call(kind, "dpml", leaders=2, inter_algorithm="binomial")
        if kind.endswith("reduce"):
            assert job.values == [None, 64, None, None]
        else:
            assert job.values == [64] * 4


class TestRootRange:
    """A world-communicator ``root`` outside ``[0, size)`` raises
    ConfigError at dispatch, for every rooted kind and algorithm."""

    @pytest.mark.parametrize("root", [-1, 6])
    @pytest.mark.parametrize(
        "kind, algorithm",
        [
            ("reduce", "binomial"),
            ("reduce", "knomial"),
            ("reduce", "auto"),
            ("reduce", "dpml"),
            ("bcast", "binomial"),
            ("bcast", "scatter_ring"),
            ("bcast", "dpml"),
            ("gather", "binomial"),
            ("scatter", "binomial"),
        ],
    )
    def test_root_outside_comm_raises(self, kind, algorithm, root):
        def fn(comm):
            data = make_payload(6)
            if kind == "reduce":
                out = yield from comm.reduce(
                    data, SUM, root=root, algorithm=algorithm
                )
            elif kind == "bcast":
                out = yield from comm.bcast(data, root=root, algorithm=algorithm)
            elif kind == "gather":
                out = yield from comm.gather(data, root=root, algorithm=algorithm)
            else:
                out = yield from comm.scatter(
                    data.split(comm.size), root=root, algorithm=algorithm
                )
            return out

        with pytest.raises(ConfigError, match=r"root must be in \[0, 6\)"):
            run_job(cluster_b(2), 6, fn, ppn=3)


@pytest.mark.parametrize("fidelity", ["exact", "hybrid"])
@pytest.mark.parametrize(
    "algorithm, knob, value",
    [
        ("ring_segmented", "segment_bytes", 0),
        ("ring_segmented", "segment_bytes", -4096),
        ("dualroot_pipelined", "segment_bytes", 0),
        ("dpml_pipelined", "pipeline_unit", 0),
        ("dpml_pipelined", "pipeline_unit", -64),
        ("dpml_pipelined", "max_k", 0),
        ("dpml_pipelined", "max_k", -2),
    ],
)
@pytest.mark.parametrize("entry", ["dispatch", "sample_point", "latency"])
def test_segment_knobs_below_one_raise(entry, algorithm, knob, value, fidelity):
    """A segment size or pipeline unit below 1 raises ConfigError at
    every entry point, in both fidelities, instead of dividing by zero
    or running clamped to one segment.  The retired knobs (dualroot's
    ``segment_bytes``, dpml_pipelined's ``max_k``) are unknown keywords
    there."""
    from repro.bench.harness import allreduce_latency
    from repro.bench.spec import SamplePoint

    retired = {("dualroot_pipelined", "segment_bytes"), ("dpml_pipelined", "max_k")}
    if (algorithm, knob) in retired:
        match = f"takes no keyword\\(s\\) {knob};"
    else:
        match = f"{knob} must be >= 1"
    if entry == "dispatch":
        def fn(comm):
            out = yield from comm.allreduce(
                make_payload(4096), SUM, algorithm=algorithm, **{knob: value}
            )
            return out.count

        with pytest.raises(ConfigError, match=match):
            run_job(cluster_b(2), 8, fn, ppn=4, fidelity=fidelity)
    elif entry == "sample_point":
        with pytest.raises(ConfigError, match=match):
            SamplePoint(
                "b", 2, 4, algorithm, 4096 * 8, extra=((knob, value),),
                fidelity=fidelity,
            )
    else:
        with pytest.raises(ConfigError, match=match):
            allreduce_latency(
                cluster_b(2), algorithm, 4096 * 8, ppn=4, fidelity=fidelity,
                **{knob: value},
            )
