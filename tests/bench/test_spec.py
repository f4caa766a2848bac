"""SweepSpec / SamplePoint / SweepResult: expansion, hashing, round-trips."""

import json

import pytest

from repro.bench.spec import (
    PAPER_SIZES,
    SMALL_SIZES,
    PointResult,
    SamplePoint,
    SweepResult,
    SweepSpec,
    named_sweep,
    resolve_config,
    SWEEPS,
)
from repro.errors import ReproError
from repro.machine.clusters import cluster_b, get_cluster


def small_spec(**overrides):
    base = dict(
        name="t",
        cluster="b",
        nodes=2,
        ppn=2,
        sizes=(1024, 4096),
        algorithms=("dpml",),
        leader_counts=(1, 2),
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestExpansion:
    def test_point_order_is_size_major(self):
        spec = small_spec(algorithms=("a1", "a2"))
        points = spec.points()
        assert len(points) == spec.n_points == 2 * 2 * 2
        assert [p.nbytes for p in points[:4]] == [1024] * 4
        assert [(p.algorithm, p.leaders) for p in points[:4]] == [
            ("a1", 1), ("a1", 2), ("a2", 1), ("a2", 2),
        ]

    def test_leader_counts_clamped_to_ppn(self):
        spec = small_spec(leader_counts=(1, 2, 4, 8, 16))
        assert spec.effective_leader_counts == (1, 2)
        assert all(p.leaders <= spec.ppn for p in spec.points())

    def test_repeats_get_distinct_seeds(self):
        spec = small_spec(
            sizes=(1024,), leader_counts=(1,), repeats=3, sigma=0.05, base_seed=10
        )
        seeds = [p.seed for p in spec.points()]
        assert seeds == [10, 11, 12]
        assert [p.repeat for p in spec.points()] == [0, 1, 2]

    def test_empty_axes_rejected(self):
        with pytest.raises(ReproError, match="sizes"):
            small_spec(sizes=())
        with pytest.raises(ReproError, match="algorithms"):
            small_spec(algorithms=())
        with pytest.raises(ReproError, match="repeats"):
            small_spec(repeats=0)

    @pytest.mark.parametrize(
        "loop", [{"iterations": 0}, {"iterations": -1}, {"warmup": -1}]
    )
    def test_invalid_loop_knobs_rejected_at_construction(self, loop):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match=next(iter(loop))):
            small_spec(**loop)
        with pytest.raises(ConfigError, match=next(iter(loop))):
            SamplePoint("b", 2, 2, "dpml", 1024, **loop)

    def test_negative_size_and_sigma_rejected_at_construction(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="message size"):
            small_spec(sizes=(1024, -5))
        with pytest.raises(ConfigError, match="message size"):
            SamplePoint("b", 2, 2, "dpml", -5)
        with pytest.raises(ConfigError, match="sigma"):
            small_spec(sigma=-1.0)
        with pytest.raises(ConfigError, match="sigma"):
            SamplePoint("b", 2, 2, "dpml", 1024, sigma=-1.0)
        # Zero stays legal for both.
        assert small_spec(sizes=(0,), sigma=0.0).n_points == 2
        assert SamplePoint("b", 2, 2, "dpml", 0).nbytes == 0

    @pytest.mark.parametrize("leaders", [0, -1, 3, 64])
    def test_invalid_leader_count_rejected_at_construction(self, leaders):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="leaders"):
            SamplePoint("b", 2, 2, "dpml", 1024, leaders=leaders)

    @pytest.mark.parametrize("leaders", [None, 1, 2])
    def test_leader_counts_up_to_ppn_accepted(self, leaders):
        point = SamplePoint("b", 2, 2, "dpml", 1024, leaders=leaders)
        assert point.leaders == leaders

    def test_sweep_drops_oversized_counts_but_rejects_zero(self):
        from repro.errors import ConfigError

        spec = small_spec(leader_counts=(1, 2, 4))
        assert [p.leaders for p in spec.points()] == [1, 2, 1, 2]
        with pytest.raises(ConfigError, match="leaders"):
            small_spec(leader_counts=(0, 1)).points()

    def test_nranks_and_session_key(self):
        point = small_spec().points()[0]
        assert point.nranks == 4
        assert point.session_key == ("b", 2, 2)

    def test_extra_kwargs_flow_to_algorithm(self):
        spec = small_spec(
            algorithms=("dpml_pipelined",), extra={"pipeline_unit": 8192}
        )
        point = spec.points()[0]
        assert point.alg_kwargs() == {"pipeline_unit": 8192, "leaders": 1}

    @pytest.mark.parametrize(
        "algorithm, extra",
        [
            ("ring", (("bogus", 1),)),
            ("dpml", (("bogus", 1),)),
            ("dpml", (("pipeline_unit", 8192),)),
            ("recursive_doubling", (("radices", (2, 2, 2)),)),
        ],
    )
    def test_unknown_algorithm_keyword_rejected_at_construction(
        self, algorithm, extra
    ):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="takes no keyword"):
            SamplePoint("a", 2, 4, algorithm, 4096, extra=extra)

    def test_unknown_keyword_rejected_when_a_sweep_expands(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="bogus"):
            small_spec(extra={"bogus": 1}).points()

    @pytest.mark.parametrize("radices", [(3,), (2, 2), (2, 2, 3), (1, 8)])
    def test_radices_that_do_not_factor_the_job_rejected(self, radices):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="radices"):
            SamplePoint(
                "a", 2, 4, "generalized", 4096, extra=(("radices", radices),)
            )

    @pytest.mark.parametrize("radices", [(8,), (2, 4), (2, 2, 2)])
    def test_radices_that_factor_the_job_accepted(self, radices):
        point = SamplePoint(
            "a", 2, 4, "generalized", 4096, extra=(("radices", radices),)
        )
        assert point.alg_kwargs() == {"radices": radices}

    def test_keywords_unchecked_without_a_named_algorithm(self):
        point = SamplePoint("a", 2, 4, None, 4096, extra=(("bogus", 1),))
        assert point.alg_kwargs() == {"bogus": 1}

    def test_keywords_unchecked_when_the_algorithm_takes_any(
        self, monkeypatch
    ):
        from repro.core.phases import AllreduceAlgorithm
        from repro.mpi.collectives import registry

        def anything(comm, payload, op, **kwargs):
            yield from ()

        record = AllreduceAlgorithm("anything", anything, exempt="test only")
        monkeypatch.setitem(registry._ALLREDUCE, "anything", record)
        point = SamplePoint("a", 2, 4, "anything", 4096, extra=(("bogus", 1),))
        assert point.alg_kwargs() == {"bogus": 1}


class TestHashing:
    def test_hash_stable_across_instances(self):
        assert small_spec().spec_hash() == small_spec().spec_hash()

    def test_hash_changes_with_content(self):
        assert small_spec().spec_hash() != small_spec(ppn=4).spec_hash()
        assert small_spec().spec_hash() != small_spec(sigma=0.1).spec_hash()

    def test_hash_survives_json_round_trip(self):
        spec = small_spec(repeats=2, sigma=0.05, extra={"k": 1})
        rt = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rt == spec
        assert rt.spec_hash() == spec.spec_hash()

    def test_tuple_keyword_survives_json_round_trip(self):
        spec = SweepSpec(
            name="y", cluster="b", nodes=2, ppn=4, sizes=(64,),
            algorithms=("generalized",), extra=(("radices", (2, 4)),),
        )
        point = spec.points()[0]
        for record in (spec, point):
            rt = type(record).from_dict(json.loads(json.dumps(record.to_dict())))
            assert rt == record
            assert hash(rt) == hash(record)
        assert point.alg_kwargs() == {"radices": (2, 4)}

    def test_short_hash_is_prefix_of_full_hash(self):
        spec = small_spec()
        full = spec.full_hash()
        assert len(full) == 64
        assert int(full, 16) >= 0  # hex digest
        assert spec.spec_hash() == full[:16]

    def test_full_hash_tracks_content(self):
        assert small_spec().full_hash() == small_spec().full_hash()
        assert small_spec().full_hash() != small_spec(ppn=4).full_hash()


class TestClusterRefs:
    def test_string_ref_resolves_via_presets(self):
        assert resolve_config("b", 4) == get_cluster("b", 4)

    def test_inline_config_round_trips(self):
        config = cluster_b(4)
        spec = small_spec(cluster=config, nodes=4)
        rt = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rt.cluster == config
        assert rt.spec_hash() == spec.spec_hash()

    def test_inline_config_renodes_on_resolve(self):
        config = cluster_b(8)
        assert resolve_config(config, 4).nodes == 4

    def test_point_config_materialises(self):
        point = small_spec().points()[0]
        assert point.config() == get_cluster("b", 2)


class TestResults:
    def _result(self, spec=None, fail_at=()):
        spec = spec or small_spec()
        results = tuple(
            PointResult(point=p, error="ValueError: boom")
            if i in fail_at
            else PointResult(point=p, latency=float(i + 1))
            for i, p in enumerate(spec.points())
        )
        return SweepResult(spec=spec, results=results, meta={"jobs": 1})

    def test_by_size_leaders_shape(self):
        result = self._result()
        data = result.by_size_leaders()
        assert set(data) == {1024, 4096}
        assert set(data[1024]) == {1, 2}
        assert data[1024][1] == 1.0

    def test_repeats_average(self):
        spec = small_spec(sizes=(1024,), leader_counts=(1,), repeats=2)
        result = self._result(spec)
        assert result.by_size_leaders()[1024][1] == pytest.approx(1.5)
        assert result.samples(nbytes=1024, leaders=1) == (1.0, 2.0)

    def test_errors_surface_on_access(self):
        result = self._result(fail_at=(2,))
        assert not result.ok
        assert len(result.errors) == 1
        with pytest.raises(ReproError, match="boom"):
            result.by_size_leaders()

    def test_wrong_result_count_rejected(self):
        spec = small_spec()
        with pytest.raises(ReproError, match="results"):
            SweepResult(spec=spec, results=(), meta={})

    def test_json_round_trip(self):
        result = self._result(fail_at=(1,))
        rt = SweepResult.from_json(result.to_json())
        assert rt.canonical_dict() == result.canonical_dict()
        assert rt.meta == result.meta

    def test_canonical_dict_excludes_meta(self):
        result = self._result()
        assert "meta" not in result.canonical_dict()
        assert "meta" in result.to_dict()


class TestNamedSweeps:
    def test_registry_covers_the_figures(self):
        for name in ("fig4", "fig5", "fig6", "fig7", "fig8",
                     "fig9a", "fig9b", "fig9c", "fig9d", "fig10"):
            assert name in SWEEPS
            spec = named_sweep(name)
            assert spec.n_points > 0
            # every named sweep must survive a JSON round trip
            rt = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert rt.spec_hash() == spec.spec_hash()

    def test_unknown_name_rejected(self):
        with pytest.raises(ReproError, match="unknown sweep"):
            named_sweep("fig99")

    def test_leader_sweep_spec_defaults(self):
        spec = named_sweep("fig5")
        assert spec.cluster == "b"
        assert spec.ppn == 28
        assert spec.sizes == tuple(PAPER_SIZES)
        assert spec.algorithms == ("dpml",)
        assert spec.effective_leader_counts == (1, 2, 4, 8, 16)

    def test_algorithm_sweep_spec_defaults(self):
        spec = named_sweep("fig8")
        assert spec.sizes == tuple(SMALL_SIZES)
        assert "sharp_node_leader" in spec.algorithms
        assert spec.leader_counts == (None,)

    def test_overrides_flow_through(self):
        spec = named_sweep("fig5", sizes=[1024], repeats=2, sigma=0.05)
        assert spec.sizes == (1024,)
        assert spec.repeats == 2
        assert spec.sigma == 0.05


#: (name, ppn override, reduced-scale hash, paper-scale hash).  The
#: reduced-scale values are the ones EXPERIMENTS.md prints; a result
#: store and every committed report key on them, so none may move.
_PINNED_HASHES = [
    ("fig4", None, "7d20bb8007d3d685", "7d20bb8007d3d685"),
    ("fig5", None, "c766851bcda780b0", "ce5f98399415e75a"),
    ("fig6", None, "f7034367168ecbd0", "b8ea06dc43f255af"),
    ("fig7", None, "597ed045f2cbb4be", "286b44fbcbc4195c"),
    ("fig8", None, "7703f075cc934721", "7703f075cc934721"),
    ("fig8", 4, "1578e7c9a7e310a4", "1578e7c9a7e310a4"),
    ("fig8", 1, "24c7183ad9b3562d", "24c7183ad9b3562d"),
    ("fig9a", None, "d6f9b38f8dd78ad0", "d6f9b38f8dd78ad0"),
    ("fig9b", None, "2422adda70fbcd95", "3a830af0fcc318b2"),
    ("fig9c", None, "d7aa616dcc42e5c1", "92d0a5be6ba2d91f"),
    ("fig9d", None, "cefe7df2312522fc", "6e07b4633c55c71e"),
    ("fig10", None, "ef79f8af546da109", "769d9b7783d53c0f"),
    ("families", None, "d053baceca0a60c6", "62ded3c8a47d4997"),
    ("multilevel", None, "d7ba1d4b9b720a19", "d7ba1d4b9b720a19"),
]


@pytest.mark.parametrize("paper", [False, True], ids=["reduced", "paper"])
@pytest.mark.parametrize(
    "name, ppn, reduced, paper_hash", _PINNED_HASHES,
    ids=[f"{n}-ppn{p}" if p else n for n, p, *_ in _PINNED_HASHES],
)
def test_named_sweep_hash_is_pinned(
    monkeypatch, paper, name, ppn, reduced, paper_hash
):
    assert {n for n, *_ in _PINNED_HASHES} == set(SWEEPS)
    monkeypatch.setenv("REPRO_PAPER_SCALE", "1" if paper else "0")
    spec = named_sweep(name).with_overrides(ppn=ppn)
    assert spec.spec_hash() == (paper_hash if paper else reduced)


class TestFaultsField:
    """FaultPlan threading: serialisation, hashing, label, point flow."""

    @staticmethod
    def _plan():
        from repro.faults import ArrivalSkew, FaultPlan, Straggler

        return FaultPlan(
            faults=(
                Straggler(rank=0, factor=2.0),
                ArrivalSkew(magnitude=1e-4, pattern="sorted"),
            )
        )

    def test_fault_free_spec_dict_has_no_faults_key(self):
        # Pre-subsystem spec hashes (EXPERIMENTS.md) must stay stable:
        # the key only appears when a plan is set.
        assert "faults" not in small_spec().to_dict()
        assert "faults" not in small_spec().points()[0].to_dict()

    def test_faulted_spec_round_trips(self):
        spec = small_spec(faults=self._plan())
        back = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.spec_hash() == spec.spec_hash()

    def test_plan_changes_spec_hash(self):
        assert (
            small_spec(faults=self._plan()).spec_hash()
            != small_spec().spec_hash()
        )

    def test_plan_flows_into_every_point(self):
        spec = small_spec(faults=self._plan())
        for point in spec.iter_points():
            assert point.faults == self._plan()

    def test_point_round_trips_with_faults(self):
        point = small_spec(faults=self._plan()).points()[0]
        back = SamplePoint.from_dict(json.loads(json.dumps(point.to_dict())))
        assert back == point

    def test_label_names_the_plan(self):
        point = small_spec(faults=self._plan()).points()[0]
        assert self._plan().plan_hash() in point.label()
        assert "faults" not in small_spec().points()[0].label()

    def test_named_sweep_accepts_faults(self):
        spec = named_sweep("fig5", sizes=[1024], faults=self._plan())
        assert spec.faults == self._plan()
        assert (
            spec.spec_hash()
            != named_sweep("fig5", sizes=[1024]).spec_hash()
        )


class TestFidelityField:
    """Fidelity threading: conditional serialisation, hashing, points."""

    def test_exact_spec_dict_has_no_fidelity_key(self):
        # Pre-hybrid spec hashes must stay stable: the key only appears
        # for non-default fidelity, exactly like ``faults``.
        assert "fidelity" not in small_spec().to_dict()
        assert "fidelity" not in small_spec().points()[0].to_dict()
        assert small_spec().points()[0].session_key == ("b", 2, 2)

    def test_hybrid_spec_round_trips(self):
        spec = small_spec(fidelity="hybrid")
        back = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.spec_hash() == spec.spec_hash()

    def test_fidelity_changes_spec_hash(self):
        assert (
            small_spec(fidelity="hybrid").spec_hash()
            != small_spec().spec_hash()
        )

    def test_fidelity_flows_into_every_point(self):
        spec = small_spec(fidelity="hybrid")
        for point in spec.iter_points():
            assert point.fidelity == "hybrid"
            assert point.session_key == ("b", 2, 2, "hybrid")
            assert "hybrid" in point.label()

    def test_point_round_trips_with_fidelity(self):
        point = small_spec(fidelity="hybrid").points()[0]
        back = SamplePoint.from_dict(json.loads(json.dumps(point.to_dict())))
        assert back == point

    def test_unknown_fidelity_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="fidelity"):
            small_spec(fidelity="approximate")

    def test_named_sweep_accepts_fidelity(self):
        spec = named_sweep("fig5", sizes=[1024], fidelity="hybrid")
        assert spec.fidelity == "hybrid"
        assert (
            spec.spec_hash()
            != named_sweep("fig5", sizes=[1024]).spec_hash()
        )

    def test_hybrid_point_runs_and_matches_exact_point(self):
        spec = small_spec(sizes=(1024,), leader_counts=(2,))
        exact_point = spec.points()[0]
        hybrid_point = small_spec(
            sizes=(1024,), leader_counts=(2,), fidelity="hybrid"
        ).points()[0]
        exact = exact_point.run()
        hybrid = hybrid_point.run()
        assert exact > 0.0
        assert hybrid > 0.0
