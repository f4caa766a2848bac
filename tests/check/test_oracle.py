"""Tests for the differential oracle (numpy + cost-model cross-check)."""

import json

import pytest

from repro.check import reports as R
from repro.check.oracle import DEFAULT_BAND, check_allreduce
from repro.check.sanitizer import Sanitizer
from repro.core.model import CostModel
from repro.core.phases import AllreduceAlgorithm
from repro.machine.clusters import cluster_b
from repro.mpi.collectives import registry
from repro.payload import DataPayload
from tests.conftest import PRICED_ALGORITHMS


@pytest.fixture
def broken_allreduce():
    """Register a deliberately wrong allreduce under a test-only name."""

    def broken(comm, payload, op, tag_base=0, **kwargs):
        out = yield from comm.allreduce(
            payload, op, algorithm="recursive_doubling"
        )
        return DataPayload(out.array + 1.0)  # off-by-one everywhere

    registry.register_allreduce(
        AllreduceAlgorithm("_test_broken", broken, exempt="test stub")
    )
    yield "_test_broken"
    del registry._ALLREDUCE["_test_broken"]


class TestNumericDifferential:
    def test_correct_run_is_clean(self):
        outcome = check_allreduce(
            cluster_b(2), "dpml", nranks=8, ppn=4, count=64
        )
        assert outcome.ok
        assert outcome.ratio is not None
        assert DEFAULT_BAND[0] <= outcome.ratio <= DEFAULT_BAND[1]

    def test_wrong_answer_reports_numeric_mismatch(self, broken_allreduce):
        outcome = check_allreduce(
            cluster_b(2), broken_allreduce, nranks=8, ppn=4, count=16
        )
        assert not outcome.ok
        assert [r.kind for r in outcome.reports] == [R.NUMERIC_MISMATCH]
        assert outcome.reports[0].details["rank"] == 0
        assert outcome.predicted is None  # model does not describe it


class TestCostDifferential:
    def test_absurd_band_reports_divergence(self):
        outcome = check_allreduce(
            cluster_b(2), "dpml", nranks=8, ppn=4, count=64,
            band=(1e6, 2e6),
        )
        assert [r.kind for r in outcome.reports] == [R.COST_DIVERGENCE]
        report = outcome.reports[0]
        assert report.details["ratio"] == outcome.ratio
        assert report.details["predicted"] == outcome.predicted

    def test_partial_last_node_skips_cost_check(self):
        outcome = check_allreduce(
            cluster_b(3), "dpml", nranks=10, ppn=4, count=64,
            band=(1e6, 2e6),  # would trip if the check ran
        )
        assert outcome.ok
        assert outcome.predicted is None

    def test_shared_sanitizer_accumulates_across_runs(self):
        sanitizer = Sanitizer(strict=False)
        for count in (16, 64):
            check_allreduce(
                cluster_b(2), "dpml", nranks=8, ppn=4, count=count,
                band=(1e6, 2e6), sanitizer=sanitizer,
            )
        assert len(sanitizer.by_kind(R.COST_DIVERGENCE)) == 2

    @pytest.mark.parametrize("algorithm", PRICED_ALGORITHMS)
    def test_every_predictable_algorithm_within_default_band(self, algorithm):
        outcome = check_allreduce(
            cluster_b(2), algorithm, nranks=8, ppn=4, count=256
        )
        assert outcome.ok, (algorithm, [str(r) for r in outcome.reports])
        assert outcome.ratio is not None, algorithm


class TestPredictAllreduce:
    def test_hierarchical_is_single_leader_dpml(self):
        model = CostModel(a=1e-6, b=1e-9, a_shm=1e-7, b_shm=1e-10, c=1e-10)
        assert model.predict_allreduce(
            "hierarchical", p=16, h=4, n=1024
        ) == model.t_dpml(16, 4, 1, 1024)

    def test_dpml_default_leaders_clamped_to_ppn(self):
        model = CostModel(a=1e-6, b=1e-9, a_shm=1e-7, b_shm=1e-10, c=1e-10)
        # ppn = 2 < default 4 leaders -> l = 2
        assert model.predict_allreduce(
            "dpml", p=8, h=4, n=1024
        ) == model.t_dpml(8, 4, 2, 1024)

    def test_one_rank_per_node_degenerates_to_flat(self):
        model = CostModel(a=1e-6, b=1e-9, a_shm=1e-7, b_shm=1e-10, c=1e-10)
        assert model.predict_allreduce(
            "dpml", p=4, h=4, n=1024
        ) == model.t_recursive_doubling(4, 1024)

    def test_undescribed_algorithms_return_none(self):
        model = CostModel(a=1e-6, b=1e-9, a_shm=1e-7, b_shm=1e-10, c=1e-10)
        for name in ("ring", "mvapich2", "sharp_node_leader", "adaptive"):
            assert model.predict_allreduce(name, p=16, h=4, n=1024) is None


class TestCheckCli:
    def test_oracle_only_run_is_clean(self, capsys):
        from repro.check.cli import main

        assert main(["--skip-validate", "--counts", "64"]) == 0
        out = capsys.readouterr().out
        assert "0 divergent" in out

    def test_json_report_written(self, tmp_path, capsys):
        from repro.check.cli import main

        path = tmp_path / "findings.json"
        code = main(
            ["--skip-validate", "--counts", "16", "--json", str(path)]
        )
        assert code == 0
        findings = json.loads(path.read_text())
        assert findings["validate"] is None
        assert all(case["ok"] for case in findings["oracle"])

    def test_absurd_band_fails_with_nonzero_exit(self, capsys):
        from repro.check.cli import main

        assert main(
            ["--skip-validate", "--counts", "64", "--band", "1e6,2e6"]
        ) == 1
        captured = capsys.readouterr()
        assert "cost-model-divergence" in captured.err
        assert "divergent" in captured.out

    def test_bad_band_rejected(self):
        from repro.check.cli import main

        with pytest.raises(SystemExit):
            main(["--band", "nonsense"])
