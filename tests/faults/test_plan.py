"""FaultPlan schema: validation, JSON round-trip, hashing, CLI."""

import json

import pytest

from repro.errors import FaultError
from repro.faults import (
    ARRIVAL_PATTERNS,
    FAULT_KINDS,
    ArrivalSkew,
    FaultPlan,
    LinkDegrade,
    LinkOutage,
    NodeSlowdown,
    Straggler,
)
from repro.cli import main


def full_plan() -> FaultPlan:
    return FaultPlan(
        faults=(
            Straggler(rank=1, factor=3.0, start=0.0, duration=1e-3),
            ArrivalSkew(magnitude=1e-4, pattern="exponential"),
            LinkDegrade(
                src=0, dst=1, latency_factor=2.0, bandwidth_factor=0.5,
                duration=1e-2,
            ),
            LinkOutage(src=0, dst=1, start=0.0, duration=5e-5),
            NodeSlowdown(node=0, factor=2.0, duration=1e-3),
        )
    )


class TestValidation:
    def test_straggler_rejects_speedup_factor(self):
        with pytest.raises(FaultError):
            Straggler(rank=0, factor=0.5)

    def test_straggler_rejects_negative_rank(self):
        with pytest.raises(FaultError):
            Straggler(rank=-1, factor=2.0)

    def test_negative_start_rejected(self):
        with pytest.raises(FaultError):
            Straggler(rank=0, factor=2.0, start=-1.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(FaultError):
            NodeSlowdown(node=0, factor=2.0, duration=0.0)

    def test_skew_rejects_unknown_pattern(self):
        with pytest.raises(FaultError):
            ArrivalSkew(magnitude=1e-4, pattern="bogus")

    def test_skew_rank_only_for_single(self):
        with pytest.raises(FaultError):
            ArrivalSkew(magnitude=1e-4, pattern="sorted", rank=3)
        ArrivalSkew(magnitude=1e-4, pattern="single", rank=3)  # fine

    def test_degrade_must_degrade_something(self):
        with pytest.raises(FaultError):
            LinkDegrade(src=0, dst=1)

    def test_degrade_bandwidth_factor_range(self):
        with pytest.raises(FaultError):
            LinkDegrade(src=0, dst=1, bandwidth_factor=1.5)
        with pytest.raises(FaultError):
            LinkDegrade(src=0, dst=1, bandwidth_factor=0.0)

    def test_degrade_latency_factor_floor(self):
        with pytest.raises(FaultError):
            LinkDegrade(src=0, dst=1, latency_factor=0.5)

    def test_plan_rejects_non_fault_entries(self):
        with pytest.raises(FaultError):
            FaultPlan(faults=("not a fault",))

    def test_plan_rejects_bad_retry_policy(self):
        with pytest.raises(FaultError):
            FaultPlan(retry_limit=-1)
        with pytest.raises(FaultError):
            FaultPlan(backoff_base=0.0)
        with pytest.raises(FaultError):
            FaultPlan(backoff_base=1e-4, backoff_cap=1e-6)


class TestSerialisation:
    def test_json_round_trip(self):
        plan = full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_round_trip_preserves_hash(self):
        plan = full_plan()
        assert FaultPlan.from_json(plan.to_json()).plan_hash() == plan.plan_hash()

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultPlan.from_dict({"faults": [{"kind": "meteor-strike"}]})

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultError, match="unknown field"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "straggler", "rank": 0, "factor": 2.0,
                             "severity": 9}]}
            )

    def test_unknown_plan_field_rejected(self):
        with pytest.raises(FaultError, match="unknown field"):
            FaultPlan.from_dict({"faults": [], "rety_limit": 3})

    def test_invalid_json_rejected(self):
        with pytest.raises(FaultError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_kind_vocabulary_is_closed(self):
        assert set(FAULT_KINDS) == {
            "straggler", "arrival-skew", "link-degrade", "link-outage",
            "node-slowdown",
        }
        for kind in FAULT_KINDS:
            assert FAULT_KINDS[kind].kind == kind

    def test_hash_differs_for_different_plans(self):
        a = FaultPlan(faults=(Straggler(rank=0, factor=2.0),))
        b = FaultPlan(faults=(Straggler(rank=1, factor=2.0),))
        assert a.plan_hash() != b.plan_hash()

    def test_describe_mentions_every_fault(self):
        text = full_plan().describe()
        for kind in FAULT_KINDS:
            assert kind in text


class TestIntrospection:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert len(plan) == 0
        assert plan.max_rank_referenced() is None
        assert plan.max_node_referenced() is None

    def test_of_kind(self):
        plan = full_plan()
        assert len(plan.of_kind("link-outage")) == 1
        with pytest.raises(FaultError):
            plan.of_kind("nope")

    def test_max_references(self):
        plan = full_plan()
        assert plan.max_rank_referenced() == 1
        assert plan.max_node_referenced() == 1

    def test_arrival_patterns_exported(self):
        assert "sorted" in ARRIVAL_PATTERNS
        assert "exponential" in ARRIVAL_PATTERNS


class TestCli:
    def test_validate_describe_sample(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(full_plan().to_json())
        assert main(["faults", "validate", str(path)]) == 0
        assert main(["faults", "describe", str(path)]) == 0
        assert main([
            "faults", "sample", str(path),
            "--nranks", "8", "--ppn", "4", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "rank   7" in out
        assert "DOWN" in out  # the outage window is visible at t=0

    def test_validate_rejects_bad_plan(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"faults": [{"kind": "meteor-strike"}]}')
        assert main(["faults", "validate", str(path)]) == 2
        assert "invalid fault plan" in capsys.readouterr().err

    def test_validate_missing_file(self, tmp_path, capsys):
        assert main(["faults", "validate", str(tmp_path / "nope.json")]) == 2
        assert "No such file" in capsys.readouterr().err

    def test_example_emits_valid_plans(self, capsys):
        assert main(["faults", "example"]) == 0
        plan = FaultPlan.from_json(capsys.readouterr().out)
        assert len(plan) == len(FAULT_KINDS)
        assert main(["faults", "example", "link-outage"]) == 0
        plan = FaultPlan.from_json(capsys.readouterr().out)
        assert len(plan) == 1

    def test_example_rejects_unknown_kind(self, capsys):
        assert main(["faults", "example", "meteor-strike"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_sample_layout_mismatch(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(
            FaultPlan(faults=(Straggler(rank=64, factor=2.0),)).to_json()
        )
        assert main(["faults", "sample", str(path), "--nranks", "4"]) == 2
        assert "error:" in capsys.readouterr().err
