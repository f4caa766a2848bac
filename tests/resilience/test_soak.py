"""Chaos harness: contract coverage, determinism, CLI."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.resilience.soak import canonical_json, soak


@pytest.fixture(scope="module")
def batch():
    # One shared batch: every mode appears at least once in 6 scenarios.
    return soak(seed=0, scenarios=6)


class TestContract:
    def test_every_scenario_satisfies_recover_or_abort(self, batch):
        assert batch["summary"]["failures"] == 0
        assert batch["summary"]["ok"] == batch["summary"]["total"] == 6

    def test_all_modes_exercised(self, batch):
        modes = {r["mode"] for r in batch["scenarios"]}
        assert modes == {"recover", "disabled", "exhausted"}

    def test_typed_aborts_carry_the_edge(self, batch):
        aborts = [
            r for r in batch["scenarios"] if r["outcome"] == "typed-abort"
        ]
        for r in aborts:
            assert r["error"] == "TransportError"
            assert r["victim"] in r["edge"]
            assert r["attempts"] >= 1

    def test_recovered_scenarios_name_the_victim(self, batch):
        recovered = [
            r for r in batch["scenarios"]
            if r["outcome"] in ("recovered", "recovered-replay")
        ]
        for r in recovered:
            assert r["failovers"] == [r["victim"]]
            assert r["dead_nodes"] == [r["victim"]]


class TestDeterminism:
    def test_same_seed_is_byte_identical(self, batch):
        again = soak(seed=0, scenarios=6)
        assert canonical_json(batch) == canonical_json(again)

    def test_canonical_json_round_trips(self, batch):
        assert json.loads(canonical_json(batch)) == batch

    def test_different_seed_differs(self, batch):
        other = soak(seed=1, scenarios=6)
        assert canonical_json(other) != canonical_json(batch)


class TestValidationErrors:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"nodes": 1}, "at least 2 nodes"),
            ({"scenarios": 0}, "at least 1 scenario"),
            ({"nbytes": -1}, "non-negative"),
        ],
        ids=["one-node", "no-scenarios", "negative-nbytes"],
    )
    def test_bad_batch_rejected(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            soak(**kwargs)


class TestCli:
    def test_soak_writes_canonical_record(self, tmp_path):
        out = tmp_path / "soak.json"
        code = main([
            "resilience", "soak", "--seed", "3", "--scenarios", "3",
            "--output", str(out),
        ])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["seed"] == 3
        assert record["summary"]["failures"] == 0

    def test_policy_round_trip(self, tmp_path, capsys):
        assert main(["resilience", "example"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "policy.json"
        path.write_text(text)
        assert main(["resilience", "validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out
        assert main(["resilience", "describe", str(path)]) == 0
        assert "recovery policy" in capsys.readouterr().out

    def test_validate_missing_file_exits(self, capsys):
        argv = ["resilience", "validate", "/nonexistent/policy.json"]
        assert main(argv) == 2
        assert "No such file" in capsys.readouterr().err
