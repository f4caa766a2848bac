"""RecoveryPolicy schema: round-trip, validation, hashing, coercion."""

import pytest

from repro.errors import ConfigError
from repro.resilience import RecoveryManager, RecoveryPolicy, as_manager


class TestRoundTrip:
    def test_default_round_trips_through_json(self):
        policy = RecoveryPolicy()
        assert RecoveryPolicy.from_json(policy.to_json()) == policy

    def test_custom_round_trips(self):
        policy = RecoveryPolicy(
            max_failovers=3, suspect_after=2, restart_latency=1e-3,
            heartbeat_timeout=1e-2, fallback_algorithm="ring",
        )
        assert RecoveryPolicy.from_dict(policy.to_dict()) == policy

    def test_load(self, tmp_path):
        path = tmp_path / "policy.json"
        policy = RecoveryPolicy(max_failovers=2)
        path.write_text(policy.to_json())
        assert RecoveryPolicy.load(str(path)) == policy

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="recovery policy has unknown field"):
            RecoveryPolicy.from_dict({"max_failovers": 1, "retries": 9})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            RecoveryPolicy.from_dict([1, 2])

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            RecoveryPolicy.from_json("{nope")


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_failovers": -1},
            {"suspect_after": 0},
            {"restart_latency": -1e-6},
            {"heartbeat_timeout": 0.0},
            {"fallback_algorithm": ""},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RecoveryPolicy(**kwargs)


class TestHash:
    def test_hash_is_stable_and_content_addressed(self):
        a = RecoveryPolicy()
        b = RecoveryPolicy()
        c = RecoveryPolicy(max_failovers=2)
        assert a.policy_hash() == b.policy_hash()
        assert a.policy_hash() != c.policy_hash()
        assert len(a.policy_hash()) == 12

    def test_describe_mentions_hash_and_fallback(self):
        policy = RecoveryPolicy(fallback_algorithm="ring")
        text = policy.describe()
        assert policy.policy_hash() in text
        assert "ring" in text


class TestAsManager:
    def test_none_passes_through(self):
        assert as_manager(None) is None

    def test_true_builds_default_manager(self):
        manager = as_manager(True)
        assert isinstance(manager, RecoveryManager)
        assert manager.policy == RecoveryPolicy()

    def test_policy_wrapped(self):
        policy = RecoveryPolicy(max_failovers=2)
        assert as_manager(policy).policy is policy

    def test_disabled_policy_normalises_to_none(self):
        assert as_manager(RecoveryPolicy(enabled=False)) is None
        manager = RecoveryManager(RecoveryPolicy(enabled=False))
        assert as_manager(manager) is None

    def test_manager_passes_through(self):
        manager = RecoveryManager()
        assert as_manager(manager) is manager

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError, match="recovery must be"):
            as_manager("yes please")
