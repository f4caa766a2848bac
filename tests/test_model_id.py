"""``repro.MODEL_ID`` is the hash of the committed golden literal tables.

The result store keys every point on ``MODEL_ID``, so a change that
moves a simulated number must re-pin its golden literal *and* bump the
constant in the same diff; otherwise a warm store would serve the old
numbers.  The tables hashed are the golden determinism grid, the
golden transport records and the simulated-time records of the golden
counters (latencies, elapsed times and queue waits; not the counters).
"""

import copy

from repro import MODEL_ID, canonical
from tests.bench import test_golden_counters as counters
from tests.mpi import test_golden_determinism as determinism
from tests.mpi import test_transport_golden as transport

#: The simulated-time fields of a golden counters record.
SIM_TIME_KEYS = ("latency", "elapsed", "total_queue_wait")


def _sim_times(record):
    out = {}
    for key, value in record.items():
        if key in SIM_TIME_KEYS:
            out[key] = value
        elif isinstance(value, dict):
            times = _sim_times(value)
            if times:
                out[key] = times
    return out


def golden_tables() -> dict:
    """The golden literals ``MODEL_ID`` digests, as canonical JSON input."""
    return {
        "determinism": {
            "layout": sorted(
                [list(k), v] for k, v in determinism.LAYOUT_ELAPSED.items()
            ),
            "algorithm": determinism.ALGORITHM_ELAPSED,
            "two_leader": determinism.TWO_LEADER_ELAPSED,
            "engine": sorted(
                [[case, list(layout), count], v]
                for (case, layout, count), v
                in determinism.ENGINE_ELAPSED.items()
            ),
            "sharp": sorted(
                [[algorithm, list(layout), count], v]
                for (algorithm, layout, count), v
                in determinism.SHARP_ELAPSED.items()
            ),
            "family": sorted(
                [[kind, algorithm, list(layout), count], v]
                for (kind, algorithm, layout, count), v
                in determinism.FAMILY_ELAPSED.items()
            ),
        },
        "transport": transport.GOLDEN,
        "counters": _sim_times(counters.GOLDEN),
    }


def test_model_id_is_the_hash_of_the_golden_tables():
    assert canonical.sha256(golden_tables()) == MODEL_ID, (
        "a golden literal changed: set repro._version.MODEL_ID to "
        f"{canonical.sha256(golden_tables())!r}"
    )


def test_editing_a_golden_literal_changes_the_hash():
    tables = golden_tables()
    edited = copy.deepcopy(tables)
    edited["counters"]["fig5"]["points"]["b/n4/ppn8/dpml/4096B/l1"][
        "latency"] *= 1.001
    assert canonical.sha256(edited) != canonical.sha256(tables)


def test_counters_contribute_only_simulated_times():
    record = _sim_times(counters.GOLDEN)
    assert record["scale10k"] == {"latency": 3.21536e-05}
    assert set(record["traffic_smoke"]) == {"elapsed", "total_queue_wait"}
    assert "store_fig5" not in record
