"""Golden traffic runs: the canonical ``TrafficResult`` bytes, pinned.

Each scenario runs ``poisson_trace(jobs=8, rate=2e4, seed=3)`` on an
8-node Cluster A and compares the sha256 of
:meth:`~repro.traffic.metering.TrafficResult.to_canonical_json` with a
committed digest.  The scenarios cover a two-leaf fat tree under
``spread`` placement, the same tree under ``packed`` placement with a
degraded link and a slowed node, and the flat fabric under seeded
``random`` placement.  Every scheduled start and finish, every counter
and every scraper sample is in the digest, so a refactor of the
machine, the fabric or the scheduler that moves any of them fails here.
Run the file under ``REPRO_SANITIZE=1`` too; the sanitizer must not
move a byte.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.faults.plan import FaultPlan
from repro.machine.clusters import get_cluster
from repro.machine.fattree import FatTreeConfig
from repro.traffic import poisson_trace, run_traffic

TREED = dataclasses.replace(
    get_cluster("a", 8), topology=FatTreeConfig(nodes_per_leaf=4, spines=2)
)

FAULTS = FaultPlan.from_dict(
    {
        "faults": [
            {
                "kind": "link-degrade", "src": 0, "dst": 5,
                "latency_factor": 2.0, "bandwidth_factor": 0.25,
            },
            {"kind": "node-slowdown", "node": 2, "factor": 4.0},
        ]
    }
)

SCENARIOS = {
    "treed-spread": (
        dict(config=TREED, placement="spread"),
        "a04b7f412e7f0431cb79630b3e81d1f4da192a65cba0d153c70b93e0408bc78a",
    ),
    "treed-packed-faults": (
        dict(config=TREED, placement="packed", faults=FAULTS, fault_seed=4),
        "0f4f9a957fe1361e21803084f401d58edbbb0e256d6c25027545a50035d1d62e",
    ),
    "flat-random": (
        dict(config=get_cluster("a", 8), placement="random", seed=5),
        "57b5ff9d3502d47edfedc84c104b44e9b8c02ee18e827467cc3de90497b93c2c",
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_traffic_digest(name):
    kwargs, digest = SCENARIOS[name]
    result = run_traffic(poisson_trace(jobs=8, rate=2e4, seed=3), **kwargs)
    observed = hashlib.sha256(result.to_canonical_json().encode()).hexdigest()
    assert observed == digest, f"{name}: observed digest {observed}"
