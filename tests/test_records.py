"""Every JSON record rejects a malformed document with its typed error.

Each record decodes through :func:`repro.canonical.build`, so an
unknown key at any depth, a missing required field and a document that
is not an object all raise the record's own error, never a bare
``KeyError`` or ``TypeError`` and never silently.
"""

import copy
from dataclasses import replace

import pytest

from repro.bench.spec import SamplePoint, SweepSpec
from repro.errors import ConfigError, FaultError, ReproError, TrafficError
from repro.faults.plan import FaultPlan, Straggler
from repro.machine.clusters import cluster_b
from repro.machine.fattree import FatTreeConfig
from repro.resilience import RecoveryPolicy
from repro.traffic.workload import JobSpec, TrafficTrace


def _spec() -> SweepSpec:
    return SweepSpec(
        name="t", cluster=replace(cluster_b(2), topology=FatTreeConfig()),
        nodes=2, ppn=2, sizes=(1024,),
        faults=FaultPlan(faults=(Straggler(rank=0, factor=2.0),)),
    )


def _set(*path, value=True):
    """Mutation adding ``value`` under ``path`` in the document."""
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


def _drop(*path):
    """Mutation deleting the key at ``path`` from the document."""
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return mutate


SPEC_CASES = {
    "unknown-cluster": _set("cluster", "nodez", value=2),
    "unknown-node": _set("cluster", "node", "socketz", value=2),
    "unknown-topology": _set("cluster", "topology", "spinez", value=2),
    "unknown-fault": _set("faults", "faults", 0, "severity", value=9),
    "missing": _drop("nodes"),
}

#: record, its error, a valid instance, and the broken documents
RECORDS = [
    (SweepSpec, ReproError, _spec(), {
        "unknown": _set("repeat", value=3), **SPEC_CASES,
    }),
    (SamplePoint, ReproError, _spec().points()[0], {
        "unknown": _set("repeats", value=3), **SPEC_CASES,
    }),
    (FaultPlan, FaultError, _spec().faults, {
        "unknown": _set("rety_limit", value=3),
        "unknown-fault": _set("faults", 0, "severity", value=9),
        "missing": _drop("faults", 0, "rank"),
    }),
    (RecoveryPolicy, ConfigError, RecoveryPolicy(), {
        "unknown": _set("retries", value=9),
    }),
    (TrafficTrace, TrafficError, TrafficTrace(jobs=(
        JobSpec(app="osu", arrival=0.0, nodes=2, ppn=4),
    )), {
        "unknown": _set("extra", value=1),
        "unknown-job": _set("jobs", 0, "turbo", value=True),
        "missing": _drop("jobs", 0, "nodes"),
    }),
]

CASES = [
    pytest.param(cls, error, record.to_dict(), mutate, id=f"{cls.__name__}-{name}")
    for cls, error, record, cases in RECORDS
    for name, mutate in cases.items()
]


@pytest.mark.parametrize("cls, error, doc, mutate", CASES)
def test_malformed_document_raises_typed_error(cls, error, doc, mutate):
    doc = copy.deepcopy(doc)
    mutate(doc)
    with pytest.raises(error, match="has unknown field|missing"):
        cls.from_dict(doc)


@pytest.mark.parametrize("cls, error", [
    pytest.param(cls, error, id=cls.__name__) for cls, error, _, _ in RECORDS
])
@pytest.mark.parametrize("doc", [[1, 2], "spec", None])
def test_non_object_raises_typed_error(cls, error, doc):
    with pytest.raises(error, match="must be a JSON object"):
        cls.from_dict(doc)
