"""Serialisation goldens: the hashes every JSON record feeds.

Spec hashes name the EXPERIMENTS.md tables, point hashes key the result
store, and fault-plan, recovery-policy and traffic-trace hashes tag the
records that carry them.  Each literal below is the hash of one record's
canonical JSON; a change to how any record serialises moves one of
them.  No store key is pinned here, because a store key also embeds
``MODEL_ID``.
"""

from repro import canonical
from repro.bench.spec import SweepSpec
from repro.cli import _FAULT_EXAMPLES
from repro.faults.plan import FaultPlan, LinkDegrade, Straggler
from repro.machine.config import (
    FabricConfig,
    MachineConfig,
    NodeConfig,
    SharpConfig,
)
from repro.machine.fattree import FatTreeConfig
from repro.resilience import RecoveryPolicy
from repro.traffic.workload import poisson_trace


def golden_spec() -> SweepSpec:
    """A hybrid, faulted sweep with a keyword on an inline fat-tree
    cluster with SHArP: every optional part of the spec schema."""
    cluster = MachineConfig(
        name="custom",
        nodes=2,
        node=NodeConfig(sockets=2, cores_per_socket=2, reduce_byte_time=4e-10),
        fabric=FabricConfig(name="edr", wire_latency=1.1e-6, pio_byte_time=1e-10),
        sharp=SharpConfig(radix=8, streaming=True),
        placement="bunch",
        topology=FatTreeConfig(nodes_per_leaf=1, spines=2),
    )
    faults = FaultPlan(
        faults=(
            Straggler(rank=1, factor=2.0, duration=1e-3),
            LinkDegrade(dst=1, latency_factor=2.0),
        )
    )
    return SweepSpec(
        name="golden", cluster=cluster, nodes=2, ppn=4,
        sizes=(64, 1024, 4096, 65536), algorithms=("generalized",),
        repeats=2, sigma=0.05, base_seed=3, extra=(("radices", (2, 4)),),
        faults=faults, fidelity="hybrid",
    )


def test_fault_example_plan_hash():
    examples = [_FAULT_EXAMPLES[kind] for kind in sorted(_FAULT_EXAMPLES)]
    assert FaultPlan.from_dict({"faults": examples}).plan_hash() == "e3e8f842157b"


def test_recovery_policy_hashes():
    assert RecoveryPolicy().policy_hash() == "7a8ca794ed09"
    custom = RecoveryPolicy(
        enabled=False, max_failovers=2, restart_latency=1e-3,
        fallback_algorithm="ring",
    )
    assert custom.policy_hash() == "240123aa9ea8"


def test_poisson_trace_hash():
    assert poisson_trace(jobs=12, rate=2e4, seed=5).trace_hash() == "b668a5b0a4f2"


def test_spec_full_hash():
    assert golden_spec().full_hash() == (
        "9e202ddffc9166410a98316704ffa0eb720ed31ea0286e0277470d5a2140c167"
    )


def test_point_hashes():
    assert [canonical.sha256(p.to_dict()) for p in golden_spec().points()] == [
        "770c8a9d6d8d5ddaf0bba42c4d2a02e35ebc6d0fe356de5fd26d5b5ae51a5407",
        "fbc956e7a7252744d8285d06922d968a44209a3f1faf6493741d15b8750c3d17",
        "469a87fdcc422da1b8d6d0dd84d1490c3ee4355051daf8765227157e9cb602d2",
        "0e77aa8bcc3d804147dea43b4283692eb10c90fc88c24225ef70327eb47c727f",
        "bdb5c0bb3bfd073e3d656374d8459630c5ec9096d9f42c5de544248986e3e1fa",
        "253a5446243caa1576f3fbe900607e4ef47f537b34c71b94c037383a47bb46a6",
        "d65d8bf886b669af149ec8b7c4713fc7f921a929a752246421352f4dff33ea59",
        "d270d248ef2850a363eec92729b751e33bbfe9eb13b521aeacd59ab66605560b",
    ]
