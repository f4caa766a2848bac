"""Golden counters: every deterministic value of the fast paths, pinned.

Each scenario runs here directly and its observed record must equal the
committed :data:`GOLDEN` entry exactly:

* ``fig4``/``fig5``/``fig9``/``fig10`` — small figure-shaped points
  (real numpy data), each on a fresh session: DPML on clusters A, B
  and D, and the MVAPICH2, Intel MPI and tuned DPML allreduces on the
  Omni-Path clusters C and D.  The latency, the kernel and payload
  counters of the fast paths (zero-delay entries, event pools,
  copy-on-write views), and their totals.
* ``scale10k``/``scale50k``/``scale100k`` — hybrid-fidelity DPML jobs
  at 10k-100k ranks on scaled cluster B, each on a fresh session: the
  kernel and payload counters, and how many queues and matchers the job
  built.
* ``store_fig5`` — a fig5-shaped sweep run cold then warm through a
  throwaway result store.
* ``traffic_smoke`` — a tiny Poisson tenant stream on a fresh shared
  fabric, then on a reused one.

Fresh sessions keep the counters reproducible: event pools survive a
session reset, so a reused session's ``events_allocated`` would depend
on history.  Host wall time is never asserted.

When a change shifts a counter on purpose, copy the observed record
printed by the failing test into :data:`GOLDEN` and say why in the
change description.  The floors and identities checked by the other
tests (fig5 savings against the frozen seed totals, fleet launch at
scale, warm store, traffic replay) hold whatever the table says.
"""

from __future__ import annotations

import dataclasses
import pprint
import tempfile

import pytest

from repro.bench.executor import SerialExecutor
from repro.bench.harness import allreduce_latency
from repro.bench.spec import SweepSpec
from repro.bench.store import ResultStore
from repro.machine.clusters import get_cluster, scaled_cluster
from repro.machine.fattree import FatTreeConfig
from repro.mpi.runtime import SimSession
from repro.payload.payload import payload_counters, reset_payload_counters
from repro.traffic.fabric import SharedFabric
from repro.traffic.runner import run_traffic
from repro.traffic.workload import poisson_trace

KERNEL_KEYS = (
    "events_allocated",
    "heap_pushes",
    "heap_pops",
    "nowq_entries",
    "pool_reuses",
)
SCALE_KERNEL_KEYS = KERNEL_KEYS + ("macro_events", "pool_evictions")
PAYLOAD_KEYS = ("bytes_copied", "bytes_viewed", "bytes_reduced")
#: The machine's per-rank and per-node queue tables, built on first use.
QUEUE_TABLES = ("engine", "nic_tx", "nic_rx", "mem")

#: fig5 floors on the seed/fast ratios: the fast paths must allocate
#: at least 3x fewer events and copy at least 5x fewer payload bytes
#: than the seed's heap-only kernel and copy-always payloads did.
MIN_EVENTS_RATIO = 3.0
MIN_BYTES_COPIED_RATIO = 5.0

#: The fig5 grid's totals as the seed ran it (heap-only kernel,
#: copy-always payloads), frozen: the denominators of the floors.
SEED_FIG5_TOTALS = {"events_allocated": 51272, "bytes_copied": 60555264}

#: Figure-shaped grids on 4 nodes x 8 ppn:
#: (cluster, algorithm, nbytes, leaders, iterations).
GRIDS = {
    "fig4": tuple(
        ("a", "dpml", nbytes, leaders, 2)
        for nbytes in (4096, 65536)
        for leaders in (1, 4)
    ),
    "fig5": tuple(
        ("b", "dpml", nbytes, leaders, 2)
        for nbytes in (4096, 65536)
        for leaders in (1, 2, 4, 8)
    ),
    "fig9": tuple(
        (cluster, algorithm, nbytes, None, 1)
        for cluster in ("c", "d")
        for algorithm in ("mvapich2", "intel_mpi", "dpml_tuned")
        for nbytes in (16384, 262144)
    ),
    "fig10": tuple(
        ("d", "dpml_tuned", nbytes, None, 1) for nbytes in (16384, 262144)
    ),
}

#: Hybrid scale jobs on cluster B at ppn 8: (nodes, algorithm, nbytes).
SCALE = {
    "scale10k": (1250, "dpml", 4096),
    "scale50k": (6250, "dpml", 65536),
    "scale100k": (12500, "dpml_pipelined", 65536),
}

#: Every deterministic value the scenarios produce; wall time excluded.
GOLDEN = {
    "fig4": {
        "points": {
            "a/n4/ppn8/dpml/4096B/l1": {
                "latency": 2.2667359999999962e-05,
                "fast": {
                    "events_allocated": 262, "heap_pushes": 664,
                    "heap_pops": 664, "nowq_entries": 809, "pool_reuses": 787,
                    "bytes_copied": 0, "bytes_viewed": 294912,
                    "bytes_reduced": 98304,
                },
            },
            "a/n4/ppn8/dpml/4096B/l4": {
                "latency": 1.3492800000000014e-05,
                "fast": {
                    "events_allocated": 369, "heap_pushes": 1840,
                    "heap_pops": 1840, "nowq_entries": 1673,
                    "pool_reuses": 2384, "bytes_copied": 32768,
                    "bytes_viewed": 262144, "bytes_reduced": 98304,
                },
            },
            "a/n4/ppn8/dpml/65536B/l1": {
                "latency": 0.0002514164800000001,
                "fast": {
                    "events_allocated": 326, "heap_pushes": 872,
                    "heap_pops": 872, "nowq_entries": 1097,
                    "pool_reuses": 1011, "bytes_copied": 786432,
                    "bytes_viewed": 5505024, "bytes_reduced": 917504,
                },
            },
            "a/n4/ppn8/dpml/65536B/l4": {
                "latency": 0.0001060556799999999,
                "fast": {
                    "events_allocated": 498, "heap_pushes": 2160,
                    "heap_pops": 2160, "nowq_entries": 2313,
                    "pool_reuses": 2767, "bytes_copied": 1310720,
                    "bytes_viewed": 4980736, "bytes_reduced": 917504,
                },
            },
        },
        "totals": {
            "fast": {
                "events_allocated": 1455, "heap_pushes": 5536,
                "heap_pops": 5536, "nowq_entries": 5892, "pool_reuses": 6949,
                "bytes_copied": 2129920, "bytes_viewed": 11042816,
                "bytes_reduced": 2031616,
            },
        },
    },
    "fig5": {
        "points": {
            "b/n4/ppn8/dpml/4096B/l1": {
                "latency": 2.2667359999999962e-05,
                "fast": {
                    "events_allocated": 262, "heap_pushes": 664,
                    "heap_pops": 664, "nowq_entries": 809, "pool_reuses": 787,
                    "bytes_copied": 0, "bytes_viewed": 294912,
                    "bytes_reduced": 98304,
                },
            },
            "b/n4/ppn8/dpml/4096B/l2": {
                "latency": 1.5566880000000017e-05,
                "fast": {
                    "events_allocated": 297, "heap_pushes": 1056,
                    "heap_pops": 1056, "nowq_entries": 1097,
                    "pool_reuses": 1320, "bytes_copied": 32768,
                    "bytes_viewed": 262144, "bytes_reduced": 98304,
                },
            },
            "b/n4/ppn8/dpml/4096B/l4": {
                "latency": 1.3492800000000014e-05,
                "fast": {
                    "events_allocated": 369, "heap_pushes": 1840,
                    "heap_pops": 1840, "nowq_entries": 1673,
                    "pool_reuses": 2384, "bytes_copied": 32768,
                    "bytes_viewed": 262144, "bytes_reduced": 98304,
                },
            },
            "b/n4/ppn8/dpml/4096B/l8": {
                "latency": 1.4580160000000014e-05,
                "fast": {
                    "events_allocated": 513, "heap_pushes": 3408,
                    "heap_pops": 3408, "nowq_entries": 2825,
                    "pool_reuses": 4512, "bytes_copied": 32768,
                    "bytes_viewed": 262144, "bytes_reduced": 98304,
                },
            },
            "b/n4/ppn8/dpml/65536B/l1": {
                "latency": 0.0002514164800000001,
                "fast": {
                    "events_allocated": 326, "heap_pushes": 872,
                    "heap_pops": 872, "nowq_entries": 1097,
                    "pool_reuses": 1011, "bytes_copied": 786432,
                    "bytes_viewed": 5505024, "bytes_reduced": 917504,
                },
            },
            "b/n4/ppn8/dpml/65536B/l2": {
                "latency": 0.00014921903999999997,
                "fast": {
                    "events_allocated": 362, "heap_pushes": 1216,
                    "heap_pops": 1216, "nowq_entries": 1417,
                    "pool_reuses": 1511, "bytes_copied": 1310720,
                    "bytes_viewed": 4980736, "bytes_reduced": 917504,
                },
            },
            "b/n4/ppn8/dpml/65536B/l4": {
                "latency": 0.0001060556799999999,
                "fast": {
                    "events_allocated": 498, "heap_pushes": 2160,
                    "heap_pops": 2160, "nowq_entries": 2313,
                    "pool_reuses": 2767, "bytes_copied": 1310720,
                    "bytes_viewed": 4980736, "bytes_reduced": 917504,
                },
            },
            "b/n4/ppn8/dpml/65536B/l8": {
                "latency": 8.988256000000007e-05,
                "fast": {
                    "events_allocated": 513, "heap_pushes": 3408,
                    "heap_pops": 3408, "nowq_entries": 2825,
                    "pool_reuses": 4512, "bytes_copied": 524288,
                    "bytes_viewed": 4194304, "bytes_reduced": 1572864,
                },
            },
        },
        "totals": {
            "fast": {
                "events_allocated": 3140, "heap_pushes": 14624,
                "heap_pops": 14624, "nowq_entries": 14056,
                "pool_reuses": 18804, "bytes_copied": 4030464,
                "bytes_viewed": 20742144, "bytes_reduced": 4718592,
            },
        },
    },
    "fig9": {
        "points": {
            "c/n4/ppn8/mvapich2/16384B/tuned": {
                "latency": 6.158847999999995e-05,
                "fast": {
                    "events_allocated": 262, "heap_pushes": 664,
                    "heap_pops": 664, "nowq_entries": 809, "pool_reuses": 787,
                    "bytes_copied": 0, "bytes_viewed": 1179648,
                    "bytes_reduced": 393216,
                },
            },
            "c/n4/ppn8/mvapich2/262144B/tuned": {
                "latency": 0.0006646228799999988,
                "fast": {
                    "events_allocated": 330, "heap_pushes": 1064,
                    "heap_pops": 1064, "nowq_entries": 1257,
                    "pool_reuses": 1199, "bytes_copied": 3145728,
                    "bytes_viewed": 22020096, "bytes_reduced": 3670016,
                },
            },
            "c/n4/ppn8/intel_mpi/16384B/tuned": {
                "latency": 3.763648e-05,
                "fast": {
                    "events_allocated": 1534, "heap_pushes": 4048,
                    "heap_pops": 4048, "nowq_entries": 5768,
                    "pool_reuses": 4642, "bytes_copied": 2031616,
                    "bytes_viewed": 2031616, "bytes_reduced": 1015808,
                },
            },
            "c/n4/ppn8/intel_mpi/262144B/tuned": {
                "latency": 0.00044507928000000417,
                "fast": {
                    "events_allocated": 8194, "heap_pushes": 24016,
                    "heap_pops": 24016, "nowq_entries": 29784,
                    "pool_reuses": 27934, "bytes_copied": 16777216,
                    "bytes_viewed": 16777216, "bytes_reduced": 16252928,
                },
            },
            "c/n4/ppn8/dpml_tuned/16384B/tuned": {
                "latency": 2.8615520000000046e-05,
                "fast": {
                    "events_allocated": 513, "heap_pushes": 3408,
                    "heap_pops": 3408, "nowq_entries": 2825,
                    "pool_reuses": 4512, "bytes_copied": 131072,
                    "bytes_viewed": 1048576, "bytes_reduced": 393216,
                },
            },
            "c/n4/ppn8/dpml_tuned/262144B/tuned": {
                "latency": 0.0002835881599999998,
                "fast": {
                    "events_allocated": 1634, "heap_pushes": 5584,
                    "heap_pops": 5584, "nowq_entries": 7113,
                    "pool_reuses": 7039, "bytes_copied": 7340032,
                    "bytes_viewed": 22020096, "bytes_reduced": 3670016,
                },
            },
            "d/n4/ppn8/mvapich2/16384B/tuned": {
                "latency": 0.00011708407040000017,
                "fast": {
                    "events_allocated": 262, "heap_pushes": 664,
                    "heap_pops": 664, "nowq_entries": 809, "pool_reuses": 787,
                    "bytes_copied": 0, "bytes_viewed": 1179648,
                    "bytes_reduced": 393216,
                },
            },
            "d/n4/ppn8/mvapich2/262144B/tuned": {
                "latency": 0.0012534403583999974,
                "fast": {
                    "events_allocated": 330, "heap_pushes": 1064,
                    "heap_pops": 1064, "nowq_entries": 1257,
                    "pool_reuses": 1199, "bytes_copied": 3145728,
                    "bytes_viewed": 22020096, "bytes_reduced": 3670016,
                },
            },
            "d/n4/ppn8/intel_mpi/16384B/tuned": {
                "latency": 6.272927360000013e-05,
                "fast": {
                    "events_allocated": 1526, "heap_pushes": 4048,
                    "heap_pops": 4048, "nowq_entries": 5768,
                    "pool_reuses": 4650, "bytes_copied": 2031616,
                    "bytes_viewed": 2031616, "bytes_reduced": 1015808,
                },
            },
            "d/n4/ppn8/intel_mpi/262144B/tuned": {
                "latency": 0.0007065284607999987,
                "fast": {
                    "events_allocated": 8194, "heap_pushes": 24016,
                    "heap_pops": 24016, "nowq_entries": 29784,
                    "pool_reuses": 27934, "bytes_copied": 16777216,
                    "bytes_viewed": 16777216, "bytes_reduced": 16252928,
                },
            },
            "d/n4/ppn8/dpml_tuned/16384B/tuned": {
                "latency": 4.67635839999998e-05,
                "fast": {
                    "events_allocated": 513, "heap_pushes": 3408,
                    "heap_pops": 3408, "nowq_entries": 2825,
                    "pool_reuses": 4512, "bytes_copied": 131072,
                    "bytes_viewed": 1048576, "bytes_reduced": 393216,
                },
            },
            "d/n4/ppn8/dpml_tuned/262144B/tuned": {
                "latency": 0.00046994608000000136,
                "fast": {
                    "events_allocated": 1634, "heap_pushes": 5584,
                    "heap_pops": 5584, "nowq_entries": 7113,
                    "pool_reuses": 7039, "bytes_copied": 7340032,
                    "bytes_viewed": 22020096, "bytes_reduced": 3670016,
                },
            },
        },
        "totals": {
            "fast": {
                "events_allocated": 24926, "heap_pushes": 77568,
                "heap_pops": 77568, "nowq_entries": 95112,
                "pool_reuses": 92234, "bytes_copied": 58851328,
                "bytes_viewed": 130154496, "bytes_reduced": 50790400,
            },
        },
    },
    "fig10": {
        "points": {
            "d/n4/ppn8/dpml_tuned/16384B/tuned": {
                "latency": 4.67635839999998e-05,
                "fast": {
                    "events_allocated": 513, "heap_pushes": 3408,
                    "heap_pops": 3408, "nowq_entries": 2825,
                    "pool_reuses": 4512, "bytes_copied": 131072,
                    "bytes_viewed": 1048576, "bytes_reduced": 393216,
                },
            },
            "d/n4/ppn8/dpml_tuned/262144B/tuned": {
                "latency": 0.00046994608000000136,
                "fast": {
                    "events_allocated": 1634, "heap_pushes": 5584,
                    "heap_pops": 5584, "nowq_entries": 7113,
                    "pool_reuses": 7039, "bytes_copied": 7340032,
                    "bytes_viewed": 22020096, "bytes_reduced": 3670016,
                },
            },
        },
        "totals": {
            "fast": {
                "events_allocated": 2147, "heap_pushes": 8992,
                "heap_pops": 8992, "nowq_entries": 9938, "pool_reuses": 11551,
                "bytes_copied": 7471104, "bytes_viewed": 23068672,
                "bytes_reduced": 4063232,
            },
        },
    },
    "scale10k": {
        "point": "b-x1250/ppn8/dpml/4096B/hybrid",
        "nranks": 10000,
        "latency": 3.21536e-05,
        "counters": {
            "events_allocated": 3, "heap_pushes": 3, "heap_pops": 3,
            "nowq_entries": 2, "pool_reuses": 1, "macro_events": 3,
            "pool_evictions": 0, "bytes_copied": 0, "bytes_viewed": 0,
            "bytes_reduced": 0,
        },
        "built": {
            "engine": 0, "nic_tx": 0, "nic_rx": 0, "mem": 0, "matchers": 0,
        },
    },
    "scale50k": {
        "point": "b-x6250/ppn8/dpml/65536B/hybrid",
        "nranks": 50000,
        "latency": 0.0002607872,
        "counters": {
            "events_allocated": 3, "heap_pushes": 3, "heap_pops": 3,
            "nowq_entries": 2, "pool_reuses": 1, "macro_events": 3,
            "pool_evictions": 0, "bytes_copied": 0, "bytes_viewed": 0,
            "bytes_reduced": 0,
        },
        "built": {
            "engine": 0, "nic_tx": 0, "nic_rx": 0, "mem": 0, "matchers": 0,
        },
    },
    "scale100k": {
        "point": "b-x12500/ppn8/dpml_pipelined/65536B/hybrid",
        "nranks": 100000,
        "latency": 0.00027795200000000004,
        "counters": {
            "events_allocated": 3, "heap_pushes": 3, "heap_pops": 3,
            "nowq_entries": 2, "pool_reuses": 1, "macro_events": 3,
            "pool_evictions": 0, "bytes_copied": 0, "bytes_viewed": 0,
            "bytes_reduced": 0,
        },
        "built": {
            "engine": 0, "nic_tx": 0, "nic_rx": 0, "mem": 0, "matchers": 0,
        },
    },
    "store_fig5": {
        "spec_hash": "26342af318062da2",
        "n_points": 8,
        "cold": {"hits": 0, "misses": 8, "stored": 8},
        "warm": {"hits": 8, "misses": 0, "stored": 0},
        "warm_executed": 0,
        "warm_hit_ratio": 1.0,
        "byte_identical": True,
    },
    "traffic_smoke": {
        "trace_hash": "e8d54a9e1072",
        "n_jobs": 6,
        "nodes": 4,
        "placement": "spread",
        "elapsed": 0.0011060729100000007,
        "n_samples": 12,
        "total_queue_wait": 0.00120545642,
        "fresh": {
            "events_allocated": 648, "heap_pushes": 7034, "heap_pops": 7034,
            "nowq_entries": 4409, "pool_reuses": 8939, "pool_evictions": 0,
            "macro_events": 0,
        },
        "reused": {
            "events_allocated": 608, "heap_pushes": 7034, "heap_pops": 7034,
            "nowq_entries": 4409, "pool_reuses": 8979, "pool_evictions": 0,
            "macro_events": 0,
        },
        "byte_identical": True,
    },
}


def _label(cluster, algorithm, nbytes, leaders) -> str:
    lead = "tuned" if leaders is None else f"l{leaders}"
    return f"{cluster}/n4/ppn8/{algorithm}/{nbytes}B/{lead}"


def _measure(cluster, algorithm, nbytes, leaders, iterations):
    """One fig point on a fresh session: (latency, counters)."""
    reset_payload_counters()
    try:
        config = get_cluster(cluster, 4)
        session = SimSession(config, 32, ppn=8)
        kwargs = {} if leaders is None else {"leaders": leaders}
        latency = allreduce_latency(
            config, algorithm, nbytes, ppn=8, iterations=iterations,
            warmup=1, validate=True, session=session, **kwargs,
        )
        kernel = session.machine.sim.counters()
        payload = payload_counters()
    finally:
        reset_payload_counters()
    counters = {k: kernel[k] for k in KERNEL_KEYS}
    counters.update((k, payload[k]) for k in PAYLOAD_KEYS)
    return latency, counters


def _run_grid(name: str):
    """Observed record of one fig grid."""
    points = {}
    totals = dict.fromkeys(KERNEL_KEYS + PAYLOAD_KEYS, 0)
    for cluster, algorithm, nbytes, leaders, iterations in GRIDS[name]:
        label = _label(cluster, algorithm, nbytes, leaders)
        latency, fast = _measure(
            cluster, algorithm, nbytes, leaders, iterations
        )
        points[label] = {"latency": latency, "fast": fast}
        for key, value in fast.items():
            totals[key] += value
    return {"points": points, "totals": {"fast": totals}}


def _run_scale(name: str):
    """Observed record of one hybrid scale job, plus the fleet and exact
    fallbacks its runtime counted."""
    nodes, algorithm, nbytes = SCALE[name]
    reset_payload_counters()
    try:
        config = scaled_cluster("b", nodes)
        session = SimSession(config, nodes * 8, ppn=8, fidelity="hybrid")
        latency = allreduce_latency(
            config, algorithm, nbytes, ppn=8, iterations=1, warmup=1,
            session=session, fidelity="hybrid",
        )
        kernel = session.machine.sim.counters()
        payload = payload_counters()
    finally:
        reset_payload_counters()
    counters = {k: kernel[k] for k in SCALE_KERNEL_KEYS}
    counters.update((k, payload[k]) for k in PAYLOAD_KEYS)
    runtime = session.runtime
    built = {name: len(getattr(session.machine, name)) for name in QUEUE_TABLES}
    built["matchers"] = len(runtime.transport.matchers)
    record = {
        "point": f"b-x{nodes}/ppn8/{algorithm}/{nbytes}B/hybrid",
        "nranks": nodes * 8,
        "latency": latency,
        "counters": counters,
        "built": built,
    }
    return record, (
        runtime.hybrid_fleet_fallbacks, runtime.hybrid_exact_fallbacks
    )


def _run_store():
    """Cold then warm pass of the fig5-shaped sweep through one store."""
    spec = SweepSpec(
        name="perf-store-fig5",
        cluster="b",
        nodes=4,
        ppn=8,
        sizes=(4096, 65536),
        algorithms=("dpml",),
        leader_counts=(1, 2, 4, 8),
        iterations=2,
    )
    executor = SerialExecutor()
    with tempfile.TemporaryDirectory(prefix="repro-golden-store-") as tmp:
        store = ResultStore(tmp)
        cold = executor.run(spec, store=store)
        warm = executor.run(spec, store=store)
    n = cold.meta["n_points"]
    passes = {
        name: {k: run.meta["store"][k] for k in ("hits", "misses", "stored")}
        for name, run in (("cold", cold), ("warm", warm))
    }
    return {
        "spec_hash": spec.spec_hash(),
        "n_points": n,
        **passes,
        "warm_executed": passes["warm"]["misses"],
        "warm_hit_ratio": round(passes["warm"]["hits"] / n, 4),
        "byte_identical": (
            cold.to_json(include_meta=False)
            == warm.to_json(include_meta=False)
        ),
    }


def _run_traffic():
    """The tiny Poisson stream on a fresh fabric, then on a reused one."""
    trace = poisson_trace(jobs=6, rate=3e4, seed=11)
    config = dataclasses.replace(
        get_cluster("a", max(1, 2 * trace.max_nodes())),
        topology=FatTreeConfig(nodes_per_leaf=2, spines=2),
    )
    fabric = SharedFabric(config, sanitize=True)
    fresh = run_traffic(trace, fabric=fabric, placement="spread")
    fresh_kernel = fabric.sim.counters()
    reused = run_traffic(trace, fabric=fabric, placement="spread")
    reused_kernel = fabric.sim.counters()
    return {
        "trace_hash": trace.trace_hash(),
        "n_jobs": fresh.n_jobs,
        "nodes": fresh.nodes,
        "placement": fresh.placement,
        "elapsed": fresh.elapsed,
        "n_samples": len(fresh.series),
        "total_queue_wait": round(
            sum(job.queue_wait for job in fresh.jobs), 12
        ),
        "fresh": fresh_kernel,
        "reused": reused_kernel,
        "byte_identical": (
            fresh.to_canonical_json() == reused.to_canonical_json()
        ),
    }


def _check(name: str, observed: dict) -> None:
    assert observed == GOLDEN[name], (
        f"{name} drifted from GOLDEN; observed record:\n"
        f"{pprint.pformat(observed, sort_dicts=False)}"
    )


@pytest.fixture(scope="module")
def grids():
    return {name: _run_grid(name) for name in GRIDS}


@pytest.fixture(scope="module")
def scale():
    return {name: _run_scale(name) for name in SCALE}


@pytest.fixture(scope="module")
def store():
    return _run_store()


@pytest.fixture(scope="module")
def traffic():
    return _run_traffic()


def test_golden_table_covers_every_scenario():
    scenarios = [*GRIDS, *SCALE, "store_fig5", "traffic_smoke"]
    assert list(GOLDEN) == scenarios


@pytest.mark.parametrize("name", list(GRIDS))
def test_grid_counters(grids, name):
    _check(name, grids[name])


def test_fig5_floors(grids):
    totals = grids["fig5"]["totals"]["fast"]
    ratios = {key: seed / totals[key] for key, seed in SEED_FIG5_TOTALS.items()}
    assert ratios["events_allocated"] >= MIN_EVENTS_RATIO, ratios
    assert ratios["bytes_copied"] >= MIN_BYTES_COPIED_RATIO, ratios


@pytest.mark.parametrize("name", list(SCALE))
def test_scale_counters(scale, name):
    _check(name, scale[name][0])


@pytest.mark.parametrize("name", list(SCALE))
def test_scale_jobs_launch_as_one_fleet(scale, name):
    """Warmup + timed allreduce + barrier are three macro charges on one
    fleet process; a per-rank launch allocates about one event per rank
    and per-message eventing hundreds."""
    record, fallbacks = scale[name]
    counters = record["counters"]
    assert counters["events_allocated"] == 3, counters
    assert counters["macro_events"] == 3, counters
    assert fallbacks == ({}, {})


@pytest.mark.parametrize("name", list(SCALE))
def test_scale_jobs_build_no_queues(scale, name):
    """A fleet job touches no rank's engine or matcher and no node's
    NIC or memory queue, so none is built."""
    record, _ = scale[name]
    assert set(record["built"].values()) == {0}, record["built"]


def test_store_counters(store):
    _check("store_fig5", store)


def test_warm_store_pass_executes_nothing(store):
    assert store["warm_executed"] == 0, store
    assert store["warm_hit_ratio"] == 1.0, store
    assert store["byte_identical"] is True


def test_traffic_counters(traffic):
    _check("traffic_smoke", traffic)


def test_traffic_replay_is_byte_identical(traffic):
    assert traffic["byte_identical"] is True
    assert traffic["n_samples"] >= 1, "the scraper never fired"
