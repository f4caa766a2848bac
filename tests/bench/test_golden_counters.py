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
                "latency": 2.2667360000000003e-05,
                "fast": {
                    "events_allocated": 117, "heap_pushes": 228,
                    "heap_pops": 228, "nowq_entries": 201, "pool_reuses": 156,
                    "bytes_copied": 0, "bytes_viewed": 147456,
                    "bytes_reduced": 49152,
                },
            },
            "a/n4/ppn8/dpml/4096B/l4": {
                "latency": 1.3492799999999997e-05,
                "fast": {
                    "events_allocated": 178, "heap_pushes": 816,
                    "heap_pops": 816, "nowq_entries": 597,
                    "pool_reuses": 611, "bytes_copied": 16384,
                    "bytes_viewed": 131072, "bytes_reduced": 49152,
                },
            },
            "a/n4/ppn8/dpml/65536B/l1": {
                "latency": 0.00025141648,
                "fast": {
                    "events_allocated": 134, "heap_pushes": 332,
                    "heap_pops": 332, "nowq_entries": 329, "pool_reuses": 259,
                    "bytes_copied": 393216, "bytes_viewed": 2752512,
                    "bytes_reduced": 458752,
                },
            },
            "a/n4/ppn8/dpml/65536B/l4": {
                "latency": 0.00010605568000000001,
                "fast": {
                    "events_allocated": 243, "heap_pushes": 976,
                    "heap_pops": 976, "nowq_entries": 853,
                    "pool_reuses": 770, "bytes_copied": 655360,
                    "bytes_viewed": 2490368, "bytes_reduced": 458752,
                },
            },
        },
        "totals": {
            "fast": {
                "events_allocated": 672, "heap_pushes": 2352,
                "heap_pops": 2352, "nowq_entries": 1980, "pool_reuses": 1796,
                "bytes_copied": 1064960, "bytes_viewed": 5521408,
                "bytes_reduced": 1015808,
            },
        },
    },
    "fig5": {
        "points": {
            "b/n4/ppn8/dpml/4096B/l1": {
                "latency": 2.2667360000000003e-05,
                "fast": {
                    "events_allocated": 117, "heap_pushes": 228,
                    "heap_pops": 228, "nowq_entries": 201, "pool_reuses": 156,
                    "bytes_copied": 0, "bytes_viewed": 147456,
                    "bytes_reduced": 49152,
                },
            },
            "b/n4/ppn8/dpml/4096B/l2": {
                "latency": 1.5566879999999997e-05,
                "fast": {
                    "events_allocated": 138, "heap_pushes": 424,
                    "heap_pops": 424, "nowq_entries": 333, "pool_reuses": 307,
                    "bytes_copied": 16384, "bytes_viewed": 131072,
                    "bytes_reduced": 49152,
                },
            },
            "b/n4/ppn8/dpml/4096B/l4": {
                "latency": 1.3492799999999997e-05,
                "fast": {
                    "events_allocated": 178, "heap_pushes": 816,
                    "heap_pops": 816, "nowq_entries": 597,
                    "pool_reuses": 611, "bytes_copied": 16384,
                    "bytes_viewed": 131072, "bytes_reduced": 49152,
                },
            },
            "b/n4/ppn8/dpml/4096B/l8": {
                "latency": 1.4585600000000008e-05,
                "fast": {
                    "events_allocated": 258, "heap_pushes": 1600,
                    "heap_pops": 1600, "nowq_entries": 1121,
                    "pool_reuses": 1219, "bytes_copied": 16384,
                    "bytes_viewed": 131072, "bytes_reduced": 49152,
                },
            },
            "b/n4/ppn8/dpml/65536B/l1": {
                "latency": 0.00025141648,
                "fast": {
                    "events_allocated": 134, "heap_pushes": 332,
                    "heap_pops": 332, "nowq_entries": 329, "pool_reuses": 259,
                    "bytes_copied": 393216, "bytes_viewed": 2752512,
                    "bytes_reduced": 458752,
                },
            },
            "b/n4/ppn8/dpml/65536B/l2": {
                "latency": 0.00014921903999999997,
                "fast": {
                    "events_allocated": 171, "heap_pushes": 504,
                    "heap_pops": 504, "nowq_entries": 449, "pool_reuses": 390,
                    "bytes_copied": 655360, "bytes_viewed": 2490368,
                    "bytes_reduced": 458752,
                },
            },
            "b/n4/ppn8/dpml/65536B/l4": {
                "latency": 0.00010605568000000001,
                "fast": {
                    "events_allocated": 243, "heap_pushes": 976,
                    "heap_pops": 976, "nowq_entries": 853,
                    "pool_reuses": 770, "bytes_copied": 655360,
                    "bytes_viewed": 2490368, "bytes_reduced": 458752,
                },
            },
            "b/n4/ppn8/dpml/65536B/l8": {
                "latency": 8.988255999999996e-05,
                "fast": {
                    "events_allocated": 258, "heap_pushes": 1600,
                    "heap_pops": 1600, "nowq_entries": 1121,
                    "pool_reuses": 1215, "bytes_copied": 262144,
                    "bytes_viewed": 2097152, "bytes_reduced": 786432,
                },
            },
        },
        "totals": {
            "fast": {
                "events_allocated": 1497, "heap_pushes": 6480,
                "heap_pops": 6480, "nowq_entries": 5004, "pool_reuses": 4927,
                "bytes_copied": 2015232, "bytes_viewed": 10371072,
                "bytes_reduced": 2359296,
            },
        },
    },
    "fig9": {
        "points": {
            "c/n4/ppn8/mvapich2/16384B/tuned": {
                "latency": 6.158848e-05,
                "fast": {
                    "events_allocated": 117, "heap_pushes": 228,
                    "heap_pops": 228, "nowq_entries": 201, "pool_reuses": 156,
                    "bytes_copied": 0, "bytes_viewed": 589824,
                    "bytes_reduced": 196608,
                },
            },
            "c/n4/ppn8/mvapich2/262144B/tuned": {
                "latency": 0.0006646228800000007,
                "fast": {
                    "events_allocated": 134, "heap_pushes": 428,
                    "heap_pops": 428, "nowq_entries": 409, "pool_reuses": 323,
                    "bytes_copied": 1572864, "bytes_viewed": 11010048,
                    "bytes_reduced": 1835008,
                },
            },
            "c/n4/ppn8/intel_mpi/16384B/tuned": {
                "latency": 3.7636479999999976e-05,
                "fast": {
                    "events_allocated": 770, "heap_pushes": 1920,
                    "heap_pops": 1920, "nowq_entries": 2080,
                    "pool_reuses": 1694, "bytes_copied": 1015808,
                    "bytes_viewed": 1015808, "bytes_reduced": 507904,
                },
            },
            "c/n4/ppn8/intel_mpi/262144B/tuned": {
                "latency": 0.0004455558400000006,
                "fast": {
                    "events_allocated": 4098, "heap_pushes": 11904,
                    "heap_pops": 11904, "nowq_entries": 10760,
                    "pool_reuses": 10846, "bytes_copied": 8388608,
                    "bytes_viewed": 8388608, "bytes_reduced": 8126464,
                },
            },
            "c/n4/ppn8/dpml_tuned/16384B/tuned": {
                "latency": 2.8615519999999975e-05,
                "fast": {
                    "events_allocated": 258, "heap_pushes": 1600,
                    "heap_pops": 1600, "nowq_entries": 1121,
                    "pool_reuses": 1215, "bytes_copied": 65536,
                    "bytes_viewed": 524288, "bytes_reduced": 196608,
                },
            },
            "c/n4/ppn8/dpml_tuned/262144B/tuned": {
                "latency": 0.00028358816,
                "fast": {
                    "events_allocated": 867, "heap_pushes": 2688,
                    "heap_pops": 2688, "nowq_entries": 2881,
                    "pool_reuses": 2174, "bytes_copied": 3670016,
                    "bytes_viewed": 11010048, "bytes_reduced": 1835008,
                },
            },
            "d/n4/ppn8/mvapich2/16384B/tuned": {
                "latency": 0.0001170840704,
                "fast": {
                    "events_allocated": 117, "heap_pushes": 228,
                    "heap_pops": 228, "nowq_entries": 201, "pool_reuses": 156,
                    "bytes_copied": 0, "bytes_viewed": 589824,
                    "bytes_reduced": 196608,
                },
            },
            "d/n4/ppn8/mvapich2/262144B/tuned": {
                "latency": 0.0012534403584000002,
                "fast": {
                    "events_allocated": 134, "heap_pushes": 428,
                    "heap_pops": 428, "nowq_entries": 409, "pool_reuses": 323,
                    "bytes_copied": 1572864, "bytes_viewed": 11010048,
                    "bytes_reduced": 1835008,
                },
            },
            "d/n4/ppn8/intel_mpi/16384B/tuned": {
                "latency": 6.27292736e-05,
                "fast": {
                    "events_allocated": 762, "heap_pushes": 1920,
                    "heap_pops": 1920, "nowq_entries": 2080,
                    "pool_reuses": 1702, "bytes_copied": 1015808,
                    "bytes_viewed": 1015808, "bytes_reduced": 507904,
                },
            },
            "d/n4/ppn8/intel_mpi/262144B/tuned": {
                "latency": 0.0007067678336000031,
                "fast": {
                    "events_allocated": 4098, "heap_pushes": 11904,
                    "heap_pops": 11904, "nowq_entries": 10760,
                    "pool_reuses": 10846, "bytes_copied": 8388608,
                    "bytes_viewed": 8388608, "bytes_reduced": 8126464,
                },
            },
            "d/n4/ppn8/dpml_tuned/16384B/tuned": {
                "latency": 4.6763584000000044e-05,
                "fast": {
                    "events_allocated": 258, "heap_pushes": 1600,
                    "heap_pops": 1600, "nowq_entries": 1121,
                    "pool_reuses": 1215, "bytes_copied": 65536,
                    "bytes_viewed": 524288, "bytes_reduced": 196608,
                },
            },
            "d/n4/ppn8/dpml_tuned/262144B/tuned": {
                "latency": 0.00046994607999999963,
                "fast": {
                    "events_allocated": 867, "heap_pushes": 2688,
                    "heap_pops": 2688, "nowq_entries": 2881,
                    "pool_reuses": 2174, "bytes_copied": 3670016,
                    "bytes_viewed": 11010048, "bytes_reduced": 1835008,
                },
            },
        },
        "totals": {
            "fast": {
                "events_allocated": 12480, "heap_pushes": 37536,
                "heap_pops": 37536, "nowq_entries": 34904,
                "pool_reuses": 32824, "bytes_copied": 29425664,
                "bytes_viewed": 65077248, "bytes_reduced": 25395200,
            },
        },
    },
    "fig10": {
        "points": {
            "d/n4/ppn8/dpml_tuned/16384B/tuned": {
                "latency": 4.6763584000000044e-05,
                "fast": {
                    "events_allocated": 258, "heap_pushes": 1600,
                    "heap_pops": 1600, "nowq_entries": 1121,
                    "pool_reuses": 1215, "bytes_copied": 65536,
                    "bytes_viewed": 524288, "bytes_reduced": 196608,
                },
            },
            "d/n4/ppn8/dpml_tuned/262144B/tuned": {
                "latency": 0.00046994607999999963,
                "fast": {
                    "events_allocated": 867, "heap_pushes": 2688,
                    "heap_pops": 2688, "nowq_entries": 2881,
                    "pool_reuses": 2174, "bytes_copied": 3670016,
                    "bytes_viewed": 11010048, "bytes_reduced": 1835008,
                },
            },
        },
        "totals": {
            "fast": {
                "events_allocated": 1125, "heap_pushes": 4288,
                "heap_pops": 4288, "nowq_entries": 4002, "pool_reuses": 3389,
                "bytes_copied": 3735552, "bytes_viewed": 11534336,
                "bytes_reduced": 2031616,
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
            "nowq_entries": 3977, "pool_reuses": 5615, "pool_evictions": 0,
            "macro_events": 0,
        },
        "reused": {
            "events_allocated": 608, "heap_pushes": 7034, "heap_pops": 7034,
            "nowq_entries": 3977, "pool_reuses": 5655, "pool_evictions": 0,
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
