"""Golden counters: every deterministic value of the fast paths, pinned.

Each scenario runs here directly and its observed record must equal the
committed :data:`GOLDEN` entry exactly:

* ``fig4``/``fig5``/``fig10`` — small figure-shaped DPML points (real
  numpy data), each on two fresh sessions: once with the kernel and
  payload layers in **compat** mode (heap-only event kernel,
  copy-always payloads) and once in the default **fast** mode
  (now-queue, event pools, copy-on-write views).  Kernel and payload
  counters of both modes, their totals and the compat/fast ratios.
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
tests (fig5 savings, compat == fast latency, fleet launch at scale,
warm store, traffic replay) hold whatever the table says.
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
from repro.payload.payload import (
    payload_counters,
    reset_payload_counters,
    set_payload_compat,
)
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

#: fig5 floors on the compat/fast ratios: the fast paths must allocate
#: at least 3x fewer events and copy at least 5x fewer payload bytes.
MIN_EVENTS_RATIO = 3.0
MIN_BYTES_COPIED_RATIO = 5.0

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
                "latency": 2.3095159999999986e-05,
                "compat": {
                    "events_allocated": 3241, "heap_pushes": 3241,
                    "heap_pops": 3241, "nowq_entries": 0, "pool_reuses": 0,
                    "bytes_copied": 786432, "bytes_viewed": 0,
                    "bytes_reduced": 147456,
                },
                "fast": {
                    "events_allocated": 498, "heap_pushes": 1348,
                    "heap_pops": 1348, "nowq_entries": 1893,
                    "pool_reuses": 1627, "bytes_copied": 0,
                    "bytes_viewed": 442368, "bytes_reduced": 147456,
                },
            },
            "a/n4/ppn8/dpml/4096B/l4": {
                "latency": 1.338640000000001e-05,
                "compat": {
                    "events_allocated": 6301, "heap_pushes": 6301,
                    "heap_pops": 6301, "nowq_entries": 0, "pool_reuses": 0,
                    "bytes_copied": 786432, "bytes_viewed": 0,
                    "bytes_reduced": 147456,
                },
                "fast": {
                    "events_allocated": 642, "heap_pushes": 3112,
                    "heap_pops": 3112, "nowq_entries": 3189,
                    "pool_reuses": 4039, "bytes_copied": 49152,
                    "bytes_viewed": 393216, "bytes_reduced": 147456,
                },
            },
            "a/n4/ppn8/dpml/65536B/l1": {
                "latency": 0.0002497140799999998,
                "compat": {
                    "events_allocated": 3985, "heap_pushes": 3985,
                    "heap_pops": 3985, "nowq_entries": 0, "pool_reuses": 0,
                    "bytes_copied": 14942208, "bytes_viewed": 0,
                    "bytes_reduced": 1376256,
                },
                "fast": {
                    "events_allocated": 594, "heap_pushes": 1660,
                    "heap_pops": 1660, "nowq_entries": 2325,
                    "pool_reuses": 1963, "bytes_copied": 1179648,
                    "bytes_viewed": 8257536, "bytes_reduced": 1376256,
                },
            },
            "a/n4/ppn8/dpml/65536B/l4": {
                "latency": 0.00010230903999999999,
                "compat": {
                    "events_allocated": 7741, "heap_pushes": 7741,
                    "heap_pops": 7741, "nowq_entries": 0, "pool_reuses": 0,
                    "bytes_copied": 14942208, "bytes_viewed": 0,
                    "bytes_reduced": 1376256,
                },
                "fast": {
                    "events_allocated": 834, "heap_pushes": 3592,
                    "heap_pops": 3592, "nowq_entries": 4149,
                    "pool_reuses": 4615, "bytes_copied": 1966080,
                    "bytes_viewed": 7471104, "bytes_reduced": 1376256,
                },
            },
        },
        "totals": {
            "compat": {
                "events_allocated": 21268, "heap_pushes": 21268,
                "heap_pops": 21268, "nowq_entries": 0, "pool_reuses": 0,
                "bytes_copied": 31457280, "bytes_viewed": 0,
                "bytes_reduced": 3047424,
            },
            "fast": {
                "events_allocated": 2568, "heap_pushes": 9712,
                "heap_pops": 9712, "nowq_entries": 11556, "pool_reuses": 12244,
                "bytes_copied": 3194880, "bytes_viewed": 16564224,
                "bytes_reduced": 3047424,
            },
        },
        "ratios": {"events_allocated": 8.2819, "bytes_copied": 9.8462},
    },
    "fig5": {
        "points": {
            "b/n4/ppn8/dpml/4096B/l1": {
                "latency": 2.3095159999999986e-05,
                "compat": {
                    "events_allocated": 3241, "heap_pushes": 3241,
                    "heap_pops": 3241, "nowq_entries": 0, "pool_reuses": 0,
                    "bytes_copied": 786432, "bytes_viewed": 0,
                    "bytes_reduced": 147456,
                },
                "fast": {
                    "events_allocated": 498, "heap_pushes": 1348,
                    "heap_pops": 1348, "nowq_entries": 1893,
                    "pool_reuses": 1627, "bytes_copied": 0,
                    "bytes_viewed": 442368, "bytes_reduced": 147456,
                },
            },
            "b/n4/ppn8/dpml/4096B/l2": {
                "latency": 1.6246760000000026e-05,
                "compat": {
                    "events_allocated": 4261, "heap_pushes": 4261,
                    "heap_pops": 4261, "nowq_entries": 0, "pool_reuses": 0,
                    "bytes_copied": 786432, "bytes_viewed": 0,
                    "bytes_reduced": 147456,
                },
                "fast": {
                    "events_allocated": 546, "heap_pushes": 1936,
                    "heap_pops": 1936, "nowq_entries": 2325,
                    "pool_reuses": 2431, "bytes_copied": 49152,
                    "bytes_viewed": 393216, "bytes_reduced": 147456,
                },
            },
            "b/n4/ppn8/dpml/4096B/l4": {
                "latency": 1.338640000000001e-05,
                "compat": {
                    "events_allocated": 6301, "heap_pushes": 6301,
                    "heap_pops": 6301, "nowq_entries": 0, "pool_reuses": 0,
                    "bytes_copied": 786432, "bytes_viewed": 0,
                    "bytes_reduced": 147456,
                },
                "fast": {
                    "events_allocated": 642, "heap_pushes": 3112,
                    "heap_pops": 3112, "nowq_entries": 3189,
                    "pool_reuses": 4039, "bytes_copied": 49152,
                    "bytes_viewed": 393216, "bytes_reduced": 147456,
                },
            },
            "b/n4/ppn8/dpml/4096B/l8": {
                "latency": 1.4631160000000022e-05,
                "compat": {
                    "events_allocated": 10381, "heap_pushes": 10381,
                    "heap_pops": 10381, "nowq_entries": 0, "pool_reuses": 0,
                    "bytes_copied": 786432, "bytes_viewed": 0,
                    "bytes_reduced": 147456,
                },
                "fast": {
                    "events_allocated": 834, "heap_pushes": 5464,
                    "heap_pops": 5464, "nowq_entries": 4917,
                    "pool_reuses": 7255, "bytes_copied": 49152,
                    "bytes_viewed": 393216, "bytes_reduced": 147456,
                },
            },
            "b/n4/ppn8/dpml/65536B/l1": {
                "latency": 0.0002497140799999998,
                "compat": {
                    "events_allocated": 3985, "heap_pushes": 3985,
                    "heap_pops": 3985, "nowq_entries": 0, "pool_reuses": 0,
                    "bytes_copied": 14942208, "bytes_viewed": 0,
                    "bytes_reduced": 1376256,
                },
                "fast": {
                    "events_allocated": 594, "heap_pushes": 1660,
                    "heap_pops": 1660, "nowq_entries": 2325,
                    "pool_reuses": 1963, "bytes_copied": 1179648,
                    "bytes_viewed": 8257536, "bytes_reduced": 1376256,
                },
            },
            "b/n4/ppn8/dpml/65536B/l2": {
                "latency": 0.00015106223999999997,
                "compat": {
                    "events_allocated": 4981, "heap_pushes": 4981,
                    "heap_pops": 4981, "nowq_entries": 0, "pool_reuses": 0,
                    "bytes_copied": 14942208, "bytes_viewed": 0,
                    "bytes_reduced": 1376256,
                },
                "fast": {
                    "events_allocated": 642, "heap_pushes": 2176,
                    "heap_pops": 2176, "nowq_entries": 2805,
                    "pool_reuses": 2719, "bytes_copied": 1966080,
                    "bytes_viewed": 7471104, "bytes_reduced": 1376256,
                },
            },
            "b/n4/ppn8/dpml/65536B/l4": {
                "latency": 0.00010230903999999999,
                "compat": {
                    "events_allocated": 7741, "heap_pushes": 7741,
                    "heap_pops": 7741, "nowq_entries": 0, "pool_reuses": 0,
                    "bytes_copied": 14942208, "bytes_viewed": 0,
                    "bytes_reduced": 1376256,
                },
                "fast": {
                    "events_allocated": 834, "heap_pushes": 3592,
                    "heap_pops": 3592, "nowq_entries": 4149,
                    "pool_reuses": 4615, "bytes_copied": 1966080,
                    "bytes_viewed": 7471104, "bytes_reduced": 1376256,
                },
            },
            "b/n4/ppn8/dpml/65536B/l8": {
                "latency": 8.533898000000017e-05,
                "compat": {
                    "events_allocated": 10381, "heap_pushes": 10381,
                    "heap_pops": 10381, "nowq_entries": 0, "pool_reuses": 0,
                    "bytes_copied": 12582912, "bytes_viewed": 0,
                    "bytes_reduced": 2359296,
                },
                "fast": {
                    "events_allocated": 834, "heap_pushes": 5464,
                    "heap_pops": 5464, "nowq_entries": 4917,
                    "pool_reuses": 7255, "bytes_copied": 786432,
                    "bytes_viewed": 6291456, "bytes_reduced": 2359296,
                },
            },
        },
        "totals": {
            "compat": {
                "events_allocated": 51272, "heap_pushes": 51272,
                "heap_pops": 51272, "nowq_entries": 0, "pool_reuses": 0,
                "bytes_copied": 60555264, "bytes_viewed": 0,
                "bytes_reduced": 7077888,
            },
            "fast": {
                "events_allocated": 5424, "heap_pushes": 24752,
                "heap_pops": 24752, "nowq_entries": 26520,
                "pool_reuses": 31904, "bytes_copied": 6045696,
                "bytes_viewed": 31113216, "bytes_reduced": 7077888,
            },
        },
        "ratios": {"events_allocated": 9.4528, "bytes_copied": 10.0163},
    },
    "fig10": {
        "points": {
            "d/n4/ppn8/dpml_tuned/16384B/tuned": {
                "latency": 4.826975999999977e-05,
                "compat": {
                    "events_allocated": 7629, "heap_pushes": 7629,
                    "heap_pops": 7629, "nowq_entries": 0, "pool_reuses": 0,
                    "bytes_copied": 2097152, "bytes_viewed": 0,
                    "bytes_reduced": 393216,
                },
                "fast": {
                    "events_allocated": 706, "heap_pushes": 3864,
                    "heap_pops": 3864, "nowq_entries": 3765,
                    "pool_reuses": 5079, "bytes_copied": 131072,
                    "bytes_viewed": 1048576, "bytes_reduced": 393216,
                },
            },
            "d/n4/ppn8/dpml_tuned/262144B/tuned": {
                "latency": 0.0004725753536000017,
                "compat": {
                    "events_allocated": 14093, "heap_pushes": 14093,
                    "heap_pops": 14093, "nowq_entries": 0, "pool_reuses": 0,
                    "bytes_copied": 44040192, "bytes_viewed": 0,
                    "bytes_reduced": 3670016,
                },
                "fast": {
                    "events_allocated": 1826, "heap_pushes": 6040,
                    "heap_pops": 6040, "nowq_entries": 8053,
                    "pool_reuses": 7607, "bytes_copied": 7340032,
                    "bytes_viewed": 22020096, "bytes_reduced": 3670016,
                },
            },
        },
        "totals": {
            "compat": {
                "events_allocated": 21722, "heap_pushes": 21722,
                "heap_pops": 21722, "nowq_entries": 0, "pool_reuses": 0,
                "bytes_copied": 46137344, "bytes_viewed": 0,
                "bytes_reduced": 4063232,
            },
            "fast": {
                "events_allocated": 2532, "heap_pushes": 9904,
                "heap_pops": 9904, "nowq_entries": 11818, "pool_reuses": 12686,
                "bytes_copied": 7471104, "bytes_viewed": 23068672,
                "bytes_reduced": 4063232,
            },
        },
        "ratios": {"events_allocated": 8.579, "bytes_copied": 6.1754},
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


def _measure(cluster, algorithm, nbytes, leaders, iterations, compat):
    """One fig point on a fresh session: (latency, counters)."""
    set_payload_compat(compat)
    reset_payload_counters()
    try:
        config = get_cluster(cluster, 4)
        session = SimSession(config, 32, ppn=8)
        session.machine.sim._compat = compat
        kwargs = {} if leaders is None else {"leaders": leaders}
        latency = allreduce_latency(
            config, algorithm, nbytes, ppn=8, iterations=iterations,
            warmup=1, validate=True, session=session, **kwargs,
        )
        kernel = session.machine.sim.counters()
        payload = payload_counters()
    finally:
        set_payload_compat(False)
        reset_payload_counters()
    counters = {k: kernel[k] for k in KERNEL_KEYS}
    counters.update((k, payload[k]) for k in PAYLOAD_KEYS)
    return latency, counters


def _run_grid(name: str):
    """Observed record of one fig grid, plus each point's fast latency."""
    points, fast_latency = {}, {}
    totals = {
        mode: dict.fromkeys(KERNEL_KEYS + PAYLOAD_KEYS, 0)
        for mode in ("compat", "fast")
    }
    for cluster, algorithm, nbytes, leaders, iterations in GRIDS[name]:
        label = _label(cluster, algorithm, nbytes, leaders)
        latency, compat = _measure(
            cluster, algorithm, nbytes, leaders, iterations, compat=True
        )
        fast_latency[label], fast = _measure(
            cluster, algorithm, nbytes, leaders, iterations, compat=False
        )
        points[label] = {"latency": latency, "compat": compat, "fast": fast}
        for mode, counters in (("compat", compat), ("fast", fast)):
            for key, value in counters.items():
                totals[mode][key] += value
    ratios = {
        key: round(totals["compat"][key] / totals["fast"][key], 4)
        for key in ("events_allocated", "bytes_copied")
    }
    return {"points": points, "totals": totals, "ratios": ratios}, fast_latency


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
    _check(name, grids[name][0])


@pytest.mark.parametrize("name", list(GRIDS))
def test_compat_and_fast_latency_identical(grids, name):
    record, fast_latency = grids[name]
    compat_latency = {
        label: point["latency"] for label, point in record["points"].items()
    }
    assert fast_latency == compat_latency


def test_fig5_floors(grids):
    ratios = grids["fig5"][0]["ratios"]
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
