"""Synchronous data-parallel SGD (the paper's deep-learning motivation).

"Many applications in newer fields such as deep learning applications
extensively use medium and large message reductions" (Section 1).
This kernel trains a real numpy MLP with data-parallel synchronous
SGD on the simulated cluster: every rank computes gradients on its own
shard of a synthetic regression dataset, gradients are averaged with
``MPI_Allreduce`` (bucketed, like production DL frameworks), and all
ranks apply the same update.

Two invariants make this a strong end-to-end test of the collective
stack:

* **replica consistency** — after every step the model replicas must be
  bit-identical on all ranks (they only ever see allreduced gradients);
* **learning** — the training loss must decrease, which fails loudly if
  any allreduce mangles a gradient.

In symbolic mode the arithmetic is skipped and only the communication
time of the bucketed allreduces is simulated, which is what the
gradient-averaging benchmarks use at scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.mpi.runtime import Runtime
from repro.payload.ops import SUM
from repro.payload.payload import DataPayload, SymbolicPayload

__all__ = ["SgdResult", "run_sgd"]

# Memory-traffic factor for one forward+backward pass per parameter.
_GRAD_STREAMS = 6.0


@dataclass
class SgdResult:
    """Outcome of one training run."""

    steps: int
    losses: Optional[list[float]]  #: per-step global loss (data mode)
    replicas_consistent: Optional[bool]  #: all ranks identical (data mode)
    allreduce_time: float  #: mean per-rank seconds averaging gradients
    total_time: float  #: simulated wall time
    parameters: int  #: model parameter count


def _init_model(rng, in_dim: int, hidden: int) -> list[np.ndarray]:
    return [
        rng.normal(0, 0.5, (in_dim, hidden)),
        np.zeros(hidden),
        rng.normal(0, 0.5, (hidden, 1)),
        np.zeros(1),
    ]


def _forward_backward(params, x, y):
    """MSE loss + gradients of a 1-hidden-layer tanh MLP."""
    w1, b1, w2, b2 = params
    h_pre = x @ w1 + b1
    h = np.tanh(h_pre)
    pred = h @ w2 + b2
    err = pred - y
    loss = float(np.mean(err**2))
    n = x.shape[0]
    d_pred = 2.0 * err / n
    g_w2 = h.T @ d_pred
    g_b2 = d_pred.sum(axis=0)
    d_h = (d_pred @ w2.T) * (1.0 - h**2)
    g_w1 = x.T @ d_h
    g_b1 = d_h.sum(axis=0)
    return loss, [g_w1, g_b1, g_w2, g_b2]


def run_sgd(
    config: MachineConfig,
    nranks: int,
    *,
    ppn: Optional[int] = None,
    steps: int = 20,
    in_dim: int = 8,
    hidden: int = 16,
    samples_per_rank: int = 32,
    lr: float = 0.05,
    bucket_bytes: int = 4096,
    allreduce_algorithm: Optional[str] = "dpml_tuned",
    data_mode: bool = True,
    symbolic_parameters: int = 0,
    seed: int = 0,
) -> SgdResult:
    """Train for ``steps``; returns loss curve and timing.

    ``data_mode=False`` skips the arithmetic and simulates the
    communication of ``symbolic_parameters`` float32 gradients per step
    (bucketed by ``bucket_bytes``).
    """
    param_count = (
        in_dim * hidden + hidden + hidden + 1
        if data_mode
        else symbolic_parameters
    )
    if not data_mode and symbolic_parameters <= 0:
        raise ValueError("symbolic mode needs symbolic_parameters > 0")

    def rank_fn(comm):
        machine = comm.machine
        me = comm.world_rank
        rng = np.random.default_rng(seed)  # SAME model init on every rank
        data_rng = np.random.default_rng(seed + 1 + comm.rank)  # own shard
        if data_mode:
            params = _init_model(rng, in_dim, hidden)
            true_w = np.sin(np.arange(in_dim))
            x = data_rng.normal(size=(samples_per_rank, in_dim))
            y = (x @ true_w)[:, None] + 0.01 * data_rng.normal(
                size=(samples_per_rank, 1)
            )

        losses = []
        comm_time = 0.0
        start = comm.now
        for _ in range(steps):
            # Local forward/backward (charged compute).
            yield machine.compute(
                me, int(param_count * 8 * _GRAD_STREAMS / 3)
            )
            if data_mode:
                loss, grads = _forward_backward(params, x, y)
                flat = np.concatenate([g.ravel() for g in grads])
            # Bucketed gradient averaging.
            t0 = comm.now
            if data_mode:
                averaged = np.empty_like(flat)
                offset = 0
                bucket_elems = max(1, bucket_bytes // 8)
                while offset < flat.size:
                    end = min(offset + bucket_elems, flat.size)
                    part = DataPayload(flat[offset:end].copy())
                    out = yield from comm.allreduce(
                        part, SUM, algorithm=allreduce_algorithm
                    )
                    averaged[offset:end] = out.array / comm.size
                    offset = end
                # Global mean loss rides along as a 1-element allreduce.
                loss_out = yield from comm.allreduce(
                    DataPayload(np.array([loss])), SUM,
                    algorithm=allreduce_algorithm,
                )
                losses.append(float(loss_out.array[0]) / comm.size)
            else:
                bucket_elems = max(1, bucket_bytes // 4)
                remaining = param_count
                while remaining > 0:
                    size = min(bucket_elems, remaining)
                    yield from comm.allreduce(
                        SymbolicPayload(size, 4), SUM,
                        algorithm=allreduce_algorithm,
                    )
                    remaining -= size
            comm_time += comm.now - t0

            if data_mode:
                # Apply the identical update everywhere.
                offset = 0
                for p in params:
                    block = averaged[offset : offset + p.size]
                    p -= lr * block.reshape(p.shape)
                    offset += p.size

        digest = (
            float(sum(float(np.sum(p)) for p in params)) if data_mode else None
        )
        return {
            "losses": losses,
            "digest": digest,
            "comm": comm_time,
            "elapsed": comm.now - start,
        }

    machine = Machine(config, nranks, ppn)
    job = Runtime(machine).launch(rank_fn)
    stats = job.values
    consistent = None
    losses = None
    if data_mode:
        digests = {s["digest"] for s in stats}
        consistent = len(digests) == 1
        losses = stats[0]["losses"]
    return SgdResult(
        steps=steps,
        losses=losses,
        replicas_consistent=consistent,
        allreduce_time=float(np.mean([s["comm"] for s in stats])),
        total_time=job.elapsed,
        parameters=param_count,
    )
