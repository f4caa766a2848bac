"""Run-to-run variability: multiplicative service-time jitter.

The simulator is deterministic, which is great for debugging but
unlike a real cluster, where OS noise, cache state, and adaptive
routing perturb every operation.  A :class:`NoiseModel` attaches a
seeded lognormal multiplier to charged service times, so repeated runs
with different seeds produce a latency *distribution*.  A noisy repeat
is ``SweepSpec(repeats=n, sigma=s)``: repeat ``i`` runs under
``NoiseModel(s, seed=base_seed + i)`` and
:meth:`~repro.bench.spec.SweepResult.samples` returns the ``n``
latencies, the paper's "averages of a minimum of five runs".

Lognormal keeps multipliers positive with median 1; ``sigma`` around
0.02-0.10 matches typical microbenchmark variance.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

__all__ = ["NoiseModel"]


class NoiseModel:
    """Seeded multiplicative jitter for service times."""

    __slots__ = ("sigma", "seed", "_rng")

    def __init__(self, sigma: float = 0.05, seed: int = 0):
        if sigma < 0:
            raise ConfigError(f"noise sigma must be non-negative, got {sigma}")
        self.sigma = sigma
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def perturb(self, service: float) -> float:
        """One jittered sample of ``service`` (median-preserving)."""
        if self.sigma == 0.0 or service <= 0.0:
            return service
        return float(service * self._rng.lognormal(mean=0.0, sigma=self.sigma))

    def reset(self) -> None:
        """Restart the stream (same seed -> same run)."""
        self._rng = np.random.default_rng(self.seed)

    def clone(self, seed: "int | None" = None) -> "NoiseModel":
        """A fresh model with the same sigma and an independent stream.

        With ``seed=None`` the clone reuses this model's seed (restarted
        from the beginning — it does not inherit consumed state); pass a
        different seed for a statistically independent replica, e.g. one
        per sweep repeat.
        """
        return NoiseModel(self.sigma, self.seed if seed is None else seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NoiseModel(sigma={self.sigma}, seed={self.seed})"
