"""Tests for the noise model and noisy repeats."""

import numpy as np
import pytest

from repro.bench.executor import run_sweep
from repro.bench.harness import allreduce_latency
from repro.bench.spec import SweepSpec
from repro.errors import ConfigError, ReproError
from repro.machine.clusters import cluster_b
from repro.machine.noise import NoiseModel


class TestNoiseModel:
    def test_zero_sigma_is_identity(self):
        nm = NoiseModel(sigma=0.0)
        assert nm.perturb(1.5) == 1.5

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            NoiseModel(sigma=-0.1)

    def test_same_seed_same_stream(self):
        a = NoiseModel(sigma=0.1, seed=42)
        b = NoiseModel(sigma=0.1, seed=42)
        assert [a.perturb(1.0) for _ in range(5)] == [
            b.perturb(1.0) for _ in range(5)
        ]

    def test_different_seeds_differ(self):
        a = NoiseModel(sigma=0.1, seed=1)
        b = NoiseModel(sigma=0.1, seed=2)
        assert a.perturb(1.0) != b.perturb(1.0)

    def test_reset_restarts_stream(self):
        nm = NoiseModel(sigma=0.1, seed=7)
        first = nm.perturb(1.0)
        nm.reset()
        assert nm.perturb(1.0) == first

    def test_multiplier_stays_positive(self):
        nm = NoiseModel(sigma=0.5, seed=0)
        assert all(nm.perturb(1.0) > 0 for _ in range(100))

    def test_median_preserving(self):
        nm = NoiseModel(sigma=0.1, seed=0)
        samples = np.array([nm.perturb(1.0) for _ in range(4000)])
        assert np.median(samples) == pytest.approx(1.0, rel=0.02)

    def test_zero_sigma_does_not_consume_rng(self):
        # The sigma == 0 fast path must not draw: a model that spent a
        # while at zero sigma still replays the same stream afterwards.
        nm = NoiseModel(sigma=0.1, seed=5)
        reference = [nm.perturb(1.0) for _ in range(3)]
        nm.reset()
        nm.sigma = 0.0
        for _ in range(10):
            nm.perturb(1.0)
        nm.sigma = 0.1
        assert [nm.perturb(1.0) for _ in range(3)] == reference

    def test_nonpositive_service_passes_through(self):
        # Queues use sentinel / zero-length charges; jitter must not
        # touch them (a lognormal multiple of a negative time would
        # silently corrupt horizons).
        nm = NoiseModel(sigma=0.3, seed=0)
        assert nm.perturb(0.0) == 0.0
        assert nm.perturb(-1.0) == -1.0
        reference = NoiseModel(sigma=0.3, seed=0).perturb(1.0)
        assert nm.perturb(1.0) == reference  # and drew nothing

    def test_clone_restarts_same_seed(self):
        nm = NoiseModel(sigma=0.1, seed=9)
        consumed = [nm.perturb(1.0) for _ in range(4)]
        twin = nm.clone()
        # The clone starts from the seed, not from the consumed state.
        assert [twin.perturb(1.0) for _ in range(4)] == consumed
        assert twin.sigma == nm.sigma and twin.seed == nm.seed

    def test_clones_with_distinct_seeds_are_independent(self):
        base = NoiseModel(sigma=0.1, seed=0)
        streams = [
            [base.clone(seed=s).perturb(1.0) for _ in range(4)]
            for s in (1, 2, 3)
        ]
        assert len({tuple(s) for s in streams}) == 3
        # ... and cloning never disturbs the parent's own stream.
        assert base.perturb(1.0) == NoiseModel(sigma=0.1, seed=0).perturb(1.0)


class TestNoisyRuns:
    def test_noisy_run_is_reproducible(self):
        kw = dict(ppn=4, iterations=1, warmup=0)
        a = allreduce_latency(
            cluster_b(2), "dpml", 8192, noise=NoiseModel(0.05, seed=3), **kw
        )
        b = allreduce_latency(
            cluster_b(2), "dpml", 8192, noise=NoiseModel(0.05, seed=3), **kw
        )
        assert a == b

    def test_noise_changes_latency(self):
        kw = dict(ppn=4, iterations=1, warmup=0)
        clean = allreduce_latency(cluster_b(2), "dpml", 8192, **kw)
        noisy = allreduce_latency(
            cluster_b(2), "dpml", 8192, noise=NoiseModel(0.2, seed=1), **kw
        )
        assert noisy != clean

    @staticmethod
    def _repeats(algorithm, nbytes, ppn, repeats, sigma):
        spec = SweepSpec(
            name="noisy-repeats", cluster="b", nodes=2, ppn=ppn,
            sizes=(nbytes,), algorithms=(algorithm,), iterations=3,
            repeats=repeats, sigma=sigma,
        )
        return np.array(run_sweep(spec).samples(nbytes=nbytes))

    def test_stats_mean_near_deterministic(self):
        clean = allreduce_latency(cluster_b(2), "dpml", 16384, ppn=4)
        samples = self._repeats("dpml", 16384, ppn=4, repeats=5, sigma=0.03)
        assert len(samples) == 5
        assert samples.mean() == pytest.approx(clean, rel=0.1)
        assert samples.std(ddof=1) > 0

    def test_zero_sigma_stats_degenerate(self):
        samples = self._repeats("ring", 1024, ppn=2, repeats=3, sigma=0.0)
        clean = allreduce_latency(cluster_b(2), "ring", 1024, ppn=2)
        assert list(samples) == [clean] * 3

    def test_zero_repeats_rejected(self):
        with pytest.raises(ReproError, match="repeats"):
            self._repeats("ring", 64, ppn=2, repeats=0, sigma=0.05)
