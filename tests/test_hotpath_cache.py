"""Hot-path cache suite: exactness, invalidation, and determinism.

The performance layer added around the simulation hot path — the
codebook gain cache, the warm-started ML solves, and the batched
trial engine — is only admissible because it is *exact*: with a fixed
seed, results must be bit-identical whether the caches are on or off,
whether trials run serially or across worker processes, and however the
parallel trials are batched. This module pins those guarantees down,
alongside unit tests of the cache bookkeeping itself.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.arrays.codebook import (
    CodebookGainCache,
    gain_cache_enabled,
    set_gain_cache_enabled,
    use_gain_cache,
)
from repro.campaign import (
    ShardStore,
    assemble_effectiveness_sweep,
    plan_effectiveness_sweep,
    run_campaign,
)
from repro.estimation.ml_covariance import MlCovarianceEstimator
from repro.exceptions import ValidationError
from repro.measurement.budget import MeasurementBudget
from repro.sim.context import ScenarioContext, get_context
from repro.sim.parallel import SchemeSpec, _run_trial_batch
from repro.sim.runner import run_trials, standard_schemes
from repro.types import BeamPair
from repro.utils.linalg import quadratic_forms, random_psd


def _outcome_fingerprint(trials):
    """Everything that must be invariant under caching and batching."""
    return [
        (
            name,
            outcome.loss_db,
            outcome.result.selected,
            outcome.result.measurements_used,
            outcome.result.selected_power,
        )
        for trial in trials
        for name, outcome in trial.items()
    ]


def _parallel_fingerprint(trials):
    """The cross-process-safe subset of the outcome fingerprint."""
    return [
        (name, outcome.loss_db, outcome.selected, outcome.measurements_used)
        for trial in trials
        for name, outcome in trial.items()
    ]


def _frozen_psd(size: int, rank: int, seed: int) -> np.ndarray:
    """A read-only PSD matrix, as the ML estimator hands its outputs out."""
    matrix = random_psd(size, rank, np.random.default_rng(seed))
    matrix.setflags(write=False)
    return matrix


# ----------------------------------------------------------------------
# CodebookGainCache unit tests
# ----------------------------------------------------------------------


class TestCodebookGainCache:
    @pytest.fixture()
    def vectors(self, rx_codebook):
        return rx_codebook.vectors

    def test_hit_returns_identical_array(self, vectors):
        cache = CodebookGainCache(vectors)
        q = _frozen_psd(vectors.shape[0], 2, seed=7)
        first = cache.gains(q)
        second = cache.gains(q)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_result_matches_uncached_bitwise(self, vectors):
        cache = CodebookGainCache(vectors)
        q = _frozen_psd(vectors.shape[0], 2, seed=7)
        cached = cache.gains(q)
        raw = quadratic_forms(q, vectors)
        assert cached.tobytes() == raw.tobytes()

    def test_result_is_read_only(self, vectors):
        cache = CodebookGainCache(vectors)
        gains = cache.gains(_frozen_psd(vectors.shape[0], 2, seed=7))
        assert not gains.flags.writeable
        with pytest.raises(ValueError):
            gains[0] = 0.0

    def test_writeable_covariance_rekeyed_after_mutation(self, vectors):
        """In-place mutation must never serve a stale evaluation."""
        cache = CodebookGainCache(vectors)
        q = random_psd(vectors.shape[0], 2, np.random.default_rng(7))
        before = cache.gains(q).copy()
        q *= 2.0
        after = cache.gains(q)
        assert cache.misses == 2 and cache.hits == 0
        np.testing.assert_allclose(after, 2.0 * before, rtol=1e-12)

    def test_writeable_covariance_equal_content_hits(self, vectors):
        """Distinct writeable arrays with equal bytes share one entry."""
        cache = CodebookGainCache(vectors)
        q1 = random_psd(vectors.shape[0], 2, np.random.default_rng(7))
        q2 = q1.copy()
        first = cache.gains(q1)
        second = cache.gains(q2)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self, vectors):
        cache = CodebookGainCache(vectors, capacity=2)
        covariances = [_frozen_psd(vectors.shape[0], 2, seed=s) for s in (1, 2, 3)]
        for q in covariances:
            cache.gains(q)
        assert len(cache) == 2 and cache.evictions == 1
        # Oldest entry evicted: re-evaluating it is a miss, newest is a hit.
        cache.gains(covariances[-1])
        assert cache.hits == 1
        cache.gains(covariances[0])
        assert cache.misses == 4

    def test_dead_identity_key_never_aliases(self, vectors):
        """A recycled id() cannot resurrect a dead array's entry."""
        cache = CodebookGainCache(vectors)
        q = _frozen_psd(vectors.shape[0], 2, seed=7)
        key = cache._key(q)
        cache.gains(q)
        del q
        gc.collect()
        other = _frozen_psd(vectors.shape[0], 2, seed=8)
        assert not cache._valid_hit(key, other)

    def test_clear_drops_entries_keeps_counters(self, vectors):
        cache = CodebookGainCache(vectors)
        cache.gains(_frozen_psd(vectors.shape[0], 2, seed=7))
        cache.clear()
        assert len(cache) == 0 and cache.misses == 1

    def test_capacity_validation(self, vectors):
        with pytest.raises(ValidationError):
            CodebookGainCache(vectors, capacity=0)


class TestGainCacheToggle:
    def test_codebook_routes_through_cache_when_enabled(self, rx_codebook):
        q = _frozen_psd(rx_codebook.vectors.shape[0], 2, seed=11)
        with use_gain_cache(True):
            hits_before = rx_codebook.gain_cache.hits
            first = rx_codebook.gains(q)
            second = rx_codebook.gains(q)
        assert second is first
        assert rx_codebook.gain_cache.hits == hits_before + 1

    def test_disabled_cache_bypasses_memoization(self, rx_codebook):
        q = _frozen_psd(rx_codebook.vectors.shape[0], 2, seed=11)
        with use_gain_cache(False):
            misses_before = rx_codebook.gain_cache.misses
            first = rx_codebook.gains(q)
            second = rx_codebook.gains(q)
            assert rx_codebook.gain_cache.misses == misses_before
        assert second is not first
        assert first.tobytes() == second.tobytes()

    def test_cache_on_off_same_values(self, rx_codebook):
        q = _frozen_psd(rx_codebook.vectors.shape[0], 2, seed=11)
        with use_gain_cache(True):
            cached = rx_codebook.gains(q)
        with use_gain_cache(False):
            uncached = rx_codebook.gains(q)
        assert cached.tobytes() == uncached.tobytes()

    def test_invalidation_through_codebook(self, rx_codebook):
        """Satellite check: Codebook.gains sees content changes."""
        q = random_psd(rx_codebook.vectors.shape[0], 2, np.random.default_rng(13))
        with use_gain_cache(True):
            before = rx_codebook.gains(q).copy()
            q *= 3.0
            after = rx_codebook.gains(q)
        np.testing.assert_allclose(after, 3.0 * before, rtol=1e-12)

    def test_set_gain_cache_enabled_returns_previous(self):
        original = gain_cache_enabled()
        try:
            assert set_gain_cache_enabled(False) == original
            assert gain_cache_enabled() is False
            assert set_gain_cache_enabled(True) is False
        finally:
            set_gain_cache_enabled(original)

    def test_context_manager_restores_on_error(self):
        original = gain_cache_enabled()
        with pytest.raises(RuntimeError):
            with use_gain_cache(not original):
                raise RuntimeError("boom")
        assert gain_cache_enabled() == original


# ----------------------------------------------------------------------
# Warm-started ML estimator telemetry
# ----------------------------------------------------------------------


class TestEstimatorWarmStart:
    @pytest.fixture()
    def probe_setup(self, rx_codebook):
        rng = np.random.default_rng(17)
        indices = rng.choice(rx_codebook.num_beams, 3, replace=False)
        probes = rx_codebook.vectors[:, indices]
        powers = np.abs(rng.normal(size=3)) * 0.1 + 0.01
        return probes, powers

    def test_cold_then_warm_counters(self, probe_setup):
        probes, powers = probe_setup
        estimator = MlCovarianceEstimator()
        estimator.estimate(probes, powers, 0.01)
        assert estimator.cold_solves == 1 and estimator.warm_solves == 0
        estimator.estimate(probes, powers, 0.01)
        assert estimator.cold_solves == 1 and estimator.warm_solves == 1
        assert estimator.num_solves == 2
        assert estimator.iterations_saved >= 0.0

    def test_estimates_are_frozen(self, probe_setup):
        probes, powers = probe_setup
        solution = MlCovarianceEstimator().estimate(probes, powers, 0.01)
        assert not solution.flags.writeable

    def test_reset_forgets_warm_start(self, probe_setup):
        probes, powers = probe_setup
        estimator = MlCovarianceEstimator()
        estimator.estimate(probes, powers, 0.01)
        estimator.reset()
        assert estimator.warm_start is None
        estimator.estimate(probes, powers, 0.01)
        assert estimator.cold_solves == 2

    def test_external_warm_start_drops_stale_basis(self, probe_setup):
        """A hand-planted warm start must not reuse the old basis."""
        probes, powers = probe_setup
        estimator = MlCovarianceEstimator()
        first = estimator.estimate(probes, powers, 0.01)
        planted = np.array(first)  # new object, same values
        planted.setflags(write=False)
        estimator.warm_start = planted
        estimator.estimate(probes, powers, 0.01)
        assert estimator.warm_solves == 1  # still counted as warm

    def test_basis_reuse_matches_recompute(self, probe_setup):
        """reuse_basis is a cost optimization, not a different estimator."""
        probes, powers = probe_setup
        with_reuse = MlCovarianceEstimator(reuse_basis=True)
        without = MlCovarianceEstimator(reuse_basis=False)
        for _ in range(3):
            reused = with_reuse.estimate(probes, powers, 0.01)
            recomputed = without.estimate(probes, powers, 0.01)
        np.testing.assert_allclose(reused, recomputed, rtol=1e-6, atol=1e-9)


# ----------------------------------------------------------------------
# Shared scenario context
# ----------------------------------------------------------------------


class TestScenarioContext:
    def test_pair_table_round_trip(self, small_scenario):
        context = small_scenario.context()
        for flat in range(context.total_pairs):
            pair = context.pair_of(flat)
            assert context.flat_of(pair) == flat
        assert context.total_pairs == (
            small_scenario.tx_codebook.num_beams * small_scenario.rx_codebook.num_beams
        )

    def test_pair_table_immutable(self, small_scenario):
        context = small_scenario.context()
        assert not context.pair_table.flags.writeable

    def test_scenario_context_is_shared(self, small_scenario):
        assert small_scenario.context() is small_scenario.context()

    def test_get_context_memoized_per_config(self, small_config):
        assert get_context(small_config) is get_context(small_config)
        assert isinstance(get_context(small_config), ScenarioContext)

    def test_out_of_range_rejected(self, small_scenario):
        context = small_scenario.context()
        with pytest.raises(ValidationError):
            context.pair_of(context.total_pairs)
        with pytest.raises(ValidationError):
            context.flat_of(BeamPair(0, small_scenario.rx_codebook.num_beams))

    def test_make_budget_matches_search_rate(self, small_scenario):
        context = small_scenario.context()
        budget = context.make_budget(0.3)
        expected = MeasurementBudget.from_search_rate(context.total_pairs, 0.3)
        assert (budget.total_pairs, budget.limit) == (
            expected.total_pairs,
            expected.limit,
        )


# ----------------------------------------------------------------------
# End-to-end determinism regressions
# ----------------------------------------------------------------------


class TestDeterminism:
    SPECS = (
        SchemeSpec.of("Random"),
        SchemeSpec.of("Scan"),
        SchemeSpec.of("Proposed", measurements_per_slot=4),
    )

    def test_run_trials_cache_on_off_bit_identical(self, small_scenario):
        with use_gain_cache(True):
            cached = run_trials(
                small_scenario,
                standard_schemes(measurements_per_slot=4),
                0.3,
                3,
                base_seed=21,
            )
        with use_gain_cache(False):
            uncached = run_trials(
                small_scenario,
                standard_schemes(measurements_per_slot=4),
                0.3,
                3,
                base_seed=21,
            )
        assert _outcome_fingerprint(cached) == _outcome_fingerprint(uncached)

    def test_repeat_runs_share_cached_context(self, small_scenario):
        """Back-to-back runs reuse the warm context without drifting."""
        schemes = standard_schemes(measurements_per_slot=4)
        first = run_trials(small_scenario, schemes, 0.3, 2, base_seed=22)
        second = run_trials(
            small_scenario, standard_schemes(measurements_per_slot=4), 0.3, 2,
            base_seed=22,
        )
        assert _outcome_fingerprint(first) == _outcome_fingerprint(second)

    def test_parallel_matches_serial_fallback(self, small_config, small_scenario, tmp_path):
        """Two launched workers reproduce the serial runner's losses."""
        plan = plan_effectiveness_sweep(
            small_config, self.SPECS, (0.3,), 4, base_seed=23, shard_trials=2
        )
        store = ShardStore(tmp_path / "store")
        run_campaign(plan, store, max_workers=2)
        serial = run_trials(
            small_scenario,
            {spec.name: spec.build_factory() for spec in self.SPECS},
            0.3,
            4,
            base_seed=23,
        )
        losses = assemble_effectiveness_sweep(plan, store).losses
        for spec in self.SPECS:
            assert losses[spec.name] == [
                [trial[spec.name].loss_db for trial in serial]
            ]

    @pytest.mark.parametrize("batch_size", [1, 3, None])
    def test_batch_size_never_changes_outcomes(self, small_config, batch_size):
        """However the trials are cut into shards, outcomes are the same."""
        reference, _ = _run_trial_batch(small_config, self.SPECS, 0.3, 23, (0, 1, 2, 3))
        size = batch_size or 4
        sharded = []
        for start in range(0, 4, size):
            shard = tuple(range(start, min(start + size, 4)))
            sharded += _run_trial_batch(small_config, self.SPECS, 0.3, 23, shard)[0]
        assert _parallel_fingerprint(reference) == _parallel_fingerprint(sharded)

    def test_parallel_cache_on_off_identical(self, small_config):
        with use_gain_cache(True):
            cached, _ = _run_trial_batch(small_config, self.SPECS, 0.3, 29, (0, 1, 2))
        with use_gain_cache(False):
            uncached, _ = _run_trial_batch(small_config, self.SPECS, 0.3, 29, (0, 1, 2))
        assert _parallel_fingerprint(cached) == _parallel_fingerprint(uncached)
