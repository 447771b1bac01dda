"""Batched trial engine suite: bit-identity, masking, and fallbacks.

The batched engine (:mod:`repro.sim.batch` and the stacked kernels under
it) is admissible for the same reason the hot-path caches are: it is
*exact*. With a fixed seed, every outcome — down to the raw measurement
samples and the solver's per-iteration history — must be bit-identical
whether trials run serially, in one stacked block, or across worker
processes composed with in-process batches. This module pins those
guarantees down layer by layer: measurement fusion and the batched
channel builder (the processes x batches composition is pinned by
``tests/test_campaign_worker.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import (
    ShardStore,
    campaign_status,
    plan_effectiveness_sweep,
    run_campaign,
)
from repro.channel.batch import mean_snr_matrices
from repro.core.base import AlignmentContext
from repro.exceptions import (
    BudgetExhaustedError,
    ConfigurationError,
    ValidationError,
)
from repro.measurement.budget import MeasurementBudget
from repro.measurement.measurer import MeasurementEngine
from repro.sim.batch import run_trial_block, run_trials_batched
from repro.sim.parallel import SchemeSpec
from repro.sim.runner import run_trials, standard_schemes
from repro.types import BeamPair
from repro.utils.rng import trial_generator


def _deep_fingerprint(trials):
    """Every outcome field plus the raw measurement trace, byte for byte."""
    rows = []
    for trial in trials:
        for name, outcome in trial.items():
            result = outcome.result
            rows.append(
                (
                    name,
                    outcome.loss_db,
                    result.selected,
                    result.measurements_used,
                    result.selected_power,
                    [(m.pair, m.power, m.z) for m in result.trace],
                )
            )
    return rows


# ----------------------------------------------------------------------
# End-to-end: batched trials vs the serial runner
# ----------------------------------------------------------------------


class TestRunTrialsBatched:
    @pytest.mark.parametrize("batch_size", [1, 8, 32])
    def test_bit_identical_to_serial(self, small_scenario, batch_size):
        serial = run_trials(
            small_scenario, standard_schemes(measurements_per_slot=4), 0.3, 7,
            base_seed=41,
        )
        batched = run_trials_batched(
            small_scenario,
            standard_schemes(measurements_per_slot=4),
            0.3,
            7,
            base_seed=41,
            batch_size=batch_size,
        )
        assert _deep_fingerprint(batched) == _deep_fingerprint(serial)

    def test_block_matches_serial_per_trial(self, small_scenario):
        schemes = standard_schemes(measurements_per_slot=4)
        block = run_trial_block(
            small_scenario,
            schemes,
            0.3,
            [trial_generator(43, k) for k in range(3)],
        )
        serial = run_trials(
            small_scenario, standard_schemes(measurements_per_slot=4), 0.3, 3,
            base_seed=43,
        )
        assert _deep_fingerprint(block) == _deep_fingerprint(serial)

    def test_empty_block_is_empty(self, small_scenario):
        assert run_trial_block(
            small_scenario, standard_schemes(measurements_per_slot=4), 0.3, []
        ) == []

    def test_no_schemes_rejected(self, small_scenario):
        with pytest.raises(ConfigurationError):
            run_trial_block(small_scenario, {}, 0.3, [trial_generator(0, 0)])

    def test_validation(self, small_scenario):
        schemes = standard_schemes(measurements_per_slot=4)
        with pytest.raises(ConfigurationError):
            run_trials_batched(small_scenario, schemes, 0.3, 0)
        with pytest.raises(ConfigurationError):
            run_trials_batched(small_scenario, schemes, 0.3, 2, batch_size=0)

    def test_parallel_batch_trials_validation(self, small_config, tmp_path):
        plan = plan_effectiveness_sweep(
            small_config, (SchemeSpec.of("Random"),), (0.3,), 2
        )
        store = ShardStore(tmp_path / "store")
        with pytest.raises(ConfigurationError):
            run_campaign(plan, store, max_workers=2, batch_trials=0)
        assert campaign_status(plan, store).done == 0  # refused before launching


# ----------------------------------------------------------------------
# Measurement fusion
# ----------------------------------------------------------------------


class TestMeasurePairs:
    def _pairs(self, count=6):
        # Stays inside the fixtures' 4 TX x 18 RX codebooks.
        return [BeamPair(index % 4, index + 1) for index in range(count)]

    def test_fused_matches_loop_and_stream_position(
        self, small_channel, tx_codebook, rx_codebook
    ):
        """Fused draws are bitwise the loop's, and leave the RNG in the
        exact same stream position (nothing downstream can diverge)."""
        pairs = self._pairs()
        fused_engine = MeasurementEngine(
            small_channel, np.random.default_rng(5), fading_blocks=4
        )
        loop_engine = MeasurementEngine(
            small_channel, np.random.default_rng(5), fading_blocks=4
        )
        fused = fused_engine.measure_pairs(tx_codebook, rx_codebook, pairs)
        looped = [
            loop_engine.measure_pair(tx_codebook, rx_codebook, pair) for pair in pairs
        ]
        assert [(m.pair, m.power, m.z) for m in fused] == [
            (m.pair, m.power, m.z) for m in looped
        ]
        assert fused_engine._rng.standard_normal() == loop_engine._rng.standard_normal()

    def test_empty_pairs(self, engine, tx_codebook, rx_codebook):
        assert engine.measure_pairs(tx_codebook, rx_codebook, []) == []

    def test_interference_falls_back_to_loop(
        self, small_channel, tx_codebook, rx_codebook
    ):
        """With interference the dwells draw data-dependently, so the
        fused path must route through the per-pair loop — still matching
        a hand-rolled loop draw for draw."""
        pairs = self._pairs()
        kwargs = dict(
            fading_blocks=4, interference_probability=0.5, interference_power=1.0
        )
        fused_engine = MeasurementEngine(
            small_channel, np.random.default_rng(9), **kwargs
        )
        loop_engine = MeasurementEngine(
            small_channel, np.random.default_rng(9), **kwargs
        )
        fused = fused_engine.measure_pairs(tx_codebook, rx_codebook, pairs)
        looped = [
            loop_engine.measure_pair(tx_codebook, rx_codebook, pair) for pair in pairs
        ]
        assert [(m.power, m.z) for m in fused] == [(m.power, m.z) for m in looped]
        assert fused_engine.interference_hits == loop_engine.interference_hits


class TestMeasureMany:
    def _context(self, tx_codebook, rx_codebook, engine, rate=0.5):
        total = tx_codebook.num_beams * rx_codebook.num_beams
        budget = MeasurementBudget.from_search_rate(total, rate)
        return AlignmentContext(tx_codebook, rx_codebook, engine, budget)

    def test_records_like_measure(self, tx_codebook, rx_codebook, engine):
        context = self._context(tx_codebook, rx_codebook, engine)
        pairs = [BeamPair(0, 0), BeamPair(1, 3), BeamPair(2, 7)]
        measurements = context.measure_many(pairs, slot=2)
        assert [m.pair for m in measurements] == pairs
        assert context.num_measurements == len(pairs)
        assert [m.pair for m in context.trace] == pairs
        for pair in pairs:
            assert context.is_measured(pair)

    def test_duplicate_pairs_rejected(self, tx_codebook, rx_codebook, engine):
        context = self._context(tx_codebook, rx_codebook, engine)
        with pytest.raises(ValidationError):
            context.measure_many([BeamPair(0, 0), BeamPair(0, 0)])

    def test_already_measured_rejected(self, tx_codebook, rx_codebook, engine):
        context = self._context(tx_codebook, rx_codebook, engine)
        context.measure(BeamPair(1, 1))
        with pytest.raises(ValidationError):
            context.measure_many([BeamPair(0, 0), BeamPair(1, 1)])

    def test_budget_charged_before_any_measurement(
        self, tx_codebook, rx_codebook, engine
    ):
        """An oversized batch raises before a single dwell happens."""
        total = tx_codebook.num_beams * rx_codebook.num_beams
        budget = MeasurementBudget(total_pairs=total, limit=2)
        context = AlignmentContext(tx_codebook, rx_codebook, engine, budget)
        with pytest.raises(BudgetExhaustedError):
            context.measure_many([BeamPair(0, 0), BeamPair(1, 1), BeamPair(2, 2)])
        assert context.num_measurements == 0
        assert context.trace == []
        assert not context.is_measured(BeamPair(0, 0))

    def test_empty_batch(self, tx_codebook, rx_codebook, engine):
        context = self._context(tx_codebook, rx_codebook, engine)
        assert context.measure_many([]) == []
        assert context.num_measurements == 0


# ----------------------------------------------------------------------
# Batched channel builder
# ----------------------------------------------------------------------


class TestChannelBatch:
    def test_batch_realizations_match_serial(self, small_scenario):
        batched = small_scenario.sample_channel_batch(
            [trial_generator(61, k) for k in range(5)]
        )
        serial = [
            small_scenario.sample_channel(trial_generator(61, k)) for k in range(5)
        ]
        for left, right in zip(batched, serial):
            assert left.tx_steering.tobytes() == right.tx_steering.tobytes()
            assert left.rx_steering.tobytes() == right.rx_steering.tobytes()
            assert left.powers.tobytes() == right.powers.tobytes()

    def test_mean_snr_matrices_match_serial(self, small_scenario):
        channels = small_scenario.sample_channel_batch(
            [trial_generator(67, k) for k in range(4)]
        )
        context = small_scenario.context()
        stacked = mean_snr_matrices(
            channels, context.tx_codebook, context.rx_codebook
        )
        for channel, matrix in zip(channels, stacked):
            serial = channel.mean_snr_matrix(context.tx_codebook, context.rx_codebook)
            assert matrix.tobytes() == serial.tobytes()
