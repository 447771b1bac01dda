"""Tests for the proposed alignment scheme (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import AlignmentContext
from repro.core.policies import RoundRobinTxPolicy
from repro.core.proposed import ProposedAlignment
from repro.estimation.sample_covariance import BackProjectionEstimator
from repro.exceptions import ValidationError
from repro.measurement.budget import MeasurementBudget
from repro.measurement.measurer import MeasurementEngine
from repro.sim.parallel import SCHEME_BUILDERS, SchemeSpec
from repro.types import BeamPair


def _context(small_channel, tx_codebook, rx_codebook, rng, limit):
    engine = MeasurementEngine(small_channel, rng, fading_blocks=4)
    budget = MeasurementBudget(
        total_pairs=tx_codebook.num_beams * rx_codebook.num_beams, limit=limit
    )
    return AlignmentContext(tx_codebook, rx_codebook, engine, budget)


class TestConstruction:
    def test_invalid_j(self):
        with pytest.raises(ValidationError):
            ProposedAlignment(measurements_per_slot=0)

    def test_invalid_threshold(self):
        with pytest.raises(ValidationError):
            ProposedAlignment(signal_threshold=-1.0)

    def test_invalid_exploration(self):
        with pytest.raises(ValidationError):
            ProposedAlignment(exploration=1.5)


class TestSlotStructure:
    def test_budget_fully_spent(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=30)
        result = ProposedAlignment(measurements_per_slot=8).align(context, rng)
        assert result.measurements_used == 30

    def test_slot_sizes_respected(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=20)
        result = ProposedAlignment(measurements_per_slot=8).align(context, rng)
        # 20 = 8 + 8 + 4: three slots.
        assert len(result.slots) == 3
        sizes = [
            len(s.probe_rx_beams) + (1 if s.decided_rx_beam is not None else 0)
            for s in result.slots
        ]
        assert sizes == [8, 8, 4]

    def test_one_tx_beam_per_slot(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=24)
        result = ProposedAlignment(measurements_per_slot=8).align(context, rng)
        for slot in result.slots:
            tx_beams = {
                m.pair.tx_index
                for m in result.trace
                if m.slot == slot.slot and m.pair is not None
            }
            assert tx_beams == {slot.tx_beam}

    def test_no_repeated_pairs(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=40)
        result = ProposedAlignment().align(context, rng)
        pairs = [m.pair for m in result.trace]
        assert len(pairs) == len(set(pairs))

    def test_decided_beam_not_in_probes(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=32)
        result = ProposedAlignment().align(context, rng)
        for slot in result.slots:
            if slot.decided_rx_beam is not None:
                assert slot.decided_rx_beam not in slot.probe_rx_beams

    def test_full_budget_measures_everything(self, small_channel, tx_codebook, rx_codebook, rng):
        total = tx_codebook.num_beams * rx_codebook.num_beams
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=total)
        result = ProposedAlignment().align(context, rng)
        assert result.measurements_used == total
        assert len(result.measured_pairs()) == total


class TestBehaviour:
    def test_finds_good_pair_with_generous_budget(
        self, small_channel, tx_codebook, rx_codebook, rng
    ):
        from repro.sim.metrics import loss_from_matrix_db

        snr = small_channel.mean_snr_matrix(tx_codebook, rx_codebook)
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=50)
        result = ProposedAlignment().align(context, rng)
        assert loss_from_matrix_db(snr, result.selected) < 6.0

    def test_custom_tx_policy(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=24)
        result = ProposedAlignment(tx_policy=RoundRobinTxPolicy()).align(context, rng)
        assert [s.tx_beam for s in result.slots] == [0, 1, 2]

    def test_custom_estimator_factory(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=16)
        algo = ProposedAlignment(estimator_factory=BackProjectionEstimator)
        result = algo.align(context, rng)
        assert result.measurements_used == 16

    def test_tiny_budget_single_measurement(
        self, small_channel, tx_codebook, rx_codebook, rng
    ):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=1)
        result = ProposedAlignment().align(context, rng)
        assert result.measurements_used == 1
        assert result.selected is not None

    def test_j_one_degenerates_gracefully(
        self, small_channel, tx_codebook, rx_codebook, rng
    ):
        """J=1: no probes, every slot is a single (random) measurement."""
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=10)
        result = ProposedAlignment(measurements_per_slot=1).align(context, rng)
        assert result.measurements_used == 10

    def test_deterministic_given_rng(self, small_channel, tx_codebook, rx_codebook):
        results = []
        for _ in range(2):
            context = _context(
                small_channel, tx_codebook, rx_codebook, np.random.default_rng(5), limit=24
            )
            result = ProposedAlignment().align(context, np.random.default_rng(6))
            results.append(result.selected)
        assert results[0] == results[1]


def _limits_context(channel, tx_codebook, rx_codebook, limit, **engine_kwargs):
    """A context whose engine has its own generator (seed 5)."""
    engine = MeasurementEngine(
        channel, np.random.default_rng(5), fading_blocks=4, **engine_kwargs
    )
    budget = MeasurementBudget(
        total_pairs=tx_codebook.num_beams * rx_codebook.num_beams, limit=limit
    )
    return AlignmentContext(tx_codebook, rx_codebook, engine, budget)


def _fingerprint(result):
    """Everything a run decides: selection, samples, slot records."""
    return (
        result.selected,
        result.selected_power,
        result.measurements_used,
        [(m.pair, m.z, m.slot) for m in result.trace],
        list(result.slots),
    )


def _assert_limits_exact(algorithm, channel, tx_codebook, rx_codebook, limits, **engine_kwargs):
    """``align_limits`` equals a fresh ``align`` at every limit."""
    context = _limits_context(
        channel, tx_codebook, rx_codebook, max(limits), **engine_kwargs
    )
    shared = algorithm.align_limits(context, np.random.default_rng(6), limits)
    assert sorted(shared) == sorted(set(limits))
    for limit in set(limits):
        fresh = algorithm.align(
            _limits_context(channel, tx_codebook, rx_codebook, limit, **engine_kwargs),
            np.random.default_rng(6),
        )
        assert _fingerprint(shared[limit]) == _fingerprint(fresh), limit


class TestAlignLimits:
    """One Algorithm 1 run, forked at each smaller budget, is exact."""

    @pytest.mark.parametrize("name", sorted(SCHEME_BUILDERS))
    def test_every_scheme_matches_fresh_runs(
        self, name, small_channel, tx_codebook, rx_codebook
    ):
        algorithm = SchemeSpec.of(name).build_factory()(small_channel)
        _assert_limits_exact(
            algorithm, small_channel, tx_codebook, rx_codebook, [25, 40, 51]
        )

    @pytest.mark.parametrize(
        "limits",
        [
            [3, 8, 16, 40],  # below J (fork before slot 0); multiples of J
            [33, 7, 33, 20, 7, 61],  # duplicates, unsorted
            [10, 50, 72],  # the largest limit measures every pair
            [72, 71, 64, 1],
        ],
    )
    def test_proposed_fork_points(self, limits, small_channel, tx_codebook, rx_codebook):
        _assert_limits_exact(
            ProposedAlignment(), small_channel, tx_codebook, rx_codebook, limits
        )

    def test_single_measurement_slots(self, small_channel, tx_codebook, rx_codebook):
        """J=1 never solves; every slot is one random measurement."""
        _assert_limits_exact(
            ProposedAlignment(measurements_per_slot=1),
            small_channel,
            tx_codebook,
            rx_codebook,
            [1, 6, 13, 30],
        )

    def test_interference(self, small_channel, tx_codebook, rx_codebook):
        _assert_limits_exact(
            ProposedAlignment(),
            small_channel,
            tx_codebook,
            rx_codebook,
            [4, 12, 27, 45],
            interference_probability=0.3,
            interference_power=0.5,
        )

    @pytest.mark.parametrize("estimator", ["ls", "backprojection"])
    def test_other_estimators(self, estimator, small_channel, tx_codebook, rx_codebook):
        from repro.estimation.ls_covariance import LsCovarianceEstimator

        factory = {
            "ls": LsCovarianceEstimator,
            "backprojection": BackProjectionEstimator,
        }[estimator]
        _assert_limits_exact(
            ProposedAlignment(estimator_factory=factory),
            small_channel,
            tx_codebook,
            rx_codebook,
            [6, 19, 35],
        )

    def test_fewer_solves_than_separate_runs(
        self, small_channel, tx_codebook, rx_codebook
    ):
        from repro.estimation.ml_covariance import MlCovarianceEstimator

        built = []

        def factory():
            built.append(MlCovarianceEstimator())
            return built[-1]

        limits = [16, 32, 48]
        algorithm = ProposedAlignment(estimator_factory=factory)
        context = _limits_context(small_channel, tx_codebook, rx_codebook, 48)
        algorithm.align_limits(context, np.random.default_rng(6), limits)
        # One estimator is built; forks copy it, so the prefix's solves
        # (the first 48 // 8 = 6 slots) are counted once.
        assert len(built) == 1
        assert built[0].num_solves == 6

    def test_checkpoint_branches_match_fresh_runs(
        self, small_channel, tx_codebook, rx_codebook
    ):
        from repro.obs import CheckpointRecorder, use_recorder

        def digests(captured):
            recorder = CheckpointRecorder()
            with recorder.trial_scope(0, 0.5):
                recorder.replay(captured)
            return [(event.stage, event.digest) for event in recorder.events]

        limits = [5, 21, 40]
        recorder = CheckpointRecorder()
        with use_recorder(recorder):
            context = _limits_context(small_channel, tx_codebook, rx_codebook, 40)
            with recorder.capture() as shared:
                ProposedAlignment().align_limits(context, np.random.default_rng(6), limits)
            for limit in limits:
                fresh_context = _limits_context(
                    small_channel, tx_codebook, rx_codebook, limit
                )
                with recorder.capture() as fresh:
                    ProposedAlignment().align(fresh_context, np.random.default_rng(6))
                assert digests(shared.branch_events(limit)) == digests(fresh.events)
        assert recorder.events == []  # everything was captured, nothing recorded

    def test_limits_must_match_budget(self, small_channel, tx_codebook, rx_codebook):
        context = _limits_context(small_channel, tx_codebook, rx_codebook, 20)
        with pytest.raises(ValidationError):
            ProposedAlignment().align_limits(context, np.random.default_rng(6), [8, 16])
        with pytest.raises(ValidationError):
            ProposedAlignment().align_limits(context, np.random.default_rng(6), [])
