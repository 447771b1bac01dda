"""Trial runner: one channel draw, several schemes, one budget.

Fairness rules baked in:

* every scheme in a trial faces the *same* channel realization (same
  geometry, same mean-SNR matrix, hence the same optimum);
* every scheme gets its own independent measurement-noise/fading RNG
  stream (spawned children), so no scheme's draws perturb another's;
* every scheme pays through an identical measurement budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.baselines.random_search import RandomSearch
from repro.baselines.scan_search import ScanSearch
from repro.channel.base import ClusteredChannel
from repro.core.base import AlignmentContext, BeamAlignmentAlgorithm
from repro.core.proposed import ProposedAlignment
from repro.core.result import AlignmentResult
from repro.exceptions import ConfigurationError
from repro.measurement.budget import MeasurementBudget
from repro.measurement.measurer import MeasurementEngine
from repro.obs import ProgressCallback, ProgressReporter, get_logger, get_recorder
from repro.sim.metrics import PairEvaluation, evaluate_pair
from repro.sim.scenario import Scenario
from repro.utils.rng import labeled_spawn, trial_generator

__all__ = [
    "AlgorithmFactory",
    "TrialOutcome",
    "standard_schemes",
    "run_trial",
    "run_trial_rates",
    "run_trials",
]

logger = get_logger("sim.runner")

#: Builds a scheme instance for a given channel realization. Most schemes
#: ignore the channel; the genie upper bound needs it.
AlgorithmFactory = Callable[[ClusteredChannel], BeamAlignmentAlgorithm]


@dataclass(frozen=True)
class TrialOutcome:
    """One scheme's outcome in one trial, evaluated against ground truth."""

    algorithm: str
    result: AlignmentResult
    evaluation: PairEvaluation

    @property
    def loss_db(self) -> float:
        """SNR loss of the selected pair (Eq. 31, non-negative)."""
        return self.evaluation.loss_db

    @property
    def search_rate(self) -> float:
        """Consumed search rate (Eq. 32)."""
        return self.result.search_rate


def standard_schemes(
    measurements_per_slot: int = 8,
) -> Dict[str, AlgorithmFactory]:
    """The paper's three compared schemes: Random, Scan, Proposed."""
    return {
        "Random": lambda channel: RandomSearch(),
        "Scan": lambda channel: ScanSearch(),
        "Proposed": lambda channel: ProposedAlignment(
            measurements_per_slot=measurements_per_slot
        ),
    }


def _stream_labels(schemes: Mapping[str, AlgorithmFactory]) -> List[str]:
    """RNG stream labels for one trial: channel, then per-scheme pairs.

    Order matches the historical ``spawn(rng, 1 + 2 * len(schemes))``
    layout exactly, so labeling the streams changes no draw.
    """
    labels = ["channel"]
    for name in schemes:
        labels.append(f"{name}.measurement")
        labels.append(f"{name}.algorithm")
    return labels


def _checkpoint_trial_setup(recorder, channel: ClusteredChannel, snr_matrix: np.ndarray) -> None:
    """Flight-recorder digests for a trial's channel draw and gain table."""
    recorder.checkpoint(
        "channel.draw",
        {
            "powers": channel.powers,
            "tx_steering": channel.tx_steering,
            "rx_steering": channel.rx_steering,
        },
        stream="channel",
    )
    tx, rx = np.unravel_index(int(np.argmax(snr_matrix)), snr_matrix.shape)
    recorder.checkpoint(
        "channel.gain_table",
        {"snr": snr_matrix},
        optimal_tx=int(tx),
        optimal_rx=int(rx),
        optimal_snr=float(snr_matrix[tx, rx]),
    )


def _checkpoint_beam_selection(
    recorder, name: str, result: AlignmentResult, snr_matrix: np.ndarray
) -> None:
    """Digest one scheme's final selection; the probe table rides along
    as attrs so ``repro inspect`` can storyboard the decision."""
    probes = []
    for measurement in result.trace:
        pair = measurement.pair
        probes.append(
            {
                "tx": pair.tx_index if pair is not None else None,
                "rx": pair.rx_index if pair is not None else None,
                "slot": measurement.slot,
                "power": measurement.power,
                "true_snr": (
                    float(snr_matrix[pair.tx_index, pair.rx_index])
                    if pair is not None
                    else None
                ),
            }
        )
    recorder.checkpoint(
        "beam.selection",
        {
            "selected": np.array(
                [result.selected.tx_index, result.selected.rx_index], dtype=np.int64
            ),
            "power": np.array([result.selected_power], dtype=float),
        },
        stream=f"{name}.algorithm",
        measurements=result.measurements_used,
        selected_tx=result.selected.tx_index,
        selected_rx=result.selected.rx_index,
        selected_power=float(result.selected_power),
        probes=probes,
    )


def _execute_schemes(
    scenario: Scenario,
    shared,
    channel: ClusteredChannel,
    snr_matrix: np.ndarray,
    schemes: Mapping[str, AlgorithmFactory],
    scheme_rngs: List[np.random.Generator],
    search_rates: Sequence[float],
    trial_index: Optional[int],
    recorder,
) -> List[Dict[str, TrialOutcome]]:
    """Run every scheme against one channel realization at every rate.

    Returns one outcome mapping per entry of ``search_rates``. Each
    scheme aligns once, through
    :meth:`~repro.core.base.BeamAlignmentAlgorithm.align_limits`, under
    a budget holding the largest rate's limit, so work shared between
    rates runs once. The trial's checkpoints are captured and replayed
    under each rate's ``trial_scope``, so every (rate, trial) records
    exactly the events of a one-rate run. Shared by the serial
    :func:`run_trial` and the batched engine in :mod:`repro.sim.batch`;
    only the channel/ground-truth preparation differs.
    """
    limits = [shared.make_budget(rate).limit for rate in search_rates]
    checkpoints = recorder.checkpoints_enabled
    if checkpoints:
        with recorder.capture() as setup:
            _checkpoint_trial_setup(recorder, channel, snr_matrix)
    by_scheme: Dict[str, List[TrialOutcome]] = {}
    captures = {}
    for index, (name, factory) in enumerate(schemes.items()):
        engine = MeasurementEngine(
            channel, scheme_rngs[2 * index], fading_blocks=scenario.config.fading_blocks
        )
        context = AlignmentContext(
            shared.tx_codebook,
            shared.rx_codebook,
            engine,
            MeasurementBudget(shared.total_pairs, max(limits)),
            stream=f"{name}.measurement",
        )
        algorithm = factory(channel)
        with recorder.scheme_scope(name), recorder.span(f"scheme.{name}") as scheme_span:
            with recorder.capture() as captures[name]:
                results = algorithm.align_limits(context, scheme_rngs[2 * index + 1], limits)
            by_scheme[name] = [
                TrialOutcome(
                    algorithm=name,
                    result=results[limit],
                    evaluation=evaluate_pair(snr_matrix, results[limit].selected),
                )
                for limit in limits
            ]
            scheme_span.annotate(
                search_rates=list(search_rates),
                loss_db=[outcome.loss_db for outcome in by_scheme[name]],
                measurements=[outcome.result.measurements_used for outcome in by_scheme[name]],
            )

    per_rate = [
        {name: by_scheme[name][rate_index] for name in schemes}
        for rate_index in range(len(limits))
    ]
    for rate, limit, outcomes in zip(search_rates, limits, per_rate):
        if recorder.enabled:
            for name, outcome in outcomes.items():
                recorder.increment(
                    f"scheme.{name}.measurements", outcome.result.measurements_used
                )
                recorder.increment(f"scheme.{name}.trials")
        if checkpoints:
            with recorder.trial_scope(trial_index, rate):
                _replay_trial(recorder, setup, captures, outcomes, limit, snr_matrix)
    return per_rate


def _replay_trial(recorder, setup, captures, outcomes, limit, snr_matrix) -> None:
    """One (rate, trial)'s checkpoints, in the order a one-rate run
    records them: setup, each scheme's run and selection, then metrics."""
    recorder.replay(setup.events)
    for name, outcome in outcomes.items():
        recorder.replay(captures[name].branch_events(limit))
        with recorder.scheme_scope(name):
            _checkpoint_beam_selection(recorder, name, outcome.result, snr_matrix)
    recorder.checkpoint(
        "trial.metrics",
        {"loss_db": np.array([outcomes[name].loss_db for name in outcomes])},
        schemes=list(outcomes),
        losses={name: float(outcomes[name].loss_db) for name in outcomes},
    )


def run_trial(
    scenario: Scenario,
    schemes: Mapping[str, AlgorithmFactory],
    search_rate: float,
    rng: np.random.Generator,
    trial_index: Optional[int] = None,
) -> Dict[str, TrialOutcome]:
    """One channel draw; every scheme aligns under the same budget.

    ``trial_index`` scopes flight-recorder checkpoints (it never affects
    the computation); callers that know the trial's global index pass it
    so digests from different engines compare at the same key.
    """
    return run_trial_rates(scenario, schemes, [search_rate], rng, trial_index)[0]


def run_trial_rates(
    scenario: Scenario,
    schemes: Mapping[str, AlgorithmFactory],
    search_rates: Sequence[float],
    rng: np.random.Generator,
    trial_index: Optional[int] = None,
) -> List[Dict[str, TrialOutcome]]:
    """One channel draw scored at every rate; one outcome mapping per rate.

    Each mapping is bit-identical to :func:`run_trial` at that rate with
    the same ``rng`` state, checkpoints included: common random numbers
    let every rate share the draw, and each scheme's work shared between
    rates runs once.
    """
    if not schemes:
        raise ConfigurationError("run_trial needs at least one scheme")
    recorder = get_recorder()
    shared = scenario.context()
    with recorder.span("trial", search_rates=list(search_rates)) as trial_span:
        streams = labeled_spawn(rng, _stream_labels(schemes))
        scheme_rngs = list(streams.values())[1:]
        channel = scenario.sample_channel(streams["channel"])
        # This both evaluates the trial's ground truth and warms the
        # channel's codebook-coupling table that measure_pair reuses.
        snr_matrix = channel.mean_snr_matrix(shared.tx_codebook, shared.rx_codebook)
        per_rate = _execute_schemes(
            scenario,
            shared,
            channel,
            snr_matrix,
            schemes,
            scheme_rngs,
            search_rates,
            trial_index,
            recorder,
        )
        trial_span.annotate(schemes=list(schemes))
    return per_rate


def run_trials(
    scenario: Scenario,
    schemes: Mapping[str, AlgorithmFactory],
    search_rate: float,
    num_trials: int,
    base_seed: int = 0,
    progress: Optional[ProgressCallback] = None,
) -> List[Dict[str, TrialOutcome]]:
    """Independent trials with per-trial deterministic seeding.

    Trial ``k`` always sees the same channel for a given ``base_seed``
    regardless of how many other trials run — experiments are resumable
    and individually reproducible. ``progress``, if given, receives
    throttled :class:`~repro.obs.ProgressEvent` updates with an ETA;
    progress reporting never touches the trial RNG streams.
    """
    if num_trials < 1:
        raise ConfigurationError(f"num_trials must be >= 1, got {num_trials}")
    recorder = get_recorder()
    reporter = ProgressReporter(num_trials, progress, label="trials")
    logger.debug(
        "run_trials: %d trials at rate %.3f (seed %d)", num_trials, search_rate, base_seed
    )
    outcomes: List[Dict[str, TrialOutcome]] = []
    with recorder.span(
        "run_trials", num_trials=num_trials, search_rate=search_rate, base_seed=base_seed
    ):
        for trial in range(num_trials):
            outcomes.append(
                run_trial(
                    scenario,
                    schemes,
                    search_rate,
                    trial_generator(base_seed, trial),
                    trial_index=trial,
                )
            )
            reporter.update()
    return outcomes
