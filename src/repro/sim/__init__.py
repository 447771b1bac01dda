"""Simulation harness: scenarios, trial running, sweeps, aggregation."""

from repro.sim.aggregate import SeriesStats, summarize
from repro.sim.batch import (
    DEFAULT_BATCH_TRIALS,
    run_trial_block,
    run_trials_batched,
)
from repro.sim.config import ChannelKind, ScenarioConfig
from repro.sim.metrics import PairEvaluation, evaluate_pair, loss_from_matrix_db, snr_loss_db
from repro.sim.parallel import SCHEME_BUILDERS, ParallelOutcome, SchemeSpec
from repro.sim.persistence import (
    load_cost_curve,
    load_effectiveness_sweep,
    save_cost_curve,
    save_effectiveness_sweep,
)
from repro.sim.runner import (
    AlgorithmFactory,
    TrialOutcome,
    run_trial,
    run_trials,
    standard_schemes,
)
from repro.sim.scenario import Scenario
from repro.sim.sweep import (
    CostEfficiencyCurve,
    EffectivenessSweep,
    effectiveness_sweep,
    required_search_rates,
)

__all__ = [
    "SeriesStats",
    "summarize",
    "DEFAULT_BATCH_TRIALS",
    "run_trial_block",
    "run_trials_batched",
    "ChannelKind",
    "ScenarioConfig",
    "PairEvaluation",
    "evaluate_pair",
    "loss_from_matrix_db",
    "snr_loss_db",
    "SCHEME_BUILDERS",
    "ParallelOutcome",
    "SchemeSpec",
    "load_cost_curve",
    "load_effectiveness_sweep",
    "save_cost_curve",
    "save_effectiveness_sweep",
    "AlgorithmFactory",
    "TrialOutcome",
    "run_trial",
    "run_trials",
    "standard_schemes",
    "Scenario",
    "CostEfficiencyCurve",
    "EffectivenessSweep",
    "effectiveness_sweep",
    "required_search_rates",
]
