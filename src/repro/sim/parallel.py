"""Picklable scheme specs and the shard trial executor.

Figure sweeps are embarrassingly parallel across trials (each trial is an
independent channel draw), but the scheme factories used by
:func:`repro.sim.runner.run_trial` are closures and do not pickle. This
module provides a picklable indirection: a :class:`SchemeSpec` names a
registered scheme plus its constructor keyword arguments, campaign
workers rebuild the scenario and schemes from specs, and results come
back as light :class:`ParallelOutcome` records (no measurement traces).

:func:`_run_trial_batch` executes one campaign shard's trials. Trial
``k`` uses exactly the same per-trial generator as the serial runner, so
a shard reproduces :func:`repro.sim.runner.run_trials`
outcome-for-outcome no matter which worker process runs it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.digital_rx import DigitalRxSearch
from repro.baselines.genie import GenieAligner
from repro.baselines.hierarchical_search import HierarchicalSearch
from repro.baselines.local_refine import LocalRefineSearch
from repro.baselines.random_search import RandomSearch
from repro.baselines.scan_search import ScanSearch
from repro.baselines.ucb import UcbSearch
from repro.core.bidirectional import BidirectionalAlignment
from repro.core.proposed import ProposedAlignment
from repro.exceptions import ConfigurationError
from repro.obs import MetricsRecorder, use_recorder
from repro.obs.checkpoint import CheckpointSpec
from repro.sim.batch import run_trial_block
from repro.sim.config import ScenarioConfig
from repro.sim.runner import TrialOutcome, run_trial
from repro.sim.scenario import Scenario
from repro.types import BeamPair
from repro.utils.rng import trial_generator

__all__ = ["SchemeSpec", "ParallelOutcome", "SCHEME_BUILDERS"]

#: Scheme name -> constructor. Every entry must be constructible from
#: keyword arguments alone; the genie additionally receives the channel.
SCHEME_BUILDERS = {
    "Random": RandomSearch,
    "Scan": ScanSearch,
    "Proposed": ProposedAlignment,
    "Bidirectional": BidirectionalAlignment,
    "Hierarchical": HierarchicalSearch,
    "LocalRefine": LocalRefineSearch,
    "UCB": UcbSearch,
    "DigitalRx": DigitalRxSearch,
    "Genie": GenieAligner,
}


@dataclass(frozen=True)
class SchemeSpec:
    """A picklable scheme description: registered name + kwargs."""

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(cls, name: str, **params: object) -> "SchemeSpec":
        """Convenience constructor: ``SchemeSpec.of("Proposed", mu=0.1)``."""
        if name not in SCHEME_BUILDERS:
            known = ", ".join(sorted(SCHEME_BUILDERS))
            raise ConfigurationError(f"unknown scheme {name!r}; known: {known}")
        return cls(name=name, params=tuple(sorted(params.items())))

    def build_factory(self):
        """The channel-aware factory the serial runner expects."""
        builder = SCHEME_BUILDERS[self.name]
        kwargs = dict(self.params)
        if self.name == "Genie":
            return lambda channel: builder(channel, **kwargs)
        return lambda channel: builder(**kwargs)


@dataclass(frozen=True)
class ParallelOutcome:
    """Cross-process-safe summary of one scheme's trial outcome."""

    algorithm: str
    loss_db: float
    measurements_used: int
    selected: BeamPair
    optimal_snr: float


def _to_parallel(outcomes: Dict[str, TrialOutcome]) -> Dict[str, ParallelOutcome]:
    """Strip one trial's outcomes down to their cross-process summary."""
    return {
        name: ParallelOutcome(
            algorithm=name,
            loss_db=outcome.loss_db,
            measurements_used=outcome.result.measurements_used,
            selected=outcome.result.selected,
            optimal_snr=outcome.evaluation.optimal_snr,
        )
        for name, outcome in outcomes.items()
    }


@functools.lru_cache(maxsize=8)
def _scenario_for(config: ScenarioConfig) -> Scenario:
    """Per-process scenario cache (codebooks are immutable)."""
    scenario = Scenario(config)
    scenario.context()  # precompute the shared pair table once per process
    return scenario


def _worker_aux(
    inner: Optional[MetricsRecorder], checkpointer: Optional[Any]
) -> Optional[Dict[str, Any]]:
    """Package a worker's observability state for the trip home.

    ``None`` when nothing was collected; otherwise a dict with the
    metrics snapshot and/or the checkpoint event payloads, so one return
    slot carries both without widening the tuple the tests unpack.
    """
    if inner is None and checkpointer is None:
        return None
    return {
        "metrics": inner.metrics.snapshot() if inner is not None else None,
        "checkpoints": checkpointer.payload() if checkpointer is not None else None,
    }


def _run_trial_batch(
    config: ScenarioConfig,
    specs: Tuple[SchemeSpec, ...],
    search_rate: float,
    base_seed: int,
    trial_indices: Tuple[int, ...],
    collect_metrics: bool = False,
    batch_trials: Optional[int] = None,
    checkpoints: Optional[CheckpointSpec] = None,
) -> Tuple[List[Dict[str, ParallelOutcome]], Optional[Dict[str, Any]]]:
    """One campaign shard's trials, run in this process.

    Determinism does not depend on where the shard runs: trial ``k``
    draws from ``trial_generator(base_seed, k)`` in whichever worker
    process executes it. With ``collect_metrics`` the trials run under a
    shard-local :class:`~repro.obs.MetricsRecorder`, and with
    ``checkpoints`` under a shard-local flight recorder; the metrics
    snapshot and checkpoint payloads come back in the second slot.

    ``batch_trials`` routes the trials through the batched engine
    (:func:`repro.sim.batch.run_trial_block`) in blocks of that size,
    still outcome-identical to the serial runner.
    """
    scenario = _scenario_for(config)
    schemes = {spec.name: spec.build_factory() for spec in specs}
    batch_results: List[Dict[str, ParallelOutcome]] = []

    def _run_all() -> None:
        if batch_trials is not None:
            for start in range(0, len(trial_indices), batch_trials):
                chunk = trial_indices[start : start + batch_trials]
                rngs = [trial_generator(base_seed, trial) for trial in chunk]
                for outcomes in run_trial_block(
                    scenario, schemes, search_rate, rngs, trial_indices=chunk
                ):
                    batch_results.append(_to_parallel(outcomes))
            return
        for trial_index in trial_indices:
            outcomes = run_trial(
                scenario,
                schemes,
                search_rate,
                trial_generator(base_seed, trial_index),
                trial_index=trial_index,
            )
            batch_results.append(_to_parallel(outcomes))

    inner = MetricsRecorder() if collect_metrics else None
    checkpointer = checkpoints.build(inner) if checkpoints is not None else None
    active = checkpointer if checkpointer is not None else inner
    if active is not None:
        with use_recorder(active):
            _run_all()
    else:
        _run_all()
    return batch_results, _worker_aux(inner, checkpointer)
