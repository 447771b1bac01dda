"""The paper's proposed learning-based beam alignment (Algorithm 1).

Per TX-slot ``i`` (Sec. IV-C, "Integrated Design of Beam Alignment"):

1. **Forward transmission** — the transmitter picks ``u_i`` (randomly,
   without repetition, per Sec. IV-B2) and dwells on it for the slot.
2. **Receiver beam direction selection** — the receiver picks the first
   ``J - 1`` RX probe directions as the codebook beams with the largest
   estimated quality ``v^H Q_hat v`` under the *previous* slot's
   covariance estimate (random for the very first slot).
3. **Receiver measurement** — it measures those ``J - 1`` pairs.
4. **Receiver update and measurement** — it estimates the slot covariance
   from the ``J - 1`` power statistics via penalized ML (Eq. 23), then
   takes the J-th measurement on the beam maximizing ``v^H Q_hat v``
   (Eq. 26).
5. After ``I`` slots, the best *measured* pair wins (Eq. 30).

Already-measured pairs are never re-measured; when the greedy choice is
excluded the next-best available beam is taken.

**One run serves every budget.** The budget enters the slot loop in two
places only: the slot size ``min(J, remaining, available)`` and the
exhaustion check. While ``limit - spent >= J`` both read the same at any
larger limit, so the run at a smaller limit is, draw for draw, the run
at the largest one up to the first slot where ``limit - spent < J``.
:meth:`ProposedAlignment.align_limits` therefore runs Algorithm 1 once,
at the largest limit, and before each slot forks every smaller limit
that slot could overrun: the fork (context, RNG, estimator and slot
state copies) finishes only its own tail.

**Detection floor.** A literal argmax over ``v^H Q_hat v`` degenerates on
orthogonal (DFT-grid) codebooks: the estimate built from ``J-1``
orthogonal probes carries no energy along any other codebook beam, so
every unprobed beam ties at zero and a deterministic argsort would pin
the scheme to the lowest-indexed beams forever. The receiver knows its
noise floor ``1/gamma``, so the implementation exploits a beam only when
its estimated gain clears ``signal_threshold / gamma``; selection slots
not filled by above-floor beams fall back to uniform random exploration.
This is the natural reading of the paper's design — the estimate guides
measurement *where it actually contains information* — and without it
Algorithm 1 is unusable at low search rates (the ``abl-floor`` benchmark
quantifies this).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.core.base import AlignmentContext, BeamAlignmentAlgorithm, check_limits
from repro.core.policies import RandomTxPolicy, TxBeamPolicy
from repro.core.result import AlignmentResult, SlotRecord
from repro.estimation.base import CovarianceEstimator
from repro.estimation.ml_covariance import MlCovarianceEstimator
from repro.exceptions import ValidationError
from repro.obs import get_recorder
from repro.types import BeamPair
from repro.utils.validation import check_probability

__all__ = ["ProposedAlignment"]

EstimatorFactory = Callable[[], CovarianceEstimator]


def _available_beams(num_beams: int, excluded: Set[int]) -> np.ndarray:
    """Ascending indices of the beams not in ``excluded``."""
    if not excluded:
        return np.arange(num_beams)
    mask = np.ones(num_beams, dtype=bool)
    mask[list(excluded)] = False
    return np.flatnonzero(mask)


@dataclass
class _SlotState:
    """Everything Algorithm 1 carries from one TX-slot to the next."""

    context: AlignmentContext
    rng: np.random.Generator
    estimator: CovarianceEstimator
    per_slot: int
    gain_floor: float
    previous_estimate: Optional[np.ndarray] = None
    used_tx: Set[int] = field(default_factory=set)
    slot_records: List[SlotRecord] = field(default_factory=list)
    slot: int = -1

    def fork(self, limit: int) -> "_SlotState":
        """An independent copy of the run so far, metered against ``limit``.

        The estimator is copied shallowly: estimators replace their
        warm-start arrays on every solve and never mutate them.
        """
        return _SlotState(
            context=self.context.fork(limit),
            rng=copy.deepcopy(self.rng),
            estimator=copy.copy(self.estimator),
            per_slot=self.per_slot,
            gain_floor=self.gain_floor,
            previous_estimate=self.previous_estimate,
            used_tx=set(self.used_tx),
            slot_records=list(self.slot_records),
            slot=self.slot,
        )


class ProposedAlignment(BeamAlignmentAlgorithm):
    """Adaptive, covariance-estimation-guided beam alignment.

    Parameters
    ----------
    measurements_per_slot:
        ``J`` — RX measurements per TX-slot (paper Fig. 4). The budget is
        split into ``I = ceil(L / J)`` slots; a final partial slot uses
        whatever remains so the consumed search rate matches the target.
    estimator_factory:
        Builds a fresh covariance estimator per alignment run (default:
        the penalized-ML estimator of Eq. 23). The estimator instance
        persists across slots, so warm-starting estimators carry channel
        knowledge forward exactly as Sec. IV-C intends.
    tx_policy:
        TX-slot beam policy (default: random without repetition).
    exploration:
        Minimum fraction of each slot's probe beams drawn uniformly at
        random even when the estimate offers enough above-floor beams.
        Keeps a trickle of exploration on channels where an early lock-on
        would otherwise freeze coverage; 0 reproduces the paper exactly.
    signal_threshold:
        The detection floor, in multiples of the noise variance: a beam
        is exploited only when its estimated gain ``v^H Q_hat v`` exceeds
        ``signal_threshold * (1 / gamma)``. See the module docstring.
    """

    name = "Proposed"

    def __init__(
        self,
        measurements_per_slot: int = 8,
        estimator_factory: Optional[EstimatorFactory] = None,
        tx_policy: Optional[TxBeamPolicy] = None,
        exploration: float = 0.25,
        signal_threshold: float = 0.5,
    ) -> None:
        if measurements_per_slot < 1:
            raise ValidationError(
                f"measurements_per_slot must be >= 1, got {measurements_per_slot}"
            )
        if signal_threshold < 0:
            raise ValidationError(
                f"signal_threshold must be >= 0, got {signal_threshold}"
            )
        self._measurements_per_slot = measurements_per_slot
        self._estimator_factory = estimator_factory or MlCovarianceEstimator
        self._tx_policy = tx_policy or RandomTxPolicy()
        self._exploration = check_probability(exploration, "exploration")
        self._signal_threshold = signal_threshold

    # ------------------------------------------------------------------

    def align(
        self,
        context: AlignmentContext,
        rng: np.random.Generator,
    ) -> AlignmentResult:
        return self._run_slots(self._start(context, rng), [], {})

    def align_limits(
        self,
        context: AlignmentContext,
        rng: np.random.Generator,
        limits: Sequence[int],
    ) -> Dict[int, AlignmentResult]:
        """One slot loop serves every limit (see the module docstring)."""
        ordered = check_limits(context, limits)
        results: Dict[int, AlignmentResult] = {}
        results[ordered[-1]] = self._run_slots(
            self._start(context, rng), ordered[:-1], results
        )
        return results

    def _start(self, context: AlignmentContext, rng: np.random.Generator) -> _SlotState:
        return _SlotState(
            context=context,
            rng=rng,
            estimator=self._estimator_factory(),
            per_slot=min(self._measurements_per_slot, context.rx_codebook.num_beams),
            gain_floor=self._signal_threshold * context.noise_variance,
        )

    def _run_slots(
        self,
        state: _SlotState,
        pending: List[int],
        results: Dict[int, AlignmentResult],
    ) -> AlignmentResult:
        """Run slots until ``state``'s budget is spent; return its result.

        ``pending`` holds smaller limits, ascending. Before each slot,
        every pending limit the next slot could overrun forks off the
        current state and finishes its own tail into ``results``; up to
        that slot its run is this one.
        """
        budget = state.context.budget
        while True:
            while pending and pending[0] - budget.spent < state.per_slot:
                limit = pending.pop(0)
                with get_recorder().branch(limit):
                    results[limit] = self._run_slots(state.fork(limit), [], results)
            if budget.exhausted or not self._run_slot(state):
                return state.context.result(self.name, slots=state.slot_records)

    def _run_slot(self, state: _SlotState) -> bool:
        """One TX-slot of Algorithm 1; False once every pair is measured."""
        context = state.context
        rng = state.rng
        rx_codebook = context.rx_codebook
        state.slot += 1
        slot = state.slot
        tx_index = self._pick_tx_beam(context, slot, state.used_tx, rng)
        if tx_index is None:
            return False  # every pair measured; nothing left to learn
        state.used_tx.add(tx_index)
        measured_rx = context.measured_rx_beams(tx_index)
        available = rx_codebook.num_beams - len(measured_rx)
        size = min(state.per_slot, context.budget.remaining, available)
        if size <= 0:
            return True

        probe_count = size - 1
        probe_beams = self._select_probe_beams(
            rx_codebook,
            state.previous_estimate,
            probe_count,
            measured_rx,
            state.gain_floor,
            rng,
        )
        measurements = context.measure_many(
            [BeamPair(tx_index, rx_index) for rx_index in probe_beams], slot=slot
        )
        powers = [measurement.power for measurement in measurements]

        decided_beam: Optional[int] = None
        estimate = state.previous_estimate
        estimator_converged: Optional[bool] = None
        if probe_beams:
            probes = rx_codebook.vectors[:, probe_beams]
            estimate = state.estimator.estimate(
                probes, np.asarray(powers), context.noise_variance
            )
            last_result = getattr(state.estimator, "last_result", None)
            if last_result is not None:
                estimator_converged = bool(last_result.converged)
        if size > len(probe_beams):
            exclude = measured_rx | set(probe_beams)
            decided_beam = self._decide_beam(
                rx_codebook, estimate, exclude, state.gain_floor, rng
            )
            context.measure(BeamPair(tx_index, decided_beam), slot=slot)
        state.previous_estimate = estimate

        state.slot_records.append(
            SlotRecord(
                slot=slot,
                tx_beam=tx_index,
                probe_rx_beams=tuple(probe_beams),
                decided_rx_beam=decided_beam,
                estimator_converged=estimator_converged,
            )
        )
        return True

    # ------------------------------------------------------------------

    def _pick_tx_beam(
        self,
        context: AlignmentContext,
        slot: int,
        used_tx: Set[int],
        rng: np.random.Generator,
    ) -> Optional[int]:
        """TX beam for this slot, guaranteed to have unmeasured RX pairs."""
        tx_codebook = context.tx_codebook
        rx_total = context.rx_codebook.num_beams
        for _ in range(tx_codebook.num_beams):
            candidate = self._tx_policy.next_beam(slot, tx_codebook, used_tx, rng)
            if len(context.measured_rx_beams(candidate)) < rx_total:
                return candidate
            used_tx.add(candidate)
        for candidate in range(tx_codebook.num_beams):
            if len(context.measured_rx_beams(candidate)) < rx_total:
                return candidate
        return None

    def _select_probe_beams(
        self,
        rx_codebook,
        previous_estimate: Optional[np.ndarray],
        count: int,
        measured_rx: Set[int],
        gain_floor: float,
        rng: np.random.Generator,
    ) -> List[int]:
        """The first ``J-1`` RX directions of the slot (Sec. IV-B2).

        Exploit the above-floor beams of the previous estimate (largest
        ``v^H Q_hat v`` first), reserve at least ``exploration * count``
        slots for random beams, and fill any shortfall randomly.
        """
        if count <= 0:
            return []
        candidates = _available_beams(rx_codebook.num_beams, measured_rx)
        count = min(count, len(candidates))
        chosen: List[int] = []
        if previous_estimate is not None:
            reserved_random = int(round(self._exploration * count))
            greedy_budget = count - reserved_random
            if greedy_budget > 0:
                gains = rx_codebook.gains(previous_estimate)
                # Stable argsort on the ascending candidate list matches the
                # previous sorted(..., key=-gain) tie-breaking exactly.
                order = np.argsort(-gains[candidates], kind="stable")
                ranked = candidates[order[:greedy_budget]]
                chosen.extend(int(idx) for idx in ranked[gains[ranked] > gain_floor])
        remaining = candidates
        if chosen:
            remaining = candidates[~np.isin(candidates, chosen)]
        fill = count - len(chosen)
        if fill > 0:
            extra = rng.choice(remaining, size=fill, replace=False)
            chosen.extend(int(index) for index in extra)
        return chosen

    def _decide_beam(
        self,
        rx_codebook,
        estimate: Optional[np.ndarray],
        exclude: Set[int],
        gain_floor: float,
        rng: np.random.Generator,
    ) -> int:
        """The J-th measurement direction (Eq. 26) with the detection floor."""
        candidates = _available_beams(rx_codebook.num_beams, exclude)
        if len(candidates) == 0:
            raise ValidationError("no RX beam available for the decided measurement")
        if estimate is not None:
            gains = rx_codebook.gains(estimate)
            best = int(candidates[np.argmax(gains[candidates])])
            if gains[best] > gain_floor:
                return best
        return int(rng.choice(candidates))
