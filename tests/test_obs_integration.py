"""Integration tests: instrumentation across solvers, runner, and sweeps.

The load-bearing guarantee is the determinism regression: recorders only
observe, so instrumented and uninstrumented runs of the same seeds must
produce bit-identical outcomes.
"""

from __future__ import annotations

import numpy as np

from repro.campaign import (
    ShardStore,
    assemble_effectiveness_sweep,
    plan_effectiveness_sweep,
    run_campaign,
)
from repro.estimation.ml_covariance import MlCovarianceEstimator
from repro.obs import (
    MetricsRecorder,
    TraceRecorder,
    read_trace,
    use_recorder,
)
from repro.sim.parallel import SchemeSpec
from repro.sim.runner import run_trials, standard_schemes
from repro.sim.sweep import effectiveness_sweep


def _outcome_fingerprint(trials):
    """Everything that should be invariant under instrumentation."""
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


class TestDeterminism:
    def test_instrumented_run_trials_bit_identical(self, small_scenario, tmp_path):
        schemes = standard_schemes(measurements_per_slot=4)
        baseline = run_trials(small_scenario, schemes, 0.3, 3, base_seed=11)
        with TraceRecorder(tmp_path / "t.jsonl") as recorder, use_recorder(recorder):
            traced = run_trials(
                small_scenario,
                standard_schemes(measurements_per_slot=4),
                0.3,
                3,
                base_seed=11,
            )
        assert _outcome_fingerprint(baseline) == _outcome_fingerprint(traced)

    def test_progress_callback_does_not_perturb(self, small_scenario):
        schemes = standard_schemes(measurements_per_slot=4)
        baseline = run_trials(small_scenario, schemes, 0.3, 3, base_seed=11)
        events = []
        with_progress = run_trials(
            small_scenario,
            standard_schemes(measurements_per_slot=4),
            0.3,
            3,
            base_seed=11,
            progress=events.append,
        )
        assert _outcome_fingerprint(baseline) == _outcome_fingerprint(with_progress)
        assert events[-1].done == 3


class TestRunnerTracing:
    def test_trace_contains_trial_and_solver_records(self, small_scenario, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceRecorder(path) as recorder, use_recorder(recorder):
            run_trials(
                small_scenario,
                standard_schemes(measurements_per_slot=4),
                0.3,
                2,
                base_seed=0,
            )
        records = read_trace(path)
        span_names = [r["name"] for r in records if r["type"] == "span"]
        assert span_names.count("trial") == 2
        assert "run_trials" in span_names
        assert any(name.startswith("scheme.") for name in span_names)
        assert any(name == "solver.ml_covariance" for name in span_names)
        event_names = {r["name"] for r in records if r["type"] == "event"}
        assert "solver.ml_covariance.iteration" in event_names
        # every span carries timing data
        assert all(r["dur_s"] >= 0.0 for r in records if r["type"] == "span")

    def test_scheme_counters_accumulate(self, small_scenario):
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            trials = run_trials(
                small_scenario,
                standard_schemes(measurements_per_slot=4),
                0.3,
                2,
                base_seed=0,
            )
        expected = sum(t["Proposed"].result.measurements_used for t in trials)
        assert recorder.metrics.counter("scheme.Proposed.measurements") == expected
        assert recorder.metrics.counter("scheme.Proposed.trials") == 2


class TestSweepInstrumentation:
    def test_sweep_progress_covers_grid(self, small_scenario):
        events = []
        effectiveness_sweep(
            small_scenario,
            standard_schemes(measurements_per_slot=4),
            [0.2, 0.3],
            2,
            base_seed=0,
            progress=events.append,
        )
        assert events[-1].done == 4
        assert events[-1].total == 4

    def test_sweep_spans_per_rate(self, small_scenario, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceRecorder(path) as recorder, use_recorder(recorder):
            effectiveness_sweep(
                small_scenario,
                standard_schemes(measurements_per_slot=4),
                [0.2, 0.3],
                1,
                base_seed=0,
            )
        span_names = [r["name"] for r in read_trace(path) if r["type"] == "span"]
        assert span_names.count("sweep.rate") == 2
        assert "effectiveness_sweep" in span_names


class TestParallelMetricsMerge:
    """Recorders and progress around a campaign run by launched workers."""

    SPECS = (
        SchemeSpec.of("Random"),
        SchemeSpec.of("Proposed", measurements_per_slot=4),
    )

    def _plan(self, config):
        return plan_effectiveness_sweep(
            config, self.SPECS, (0.3,), 2, base_seed=5, shard_trials=1
        )

    def test_parallel_matches_serial_with_recorder(self, small_config, tmp_path):
        plan = self._plan(small_config)
        plain = ShardStore(tmp_path / "plain")
        run_campaign(plan, plain)
        recorded = ShardStore(tmp_path / "recorded")
        with use_recorder(MetricsRecorder()):
            run_campaign(plan, recorded, max_workers=2)
        assert (
            assemble_effectiveness_sweep(plan, recorded).losses
            == assemble_effectiveness_sweep(plan, plain).losses
        )

    def test_parallel_progress(self, small_config, tmp_path):
        plan = self._plan(small_config)
        events = []
        run_campaign(
            plan, ShardStore(tmp_path / "store"), max_workers=2,
            progress=events.append,
        )
        assert events[-1].done == plan.total_trials


class TestSolverDiagnostics:
    def test_estimator_keeps_last_result(self, rng):
        estimator = MlCovarianceEstimator(max_iterations=10)
        probes = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        powers = np.abs(rng.standard_normal(3)) + 0.05
        assert estimator.last_result is None
        estimator.estimate(probes, powers, 0.01)
        assert estimator.last_result is not None
        assert estimator.last_result.iterations >= 1
        assert estimator.num_solves == 1
        assert estimator.total_iterations == estimator.last_result.iterations
        estimator.estimate(probes, powers, 0.01)
        assert estimator.num_solves == 2
        assert estimator.num_converged <= 2

    def test_proposed_slots_carry_convergence(self, small_scenario):
        trials = run_trials(
            small_scenario, standard_schemes(measurements_per_slot=4), 0.3, 1, base_seed=3
        )
        slots = trials[0]["Proposed"].result.slots
        flagged = [s for s in slots if s.estimator_converged is not None]
        assert flagged, "no slot recorded estimator convergence"
