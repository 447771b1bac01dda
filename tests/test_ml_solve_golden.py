"""Golden test: the fused ML line search is bit-exact to the unfused one.

:func:`repro.estimation.ml_covariance._solve` evaluates each line-search
candidate with an inlined prox, Frobenius norm and NLL value, and builds
the gradient only for the accepted candidate. The reference below is the
unfused loop it replaced, kept verbatim: every candidate ran the
stand-alone prox and the full NLL value-and-gradient. Over seeded cold
and warm problems — subspace-reduced to dimension 15, and unreduced —
both must give the same solution, history, iteration count and
convergence flag, bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest

import repro.estimation.ml_covariance as ml_covariance
from repro.estimation.likelihood import nll_value_and_gradient
from repro.estimation.ml_covariance import (
    _EIGH_LOWER,
    _initial_estimate,
    estimate_ml_covariance,
)
from repro.mc.operators import QuadraticFormOperator
from repro.mc.result import SolverResult
from repro.obs import get_recorder
from repro.utils.linalg import hermitian, project_psd, random_psd

NOISE = 0.01


# ----------------------------------------------------------------------
# Reference: the unfused line search, verbatim
# ----------------------------------------------------------------------


def _soft_threshold_hot(matrix: np.ndarray, threshold: float) -> np.ndarray:
    """Line-search prox: :func:`soft_threshold_eigenvalues` minus the guards.

    The solver calls this once per line-search candidate on a small
    reduced matrix, where the public helper's defensive re-symmetrization
    and wrapper overhead cost as much as the decomposition itself. The
    iterates here are Hermitian by construction (``eigh`` reads only the
    lower triangle and reconstruction is ``V diag(s) V^H``), so the
    guards are redundant; the final solution is still re-symmetrized once
    in :func:`_solve`.
    """
    if _EIGH_LOWER is not None and matrix.dtype == np.complex128:
        values, vectors = _EIGH_LOWER(matrix, signature="D->dD")
    else:
        values, vectors = np.linalg.eigh(matrix)
    shrunk = np.clip(values - threshold, 0.0, None)
    return (vectors * shrunk) @ vectors.conj().T


def _reference_solve(
    probes: np.ndarray,
    powers: np.ndarray,
    offsets: np.ndarray,
    mu: float,
    max_iterations: int,
    tolerance: float,
    initial: Optional[np.ndarray],
    initial_step: float,
    backtrack: float,
    min_step: float,
) -> SolverResult:
    """Monotone projected proximal gradient on the (possibly reduced) space."""
    operator = QuadraticFormOperator(probes)

    if initial is not None:
        current = project_psd(np.asarray(initial, dtype=complex))
    else:
        current = _initial_estimate(operator, powers, offsets)

    def penalized(matrix: np.ndarray, nll: float) -> float:
        return nll + mu * float(np.real(np.trace(matrix)))

    value, gradient = nll_value_and_gradient(
        current, operator, powers, 1.0, offsets=offsets
    )
    # Inputs are validated by the first evaluation above; the line-search
    # evaluations below run the unchecked fast path (identical numerics).
    history = [penalized(current, value)]
    step = initial_step
    converged = False
    iteration = 0
    current_norm = float(np.linalg.norm(current))
    recorder = get_recorder()
    for iteration in range(1, max_iterations + 1):
        accepted = False
        while step >= min_step:
            candidate = _soft_threshold_hot(current - step * gradient, mu * step)
            difference = candidate - current
            difference_norm = float(np.linalg.norm(difference))
            quadratic_gap = float(
                np.real(np.vdot(gradient, difference))
                + difference_norm**2 / (2.0 * step)
            )
            candidate_value, candidate_gradient = nll_value_and_gradient(
                candidate, operator, powers, 1.0, offsets=offsets, validate=False
            )
            if candidate_value <= value + quadratic_gap + 1e-12:
                accepted = True
                break
            step *= backtrack
        if not accepted:
            break
        change = difference_norm / max(1.0, current_norm)
        current_norm = float(np.linalg.norm(candidate))
        current, value, gradient = candidate, candidate_value, candidate_gradient
        history.append(penalized(current, value))
        if recorder.enabled:
            recorder.event(
                "solver.ml_covariance.iteration",
                iteration=iteration,
                objective=history[-1],
                step=step,
                change=change,
            )
        # Allow the step to grow back so one conservative iteration does
        # not permanently slow the solve.
        step = min(step / backtrack, initial_step)
        if change < tolerance:
            converged = True
            break
    return SolverResult(
        solution=hermitian(current),
        iterations=iteration,
        converged=converged,
        objective=history[-1],
        history=history,
    )


# ----------------------------------------------------------------------
# Seeded problems
# ----------------------------------------------------------------------


def _problem(seed: int, dimension: int = 64, measurements: int = 7):
    """Unit-norm probes and exponential power statistics of a rank-3 channel."""
    rng = np.random.default_rng(seed)
    covariance = random_psd(dimension, 3, rng)
    probes = rng.normal(size=(dimension, measurements)) + 1j * rng.normal(
        size=(dimension, measurements)
    )
    probes /= np.linalg.norm(probes, axis=0, keepdims=True)
    lambdas = np.real(np.einsum("nm,nk,km->m", probes.conj(), covariance, probes))
    powers = (lambdas + NOISE) * rng.exponential(size=measurements)
    return probes, powers


def _warm_start(seed: int, dimension: int = 64) -> np.ndarray:
    return random_psd(dimension, 10, np.random.default_rng(1000 + seed))


def _solve_both(monkeypatch, probes, powers, **options):
    fused = estimate_ml_covariance(probes, powers, NOISE, **options)
    with monkeypatch.context() as patch:
        patch.setattr(ml_covariance, "_solve", _reference_solve)
        reference = estimate_ml_covariance(probes, powers, NOISE, **options)
    return fused, reference


def _assert_identical(fused: SolverResult, reference: SolverResult) -> None:
    assert np.array_equal(fused.solution, reference.solution)
    assert np.array_equal(fused.history, reference.history)
    assert fused.iterations == reference.iterations
    assert fused.converged == reference.converged
    assert fused.objective == reference.objective
    if reference.solution_eig is None:
        assert fused.solution_eig is None
    else:
        for mine, theirs in zip(fused.solution_eig, reference.solution_eig):
            assert np.array_equal(mine, theirs)


SEEDS = range(6)


class TestFusedSolve:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cold_reduced(self, monkeypatch, seed):
        probes, powers = _problem(seed)
        _assert_identical(*_solve_both(monkeypatch, probes, powers))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_warm_reduced_to_15(self, monkeypatch, seed):
        probes, powers = _problem(seed)
        fused, reference = _solve_both(
            monkeypatch, probes, powers, initial=_warm_start(seed)
        )
        # 7 probes plus the warm start's top 8 eigen-directions.
        assert fused.solution_eig[0].shape == (15,)
        _assert_identical(fused, reference)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unreduced_cold_and_warm(self, monkeypatch, seed):
        probes, powers = _problem(seed, dimension=16)
        for initial in (None, _warm_start(seed, dimension=16)):
            _assert_identical(
                *_solve_both(
                    monkeypatch, probes, powers, initial=initial, subspace=False
                )
            )

    def test_mixed_convergence(self, monkeypatch):
        """A loose tolerance and a low cap: some solves converge, some stop."""
        outcomes = set()
        for seed in SEEDS:
            probes, powers = _problem(seed)
            for options in ({"tolerance": 5e-3}, {"max_iterations": 3}):
                fused, reference = _solve_both(monkeypatch, probes, powers, **options)
                _assert_identical(fused, reference)
                outcomes.add((fused.converged, fused.iterations))
        assert {converged for converged, _ in outcomes} == {True, False}
        assert len({iterations for _, iterations in outcomes}) > 1

    def test_gufunc_absent_fallback(self, monkeypatch):
        """Without the numpy-internal eigh gufunc the public ``eigh`` takes
        over, bit-identically."""
        probes, powers = _problem(41)
        initial = _warm_start(41)
        expected = estimate_ml_covariance(probes, powers, NOISE, initial=initial)
        monkeypatch.setattr(ml_covariance, "_EIGH_LOWER", None)
        fallback = estimate_ml_covariance(probes, powers, NOISE, initial=initial)
        _assert_identical(fallback, expected)
