"""Plain-NumPy array path: the :mod:`repro.xp` provenance accessor and
the stacked kernels' reference formulations.

* :func:`repro.xp.active_backend` always names ``numpy`` — benchmark
  provenance records it.
* The stacked estimation kernels are bitwise the plain NumPy
  formulations (einsum quadratic forms, NLL terms, public-eigh prox
  fallback), and checkpoint digests read host ndarrays without copying.
"""

from __future__ import annotations

import numpy as np

import repro.estimation.batch as estimation_batch
from repro.obs.checkpoint import _as_arrays
from repro.xp import active_backend


class TestProvenance:
    def test_active_backend_is_numpy(self):
        assert active_backend().name == "numpy"
        assert active_backend() is active_backend()


class TestToNumpy:
    def test_host_ndarray_identity(self):
        array = np.arange(6.0)
        assert _as_arrays(array)[0][1] is array
        assert _as_arrays({"x": array})[0][1] is array

    def test_non_array_values_convert(self):
        ((name, result),) = _as_arrays([[1.0, 2.0], [3.0, 4.0]])
        assert name == "value"
        assert isinstance(result, np.ndarray)
        assert result.shape == (2, 2)


def _hermitian_stack(batch=4, size=6, seed=11):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(batch, size, size)) + 1j * rng.normal(
        size=(batch, size, size)
    )
    return (raw + np.conj(raw.transpose(0, 2, 1))) / 2.0


class TestReferenceKernels:
    def test_eigh_stack_matches_public_eigh(self, monkeypatch):
        monkeypatch.setattr(estimation_batch, "_EIGH_LOWER", None)
        matrices = _hermitian_stack()
        thresholds = np.linspace(0.05, 0.3, 4)
        result = estimation_batch.soft_threshold_eigenvalues_batch(
            matrices, thresholds
        )
        values, vectors = np.linalg.eigh(matrices)
        shrunk = np.clip(values - thresholds[:, None], 0.0, None)
        expected = np.matmul(
            vectors * shrunk[:, None, :], np.conj(vectors.transpose(0, 2, 1))
        )
        assert result.tobytes() == expected.tobytes()

    def test_batch_quadratic_forms_is_the_einsum(self):
        rng = np.random.default_rng(17)
        probes = rng.normal(size=(3, 5, 4)) + 1j * rng.normal(size=(3, 5, 4))
        matrices = _hermitian_stack(batch=3, size=5, seed=19)
        conj = np.conj(probes)
        result = estimation_batch._batch_apply(conj, matrices, probes)
        expected = np.real(np.einsum("bnm,bnk,bkm->bm", conj, matrices, probes))
        assert result.tobytes() == expected.tobytes()

    def test_nll_terms_reference(self):
        rng = np.random.default_rng(23)
        probes = rng.normal(size=(3, 5, 6)) + 1j * rng.normal(size=(3, 5, 6))
        matrices = _hermitian_stack(batch=3, size=5, seed=29)
        matrices = matrices + 10.0 * np.eye(5)[None, :, :]
        powers = np.abs(rng.normal(size=(3, 6)))
        offsets = np.full((3, 6), 0.1)
        conj = np.conj(probes)
        values, gradients = estimation_batch._batch_nll(
            probes, conj, matrices, powers, offsets
        )
        lambdas = np.real(np.einsum("bnm,bnk,bkm->bm", conj, matrices, probes))
        lambdas = lambdas + offsets
        assert values.tobytes() == np.sum(
            np.log(lambdas) + powers / lambdas, axis=1
        ).tobytes()
        weights = 1.0 / lambdas - powers / lambdas**2
        expected = estimation_batch._batch_adjoint(probes, conj, weights)
        assert gradients.tobytes() == expected.tobytes()
