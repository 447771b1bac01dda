"""Plain-NumPy array path: the :mod:`repro.xp` provenance accessor and
the BLAS thread pin.

* :func:`repro.xp.active_backend` always names ``numpy`` — benchmark
  provenance records it — and reports the BLAS pool's thread count.
* ``import repro`` pins OpenBLAS to one thread unless
  ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set; forked workers
  inherit the pin, and seeded output does not depend on the thread
  count. Each case runs in a fresh interpreter, since the pin happens at
  import.
* Checkpoint digests read host ndarrays without copying.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs.checkpoint import _as_arrays
from repro.xp import active_backend

ROOT = Path(__file__).resolve().parent.parent


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


_REPORT_THREADS = """
import repro
from repro.xp import active_backend
print(active_backend().blas_threads)
"""

_FORKED_CHILD_THREADS = """
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import repro
from repro.xp import active_backend


def child_threads():
    return active_backend().blas_threads


if __name__ == "__main__":
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(1, mp_context=context) as pool:
        print(pool.submit(child_threads).result())
"""


def _fresh(args, **overrides):
    """Run ``python args...`` in a fresh interpreter with a clean BLAS env."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    env.update(PYTHONPATH=str(ROOT / "src"), **overrides)
    completed = subprocess.run(
        [sys.executable, *args],
        check=True,
        capture_output=True,
        cwd=ROOT,
        env=env,
        timeout=300,
    )
    return completed.stdout


def _threads(script, **overrides):
    return _fresh(["-c", script], **overrides).decode().strip().splitlines()[-1]


requires_openblas = pytest.mark.skipif(
    active_backend().blas_threads is None,
    reason="NumPy is not linked against an OpenBLAS with thread control",
)


@requires_openblas
class TestBlasPin:
    def test_import_pins_one_thread(self):
        assert _threads(_REPORT_THREADS) == "1"

    @pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_user_setting_is_respected(self, variable):
        assert _threads(_REPORT_THREADS, **{variable: "2"}) == "2"

    @pytest.mark.skipif(sys.platform == "win32", reason="fork start method")
    def test_forked_pool_child_inherits_pin(self):
        assert _threads(_FORKED_CHILD_THREADS) == "1"

    def test_seeded_output_is_thread_count_invariant(self, tmp_path):
        outputs = []
        for overrides in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
            path = tmp_path / f"fig6-{len(outputs)}.json"
            _fresh(
                ["-m", "repro.cli", "run", "fig6", "--quick", "--json", str(path)],
                **overrides,
            )
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
