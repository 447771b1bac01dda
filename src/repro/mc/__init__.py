"""Matrix-completion substrate: operators, SVT, FISTA, OptSpace."""

from repro.mc.fista import fista_nuclear
from repro.mc.metrics import numerical_rank, observed_rmse, relative_error
from repro.mc.operators import EntryMask, QuadraticFormOperator
from repro.mc.optspace import optspace_complete, spectral_initialization, trim_mask
from repro.mc.result import SolverResult
from repro.mc.svt import shrink_singular_values, svt_complete

__all__ = [
    "fista_nuclear",
    "numerical_rank",
    "observed_rmse",
    "relative_error",
    "EntryMask",
    "QuadraticFormOperator",
    "optspace_complete",
    "spectral_initialization",
    "trim_mask",
    "SolverResult",
    "shrink_singular_values",
    "svt_complete",
]
