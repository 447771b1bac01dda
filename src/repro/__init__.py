"""repro — Directional Beam Alignment for Millimeter Wave Cellular Systems.

A from-scratch reproduction of Zhao, Wang & Viswanathan (ICDCS 2016):
adaptive mmWave beam alignment that estimates the low-rank channel
covariance from a few power measurements (penalized ML with a
matrix-completion-style nuclear-norm prior) and uses the estimate to
steer which beam pairs get measured next.

Quickstart::

    import numpy as np
    from repro import (
        ChannelKind, ProposedAlignment, Scenario, ScenarioConfig,
        run_trial, standard_schemes,
    )

    scenario = Scenario(ScenarioConfig(channel=ChannelKind.MULTIPATH))
    outcomes = run_trial(
        scenario, standard_schemes(), search_rate=0.1,
        rng=np.random.default_rng(0),
    )
    for name, outcome in outcomes.items():
        print(f"{name:10s} loss = {outcome.loss_db:5.2f} dB")

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md``
for the paper-vs-measured record.

Importing the package pins NumPy's OpenBLAS to one thread unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set (see
:mod:`repro.xp`).
"""

from repro.arrays import (
    Codebook,
    HierarchicalCodebook,
    UniformLinearArray,
    UniformPlanarArray,
    steering_vector,
)
from repro.baselines import (
    ExhaustiveSearch,
    GenieAligner,
    HierarchicalSearch,
    LocalRefineSearch,
    RandomSearch,
    ScanSearch,
    UcbSearch,
)
from repro.channel import (
    ClusteredChannel,
    ClusterParams,
    DriftingChannelProcess,
    Subpath,
    low_rank_summary,
    sample_nyc_channel,
    sample_singlepath_channel,
)
from repro.core import (
    AlignmentContext,
    AlignmentResult,
    BeamAlignmentAlgorithm,
    BidirectionalAlignment,
    ProposedAlignment,
)
from repro.estimation import (
    BackProjectionEstimator,
    LsCovarianceEstimator,
    MlCovarianceEstimator,
)
from repro.measurement import MeasurementBudget, MeasurementEngine
from repro.obs import (
    MetricsRecorder,
    MetricsRegistry,
    NullRecorder,
    TraceRecorder,
    get_recorder,
    use_recorder,
)
from repro.sim import (
    ChannelKind,
    Scenario,
    ScenarioConfig,
    effectiveness_sweep,
    required_search_rates,
    run_trial,
    run_trials,
    snr_loss_db,
    standard_schemes,
)
from repro.types import BeamPair
from repro.version import __version__
from repro.xp import pin_blas_threads

pin_blas_threads()

__all__ = [
    "Codebook",
    "HierarchicalCodebook",
    "UniformLinearArray",
    "UniformPlanarArray",
    "steering_vector",
    "ExhaustiveSearch",
    "GenieAligner",
    "HierarchicalSearch",
    "LocalRefineSearch",
    "RandomSearch",
    "ScanSearch",
    "UcbSearch",
    "ClusteredChannel",
    "ClusterParams",
    "DriftingChannelProcess",
    "Subpath",
    "low_rank_summary",
    "sample_nyc_channel",
    "sample_singlepath_channel",
    "AlignmentContext",
    "AlignmentResult",
    "BeamAlignmentAlgorithm",
    "BidirectionalAlignment",
    "ProposedAlignment",
    "BackProjectionEstimator",
    "LsCovarianceEstimator",
    "MlCovarianceEstimator",
    "MeasurementBudget",
    "MeasurementEngine",
    "MetricsRecorder",
    "MetricsRegistry",
    "NullRecorder",
    "TraceRecorder",
    "get_recorder",
    "use_recorder",
    "ChannelKind",
    "Scenario",
    "ScenarioConfig",
    "effectiveness_sweep",
    "required_search_rates",
    "run_trial",
    "run_trials",
    "snr_loss_db",
    "standard_schemes",
    "BeamPair",
    "__version__",
]
