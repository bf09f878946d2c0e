"""Variance estimation for linear regression with a drifting coefficient.

The data model is a random-walk regression: a hidden coefficient vector takes
an independent zero-mean step of variance sigma2 per coordinate at each time,
and each observation is the inner product with a known feature row plus
zero-mean noise of variance eta2.  The package provides

* a spectrum-truncation estimator of (sigma2, eta2) from a single trajectory
  (:func:`estimate`), built on the closed-form Gram matrix of the summed
  feature operator,
* a matching Kalman-style forward filter (:func:`run_filter`) and baselines
  (online gradient, stationary least squares, likelihood fit),
* a sub-Gaussian simulator and replication harness (:func:`simulate`,
  :func:`replicate`), and
* CSV data I/O plus a command line (``stve estimate|simulate|benchmark|
  filter|spectrum``).
"""
from .baselines import (
    MleResult,
    OnlineGradientRun,
    mle_fit,
    online_gradient_run,
    stationary_regression,
    tune_learning_rate,
)
from .dataio import (
    CsvFormatError,
    read_csv,
    write_csv,
)
from .estimator import (
    FlatSpectrumError,
    StveConfig,
    StveEstimate,
    estimate,
    truncation_size,
)
from .kalman import KalmanConfig, KalmanTrajectory, run_filter
from .operators import (
    RegressionDataset,
    filter_rows,
    gram_matrix,
    select_rows,
)
from .simulator import (
    NOISE_FAMILIES,
    NoiseSpec,
    ReplicationResult,
    SimulationConfig,
    replicate,
    simulate,
)
from .spectral import (
    GramSpectrum,
    SpectralFunctionals,
    eigendecompose,
    functionals,
    quadratic_forms,
)

__version__ = "0.1.0"

__all__ = [
    "CsvFormatError",
    "FlatSpectrumError",
    "GramSpectrum",
    "KalmanConfig",
    "KalmanTrajectory",
    "MleResult",
    "NOISE_FAMILIES",
    "NoiseSpec",
    "OnlineGradientRun",
    "RegressionDataset",
    "ReplicationResult",
    "SimulationConfig",
    "SpectralFunctionals",
    "StveConfig",
    "StveEstimate",
    "eigendecompose",
    "estimate",
    "filter_rows",
    "functionals",
    "gram_matrix",
    "mle_fit",
    "online_gradient_run",
    "quadratic_forms",
    "read_csv",
    "replicate",
    "run_filter",
    "select_rows",
    "simulate",
    "stationary_regression",
    "truncation_size",
    "tune_learning_rate",
    "write_csv",
    "__version__",
]
