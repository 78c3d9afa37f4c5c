"""Bubble-regime detection and speculative influence networks.

The package splits into five layers:

- :mod:`sinet.bubble` -- the two-regime price model (GBM vs. nonlinear
  positive-feedback bubble) with exact path simulation.
- :mod:`sinet.hmm` -- Hamilton filter, Kim smoother and EM calibration of
  the hidden regime chain.
- :mod:`sinet.entropy` -- binned transfer entropy between bubble-probability
  series and the pairwise influence matrix.
- :mod:`sinet.network` -- per-node influence indicators and the thresholded
  directed network.
- :mod:`sinet.analysis` -- drawdowns, rank regressions and correlation
  statistics for loss prediction.

:mod:`sinet.io`, :mod:`sinet.pipeline` and :mod:`sinet.cli` wire these into
a batch pipeline over CSV price files.
"""

from .analysis import (
    CorrelationReport,
    RegressionResult,
    correlations,
    max_loss,
    ols_regress,
    rank_transform,
)
from .bubble import (
    RegimeParams,
    SimulatedPath,
    bubble_transition_logdensity,
    deterministic_fts_price,
    gbm_transition_logdensity,
    ig_params,
    simulate_sa_path,
    switch_logdensity,
)
from .entropy import (
    BinnedSeries,
    SIIMatrix,
    discretize,
    nsii,
    sii,
    sii_matrix,
    transfer_entropy,
)
from .errors import (
    CollinearityError,
    ConfigurationError,
    ConvergenceError,
    InsufficientDataError,
    NumericalFailureError,
    SingularityError,
    SinetError,
    UndefinedCorrelationError,
)
from .hmm import (
    EMConfig,
    EMTrace,
    FilterOutput,
    ModelParams,
    SmootherOutput,
    bubble_time_fraction,
    em_fit,
    geometric_average_filter,
    hamilton_filter,
    kim_smoother,
    m_step,
    solve_feedback_exponent,
    threshold_fractions,
)
from .network import (
    IndicatorTable,
    NodeGroup,
    SINGraph,
    build_sin,
    compute_indicators,
)
from .series import LogPriceSeries, ProbabilitySeries

__version__ = "0.1.0"

__all__ = [
    "BinnedSeries",
    "CollinearityError",
    "ConfigurationError",
    "ConvergenceError",
    "CorrelationReport",
    "EMConfig",
    "EMTrace",
    "FilterOutput",
    "IndicatorTable",
    "InsufficientDataError",
    "LogPriceSeries",
    "ModelParams",
    "NodeGroup",
    "NumericalFailureError",
    "ProbabilitySeries",
    "RegimeParams",
    "RegressionResult",
    "SIIMatrix",
    "SINGraph",
    "SimulatedPath",
    "SingularityError",
    "SinetError",
    "SmootherOutput",
    "UndefinedCorrelationError",
    "bubble_time_fraction",
    "bubble_transition_logdensity",
    "build_sin",
    "compute_indicators",
    "correlations",
    "deterministic_fts_price",
    "discretize",
    "em_fit",
    "gbm_transition_logdensity",
    "geometric_average_filter",
    "hamilton_filter",
    "ig_params",
    "kim_smoother",
    "m_step",
    "max_loss",
    "nsii",
    "ols_regress",
    "rank_transform",
    "sii",
    "sii_matrix",
    "simulate_sa_path",
    "solve_feedback_exponent",
    "switch_logdensity",
    "threshold_fractions",
    "transfer_entropy",
]
