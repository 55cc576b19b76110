"""Mixture vector autoregression toolkit.

End-to-end workflow: EM estimation with multi-start initialization, stability
analysis through companion matrices, exact predictive mixtures at any horizon
within a component budget (Monte Carlo beyond), Markowitz portfolio
construction from conditional moments, and mixture-based risk measures (VaR,
expected shortfall) and forecast scoring (CRPS).
"""

from .compare import ComparisonReport, ComparisonRow, evaluate_holdout, rolling_origin_crps
from .diagnostics import CorrelationTable, acf_ccf
from .estimation import (
    CandidateResult,
    FitReport,
    InitStrategy,
    Responsibilities,
    e_step,
    em_fit,
    m_step,
    select_order,
)
from .exceptions import (
    BracketError,
    ComponentCollapseError,
    DataFormatError,
    DegenerateFrontierError,
    DensityUnderflowError,
    DimensionError,
    EigenSolverError,
    ModelFileError,
    MvarError,
    NotPositiveDefiniteError,
    SingularComponentError,
    TimeIndexError,
)
from .forecasting import (
    MixtureNormalMV,
    MomentPair,
    mixture_moments,
    predictive_h_step_mc,
    predictive_mixture,
    predictive_one_step,
    predictive_two_step,
)
from .io import ModelFile, PriceTable, load_model, returns_from_prices, save_model
from .model import (
    ForecastOrigin,
    ModelSpec,
    MvarParameters,
    SeriesMatrix,
    companion_matrices,
    component_log_densities,
    is_stable,
    log_likelihood,
    regressor_matrix,
)
from .portfolio import (
    MarkowitzCoefficients,
    MixtureNormal1D,
    PortfolioSolution,
    efficient_weights,
    horizon_portfolio,
    markowitz_coefficients,
    mvp_weights,
    project,
    scalar_mixture_moments,
)
from .risk import RiskReport, crps_mixture, mixture_cdf, mixture_pdf, mixture_quantile, var_es
from .simulation import RNG_ALGORITHM, SimulationConfig, SimulationResult, simulate, simulate_forward

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
