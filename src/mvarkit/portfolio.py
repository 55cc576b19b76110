"""Portfolio construction from predictive mixtures.

A linear combination of a multivariate Gaussian mixture is a univariate
Gaussian mixture with the same weights, so portfolio-return distributions are
exact projections of the predictive law. Minimum-variance and efficient
weights come from the classical two-fund frontier applied to the conditional
moments, with short selling allowed. :func:`horizon_portfolio` is the one
path from a model and an origin to a portfolio: predictive mixture, its
moments, the Markowitz solve, then the projection. All covariance inverses
are applied via Cholesky solves, LAPACK's ``potrf`` and ``potrs`` called
directly: explicit finiteness tests of the covariance and the mean stand in
for scipy's ``check_finite`` passes. Explicit matrix inverses appear only in
test oracles.

scipy is imported on first use, as in :mod:`mvarkit.risk`: importing
``scipy.linalg`` would cost every ``import mvarkit``, and simulating,
fitting, forecasting and the diagnostics never solve a frontier. ``dpotrf``
and ``dpotrs`` start as stubs; the first call of either imports
``scipy.linalg.lapack`` and rebinds both module globals to scipy's own
routines, so every later call runs exactly as a module-level import would.
Threads racing on the first call are safe: the import lock imports scipy
once, and each thread binds the same two objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateFrontierError, DimensionError, NotPositiveDefiniteError
from .forecasting import MixtureNormalMV, mixture_moments, predictive_mixture
from .model import (ForecastOrigin, MvarParameters, _frozen, _require_finite, _require_positive,
                    _require_shape, _require_weights)

DEGENERATE_FRONTIER_TOL = 1e-12
BUDGET_TOL = 1e-10


def _bind_scipy_lapack() -> None:
    """Rebind ``dpotrf`` and ``dpotrs`` to scipy's LAPACK wrappers (module docstring)."""
    global dpotrf, dpotrs
    from scipy.linalg.lapack import dpotrf, dpotrs


def dpotrf(*args, **kwargs):
    """LAPACK Cholesky factorisation; the first call binds scipy's ``dpotrf`` in its place."""
    _bind_scipy_lapack()
    return dpotrf(*args, **kwargs)


def dpotrs(*args, **kwargs):
    """LAPACK Cholesky solve; the first call binds scipy's ``dpotrs`` in its place."""
    _bind_scipy_lapack()
    return dpotrs(*args, **kwargs)


@dataclass(frozen=True)
class MixtureNormal1D:
    """Weighted univariate Gaussian mixture: the predictive law of a portfolio return."""

    weights: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    horizon: int
    origin_time: int

    def __post_init__(self):
        weights = _frozen(self.weights)
        means = _frozen(self.means)
        sds = _frozen(self.sds)
        _require_shape(weights, ("c",), "weights")
        _require_shape(means, weights.shape, "means")
        _require_shape(sds, weights.shape, "sds")
        _require_weights(weights, "weights")
        _require_finite(means, "means")
        _require_finite(sds, "sds")
        _require_positive(sds, "sds")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sds", sds)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class MarkowitzCoefficients:
    """Frontier scalars from the conditional moments (mu, Omega):

    a = 1' Omega^-1 mu,  b = mu' Omega^-1 mu,  c = 1' Omega^-1 1,  d = c*b - a^2.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if self.c <= 0.0:
            raise NotPositiveDefiniteError("c = 1'Omega^-1 1 must be positive for SPD Omega")


@dataclass(frozen=True)
class PortfolioSolution:
    """Budget-constrained weights plus their conditional return and risk."""

    weights: np.ndarray
    expected_return: float
    sd: float
    kind: str        # "mvp" or "efficient"
    horizon: int

    def __post_init__(self):
        weights = _frozen(self.weights)
        _require_shape(weights, ("m",), "weights")
        _require_finite(weights, "weights")
        if abs(weights.sum() - 1.0) > BUDGET_TOL:
            raise ValueError(f"portfolio weights must sum to 1 within {BUDGET_TOL}")
        if self.kind not in ("mvp", "efficient"):
            raise ValueError(f"kind must be 'mvp' or 'efficient', got {self.kind!r}")
        object.__setattr__(self, "weights", weights)


def project(mix: MixtureNormalMV, w) -> MixtureNormal1D:
    """Return distribution of the portfolio w applied to a multivariate mixture.

    Component j keeps its weight and maps to mean ``w @ mu_j`` and standard
    deviation ``sqrt(w @ cov_j @ w)``.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (mix.m,):
        raise DimensionError(f"weight vector must have length {mix.m}, got shape {w.shape}")
    means = mix.means @ w
    variances = np.einsum("a,jab,b->j", w, mix.covs, w)
    if (variances <= 0.0).any():
        raise NotPositiveDefiniteError(
            "projected component variance <= 0: a component covariance is not positive definite"
        )
    return MixtureNormal1D(
        weights=mix.weights, means=means, sds=np.sqrt(variances),
        horizon=mix.horizon, origin_time=mix.origin_time,
    )


def scalar_mixture_moments(mix: MixtureNormal1D) -> tuple[float, float]:
    """Mean and variance of a univariate mixture:
    mean = sum w mu, var = sum w (sd^2 + (mu - mean)^2), centred because the
    raw form ``sum w sd^2 + sum w mu^2 - mean^2`` cancels for means far from zero."""
    w = mix.weights
    mean = float(w @ mix.means)
    var = float(w @ (mix.sds ** 2 + (mix.means - mean) ** 2))
    return mean, var


def _frontier(
    mean: np.ndarray, cov: np.ndarray
) -> tuple[MarkowitzCoefficients, np.ndarray, np.ndarray]:
    """Frontier scalars with ``Omega^-1 1`` and ``Omega^-1 mu``, from one Cholesky factorisation.

    Raises ``ValueError`` for a non-finite mean or covariance,
    :class:`DimensionError` for mismatched shapes and
    :class:`NotPositiveDefiniteError` when the factorisation fails.
    """
    _require_shape(mean, ("m",), "mean")
    m = mean.shape[0]
    _require_shape(cov, (m, m), "cov")
    if m == 0:
        raise NotPositiveDefiniteError("an empty covariance has no frontier: c = 0")
    _require_finite(cov, "cov")
    factor, info = dpotrf(cov, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"covariance is not positive definite: leading minor {info} is not positive"
        )
    if info < 0:
        raise ValueError(f"LAPACK potrf rejected its argument {-info}")
    _require_finite(mean, "mean")
    ones = np.ones(m)
    sol, info = dpotrs(factor, np.array([ones, mean]).T, lower=1)
    if info != 0:
        raise ValueError(f"LAPACK potrs rejected its argument {-info}")
    x, y = sol[:, 0], sol[:, 1]          # Omega^-1 1, Omega^-1 mu
    a = float(ones @ y)
    b = float(mean @ y)
    c = float(ones @ x)
    return MarkowitzCoefficients(a=a, b=b, c=c, d=c * b - a * a), x, y


def markowitz_coefficients(mean, cov) -> MarkowitzCoefficients:
    """Frontier scalars for conditional moments, via Cholesky solves."""
    return _frontier(np.asarray(mean, dtype=float), np.asarray(cov, dtype=float))[0]


def mvp_weights(mean, cov, horizon: int = 1) -> PortfolioSolution:
    """Minimum variance portfolio: w = Omega^-1 1 / c, return a/c, sd sqrt(1/c)."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    coeffs, x, _ = _frontier(mean, cov)
    w = x / coeffs.c
    return PortfolioSolution(
        weights=w,
        expected_return=float(w @ mean),
        sd=float(np.sqrt(w @ cov @ w)),
        kind="mvp",
        horizon=horizon,
    )


def efficient_weights(mean, cov, target: float, horizon: int = 1) -> PortfolioSolution:
    """Efficient portfolio for a target expected return (short selling allowed).

    w = (1/d) [b Omega^-1 1 - a Omega^-1 mu + target (c Omega^-1 mu - a Omega^-1 1)]

    Raises :class:`DegenerateFrontierError` when d <= 1e-12, i.e. the mean
    vector is proportional to ones and the target cannot pin down a portfolio.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    coeffs, x, y = _frontier(mean, cov)
    if coeffs.d <= DEGENERATE_FRONTIER_TOL:
        raise DegenerateFrontierError(
            f"degenerate frontier: mean vector proportional to ones (d={coeffs.d:.3e})"
        )
    w = (coeffs.b * x - coeffs.a * y + target * (coeffs.c * y - coeffs.a * x)) / coeffs.d
    return PortfolioSolution(
        weights=w,
        expected_return=float(w @ mean),
        sd=float(np.sqrt(w @ cov @ w)),
        kind="efficient",
        horizon=horizon,
    )


def horizon_portfolio(
    params: MvarParameters,
    origin: ForecastOrigin,
    horizon: int,
    target: float | None = None,
) -> tuple[PortfolioSolution, MixtureNormal1D]:
    """Markowitz solution against the conditional moments at ``horizon``.

    Computes (mu_{t+h}, Omega_{t+h}) from :func:`predictive_mixture`, solves the
    minimum-variance portfolio (``target=None``) or the efficient portfolio
    for ``target``, and projects the mixture onto the solved weights to get
    the return distribution at that horizon. The horizon's ``ValueError``
    cases are those of :func:`predictive_mixture`.
    """
    mix = predictive_mixture(params, origin, horizon)
    mom = mixture_moments(mix)
    if target is None:
        sol = mvp_weights(mom.mean, mom.cov, horizon=horizon)
    else:
        sol = efficient_weights(mom.mean, mom.cov, target, horizon=horizon)
    return sol, project(mix, sol.weights)
