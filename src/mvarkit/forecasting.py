"""Conditional predictive distributions: analytic mixtures at horizons 1-2, Monte Carlo beyond.

One step ahead the predictive law is a g-component Gaussian mixture whose
component means shift with the recent history. Two steps ahead it is a
g^2-component mixture indexed by the component pair (k, l) drawn at t+2 and
t+1; the pair's covariance picks up the first-lag propagation of the
intermediate innovation. Both go through the stacked coefficients ``B_k`` of
:func:`~mvarkit.model.stacked_coefficients`. Larger horizons multiply the
component count by g per step, so they are handled by simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, NotPositiveDefiniteError
from .model import ForecastOrigin, MvarParameters, _regressor_row, stacked_coefficients
from .simulation import simulate_forward

MOMENT_PSD_TOL = 1e-10


@dataclass(frozen=True)
class MixtureNormalMV:
    """Weighted multivariate Gaussian mixture: the predictive law of Y_{t+h}."""

    weights: np.ndarray   # (c,)
    means: np.ndarray     # (c, m)
    covs: np.ndarray      # (c, m, m)
    horizon: int
    origin_time: int

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        means = np.array(self.means, dtype=float)
        covs = np.array(self.covs, dtype=float)
        c = weights.shape[0]
        if means.shape[0] != c or covs.shape[0] != c:
            raise DimensionError(
                f"component count mismatch: {c} weights, {means.shape[0]} means, "
                f"{covs.shape[0]} covariances"
            )
        if not (np.isfinite(weights).all() and np.isfinite(means).all()):
            raise ValueError("mixture weights and means must be finite")
        if np.any(weights <= 0.0):
            raise ValueError("mixture weights must be strictly positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1 within 1e-12, got {weights.sum()!r}")
        if not np.all(np.isfinite(covs)):
            raise ValueError("mixture covariances have non-finite entries")
        try:
            np.linalg.cholesky(covs)
        except np.linalg.LinAlgError as exc:
            j = next((j for j in range(c) if not _has_cholesky(covs[j])), None)
            raise NotPositiveDefiniteError(
                f"mixture component {j} covariance is not positive definite"
            ) from exc
        for a in (weights, means, covs):
            a.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def m(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class MomentPair:
    """Mean vector and covariance matrix of a predictive distribution."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if not np.all(np.isfinite(cov)):
            raise ValueError("moment covariance has non-finite entries")
        scale = max(1.0, float(np.max(np.abs(cov))) if cov.size else 1.0)
        if np.max(np.abs(cov - cov.T)) > MOMENT_PSD_TOL * scale:
            raise NotPositiveDefiniteError("moment covariance is not symmetric within 1e-10")
        if float(np.min(np.linalg.eigvalsh(cov))) < -MOMENT_PSD_TOL * scale:
            raise NotPositiveDefiniteError("moment covariance is not positive semidefinite")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def _has_cholesky(cov: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return False
    return True


def predictive_one_step(params: MvarParameters, origin: ForecastOrigin) -> MixtureNormalMV:
    """One-step predictive mixture: g components with the model's own weights.

    Component k has mean ``theta0[k] + sum_i theta[k,i-1] @ Y_{t+1-i}``, the
    product ``x' B_k`` of the origin's regressor row with the stacked
    coefficients, and covariance ``omega[k]``.
    """
    origin.check_dimensions(params.spec)
    means = _regressor_row(origin.history) @ stacked_coefficients(params)
    return MixtureNormalMV(
        weights=params.pi, means=means, covs=params.omega,
        horizon=1, origin_time=origin.t,
    )


def predictive_two_step(params: MvarParameters, origin: ForecastOrigin) -> MixtureNormalMV:
    """Two-step predictive mixture: g^2 components indexed by the pair (k, l).

    The pair (k, l) means component k generates Y_{t+2} and component l
    generates Y_{t+1}. Its weight is ``pi[k]*pi[l]``, its covariance
    ``omega[k] + theta[k,0] @ omega[l] @ theta[k,0].T``, and its mean

        theta0[k] + theta[k,0] @ theta0[l]
        + sum_{i=1..p-1} (theta[k,i] + theta[k,0] @ theta[l,i-1]) @ Y_{t+1-i}
        + theta[k,0] @ theta[l,p-1] @ Y_{t+1-p}.

    It is computed as ``c_k + theta[k,0] @ m1_l``: ``m1_l`` is component l's
    one-step mean and ``c_k`` the two-step mean of component k with Y_{t+1}
    left out, both products of a regressor row with the stacked coefficients.
    Component ``j = k*g + l`` holds the pair. The ordering matters: in general
    the (k, l) and (l, k) components differ.
    """
    origin.check_dimensions(params.spec)
    g, m, p = params.spec.g, params.spec.m, params.spec.p
    coef = stacked_coefficients(params)
    x = _regressor_row(origin.history)
    one_step = x @ coef
    x[1 + m:] = x[1:1 + m * (p - 1)]   # lag i+1 of Y_{t+2} is lag i of Y_{t+1}
    x[1:1 + m] = 0.0                   # Y_{t+1} enters through theta[k,0] @ one_step[l]
    rest = x @ coef
    first = params.theta[:, 0] if p else np.zeros((g, m, m))   # theta[k,0] of every k
    first_t = first.transpose(0, 2, 1)
    # axis 0 is k, axis 1 is l
    means = rest[:, None, :] + one_step @ first_t
    covs = params.omega[:, None] + first[:, None] @ params.omega @ first_t[:, None]
    return MixtureNormalMV(weights=np.outer(params.pi, params.pi).ravel(),
                           means=means.reshape(g * g, m), covs=covs.reshape(g * g, m, m),
                           horizon=2, origin_time=origin.t)


def mixture_moments(mix: MixtureNormalMV) -> MomentPair:
    """Overall mean and covariance of a Gaussian mixture.

    cov = sum_j w_j (cov_j + d_j d_j') with d_j = mu_j - mu, symmetrized. The
    means are centred first: the raw form ``sum_j w_j mu_j mu_j' - mu mu'``
    cancels catastrophically when the means sit far from zero.
    """
    w = mix.weights
    mean = w @ mix.means
    dev = mix.means - mean
    cov = np.einsum("j,jab->ab", w, mix.covs)
    cov += np.einsum("j,ja,jb->ab", w, dev, dev)
    cov = 0.5 * (cov + cov.T)
    return MomentPair(mean=mean, cov=cov)


def predictive_h_step_mc(
    params: MvarParameters,
    origin: ForecastOrigin,
    horizon: int,
    n_paths: int,
    seed: int = 0,
) -> tuple[np.ndarray, MomentPair]:
    """Monte Carlo predictive sample at any horizon: endpoint draws and their moments.

    Simulates ``n_paths`` trajectories of length ``horizon`` from the origin
    (no burn-in) and returns the horizon-``h`` endpoints, shape (n_paths, m),
    with their empirical mean and covariance. Deterministic given the seed.
    """
    origin.check_dimensions(params.spec)
    rng = np.random.default_rng(seed)
    paths = simulate_forward(params, origin.history, horizon, n_paths, rng)
    endpoints = paths[:, -1, :].copy()   # an owned block: a view would keep every step alive
    del paths
    mean = endpoints.mean(axis=0)
    if n_paths > 1:
        cov = np.cov(endpoints.T, ddof=1).reshape(params.spec.m, params.spec.m)
    else:
        cov = np.zeros((params.spec.m, params.spec.m))
    return endpoints, MomentPair(mean=mean, cov=cov)
