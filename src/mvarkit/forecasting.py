"""Conditional predictive distributions: exact Gaussian mixtures at any horizon, and Monte Carlo.

The predictive law of Y_{t+h} is a g^h-component Gaussian mixture, one
component per sequence of labels drawn at t+1, ..., t+h. In companion form
the state s = (Y_t', ..., Y_{t-q+1}')' with q = max(p, 1), newest block
first, moves under label k as ``s <- c_k + A_k s + E e`` with e ~ N(0,
omega[k]) and ``A_k`` from :func:`mvarkit.model.companion_matrices`, so each
label sequence carries a Gaussian state whose mean and covariance follow
``mu <- c_k + A_k mu`` and ``S <- A_k S A_k' + E omega_k E'``.
:func:`predictive_mixture` runs that recursion; the component count
grows as g^h, so past :data:`MAX_COMPONENTS` the simulation in
:func:`predictive_h_step_mc` is the way forward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NotPositiveDefiniteError
from .model import (ForecastOrigin, MvarParameters, _frozen, _lapack, _nan_errstate,
                    _require_finite, _require_shape, _require_symmetric, _require_weights,
                    companion_matrices)
from .simulation import simulate_forward

MOMENT_PSD_TOL = 1e-10
MAX_COMPONENTS = 4096


@dataclass(frozen=True)
class MixtureNormalMV:
    """Weighted multivariate Gaussian mixture: the predictive law of Y_{t+h}."""

    weights: np.ndarray   # (c,)
    means: np.ndarray     # (c, m)
    covs: np.ndarray      # (c, m, m)
    horizon: int
    origin_time: int

    def __post_init__(self):
        weights = _frozen(self.weights)
        means = _frozen(self.means)
        covs = _frozen(self.covs)
        _require_shape(weights, ("c",), "weights")
        c = weights.shape[0]
        _require_shape(means, (c, "m"), "means")
        m = means.shape[1]
        _require_shape(covs, (c, m, m), "covs")
        _require_weights(weights, "weights")
        _require_finite(means, "means")
        _require_finite(covs, "covs")
        _require_symmetric(covs, "mixture component {} covariance")
        with _nan_errstate():
            chol = _lapack.cholesky_lo(covs)     # a component without a factor comes back NaN
        failed = np.isnan(chol).any(axis=(1, 2))
        if failed.any():
            raise NotPositiveDefiniteError(
                f"mixture component {int(np.argmax(failed))} covariance is not positive definite"
            )
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
    """Mean vector and covariance matrix of a predictive distribution.

    The covariance must be symmetric and positive semidefinite, both relative
    to its largest entry: an eigenvalue below ``-MOMENT_PSD_TOL * max|C|``
    fails at every scale, and the all-zero matrix passes.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _frozen(self.mean)
        cov = _frozen(self.cov)
        _require_shape(mean, ("m",), "mean")
        m = mean.shape[0]
        _require_shape(cov, (m, m), "cov")
        _require_finite(mean, "mean")
        _require_finite(cov, "cov")
        _require_symmetric(cov, "moment covariance")
        low = np.linalg.eigvalsh(cov).min()
        # the tolerance scale is needed only for a negative eigenvalue
        if low < 0.0 and low < -MOMENT_PSD_TOL * np.abs(cov).max(initial=0.0):
            raise NotPositiveDefiniteError("moment covariance is not positive semidefinite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def predictive_mixture(
    params: MvarParameters, origin: ForecastOrigin, horizon: int
) -> MixtureNormalMV:
    """Exact predictive mixture of Y_{t+horizon}: g^horizon components, one per label sequence.

    Each step applies every label k to every component i of the previous
    step, writing the result at ``j = k*c + i`` (c components so far), so the
    newest label leads: at h=2 the pair (k, l), with k generating Y_{t+2} and
    l generating Y_{t+1}, sits at ``k*g + l``. The weight is the product of
    the labels' ``pi``; mean and covariance are the newest block of the
    companion-form state. Raises ``ValueError`` for ``horizon < 1`` and when
    g^horizon exceeds :data:`MAX_COMPONENTS`, before building anything.

    Two products are skipped because their result is known. The origin's
    state is observed, so the first step's covariance is ``E omega_k E'``
    alone, with no ``A_k 0 A_k'``. The last step builds only the first m rows
    and columns of ``A_k S A_k'``, the block that is returned. The means keep
    the full ``d``-wide product at every step.
    """
    origin.check_dimensions(params.spec)
    g, m, p = params.spec.g, params.spec.m, params.spec.p
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    # for g >= 2 the budget is passed by bit_length() steps, so the power stays small
    if g ** min(horizon, MAX_COMPONENTS.bit_length()) > MAX_COMPONENTS:
        raise ValueError(
            f"the horizon-{horizon} predictive has {g}^{horizon} components, more than "
            f"MAX_COMPONENTS = {MAX_COMPONENTS}; use predictive_h_step_mc"
        )
    a = companion_matrices(params)
    d = a.shape[-1]
    a_t = a.transpose(0, 2, 1)
    weights = np.ones(1)
    means = np.zeros((1, d))
    means[0, :m * p] = origin.history[::-1].ravel()
    for step in range(1, horizon + 1):
        rows = m if step == horizon else d
        # axis 0 is the new label k, axis 1 the component i it extends
        weights = np.outer(params.pi, weights).ravel()
        # a narrower product for the means takes another BLAS path and moves bits
        means = means @ a_t
        means[:, :, :m] += params.theta0[:, None]
        if step == 1:
            covs = np.zeros((g, 1, rows, rows))
        else:
            covs = a[:, None, :rows] @ covs @ a_t[:, None, :, :rows]
        covs[:, :, :m, :m] += params.omega[:, None]
        means = means.reshape(-1, d)
        covs = covs.reshape(-1, rows, rows)
    return MixtureNormalMV(weights=weights, means=means[:, :m], covs=covs,
                           horizon=horizon, origin_time=origin.t)


def predictive_one_step(params: MvarParameters, origin: ForecastOrigin) -> MixtureNormalMV:
    """The horizon-1 case of :func:`predictive_mixture`: g components with the model's weights."""
    return predictive_mixture(params, origin, 1)


def predictive_two_step(params: MvarParameters, origin: ForecastOrigin) -> MixtureNormalMV:
    """The horizon-2 case of :func:`predictive_mixture`: the pair (k, l) at ``k*g + l``."""
    return predictive_mixture(params, origin, 2)


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
