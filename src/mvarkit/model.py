"""Core mixture vector autoregression objects and likelihood machinery.

A model with ``g`` Gaussian components over an ``m``-dimensional series draws,
at each time step, a component ``k`` with probability ``pi[k]`` and generates

    Y_t = theta0[k] + sum_i theta[k, i-1] @ Y_{t-i} + omega[k]^{1/2} eps_t

with ``eps_t`` standard normal. Component ``k`` uses lags ``1..orders[k]``;
coefficient matrices beyond a component's own order are stored as explicit
zero blocks so every component shares the maximal lag depth ``p``. The lag
layout lives in two builders: :func:`regressor_matrix` (and the row helper
``_regressor_row``) for conditional means ``x_t' B_k``, and
:func:`companion_matrices` for the companion form that :func:`is_stable` and
the exact predictive mixtures share.

A model meets a series in one place for :func:`log_likelihood`,
``estimation.e_step`` and EM: ``_require_series`` checks it, ``_Design``
builds its scored observations and regressors, and the E-kernel
``_e_kernel`` turns a batch of starts' component log densities into
log-likelihoods, responsibilities and :class:`DensityUnderflowError` failures.
Stacked factorisations call numpy's LAPACK gufuncs through one handle,
``_lapack``, under ``_nan_errstate``, where a failing slice is NaN and raises
nothing.

All objects are immutable after construction (arrays are marked read-only)
and safe to share across threads.

The value types' invariants live here, once each, for every module's
constructors: ``_require_shape`` (:class:`DimensionError`),
``_require_finite`` and ``_require_positive`` (``ValueError``),
``_require_weights`` (finite, strictly positive, summing to 1 within
:data:`WEIGHT_SUM_TOL`) and
``_require_symmetric`` (the relative test of ``_asymmetric``,
:class:`NotPositiveDefiniteError`); ``_frozen`` makes the read-only copy
that every value type stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from numpy.linalg import _umath_linalg as _lapack

from .exceptions import (
    DensityUnderflowError,
    DimensionError,
    EigenSolverError,
    NotPositiveDefiniteError,
    TimeIndexError,
)

LOG_2PI = float(np.log(2.0 * np.pi))

#: Tolerance bands shared by the validation code below.
WEIGHT_SUM_TOL = 1e-12
SYMMETRY_TOL = 1e-10
STABILITY_TOL = 1e-10


def _asymmetric(covs: np.ndarray) -> np.ndarray:
    """Per matrix over the last two axes: ``max|C - C'| > SYMMETRY_TOL * max|C|``.

    The test is relative at every scale: rounding in ``A S A'`` or in an
    estimate leaves an asymmetry that grows and shrinks with the data scale,
    while a Cholesky factorisation reads only one triangle. An all-zero matrix
    passes; where ``SYMMETRY_TOL * max|C|`` underflows to zero (subnormal
    matrices), any asymmetry fails.
    """
    scale = np.abs(covs).max(axis=(-2, -1), initial=0.0)
    gap = np.abs(covs - np.swapaxes(covs, -1, -2)).max(axis=(-2, -1), initial=0.0)
    return gap > SYMMETRY_TOL * scale


def _frozen(a, dtype=float) -> np.ndarray:
    """Copy ``a`` to a read-only float array."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _require_shape(a: np.ndarray, shape: tuple, name: str) -> None:
    """Raise :class:`DimensionError` unless ``a.shape`` is ``shape``.

    An integer entry must match exactly; a string entry (``"m"``) matches any
    length and names it in the message.
    """
    if a.shape == shape:
        return
    if a.ndim == len(shape):
        for want, got in zip(shape, a.shape):
            if want != got and not isinstance(want, str):
                break
        else:
            return
    wanted = ",".join(map(str, shape)) + ("," if len(shape) == 1 else "")
    raise DimensionError(f"{name} must have shape ({wanted}), got {a.shape}")


def _require_finite(a: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` if ``a`` has a NaN or infinite entry.

    This helper and the three below test with ``np.count_nonzero``, which on
    the small arrays of a constructor costs about half of an ``.all()`` or
    ``.any()`` reduction.
    """
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError(f"{name} has non-finite entries")


def _require_positive(a: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` unless every entry of the finite array ``a`` is above 0."""
    if np.count_nonzero(a <= 0.0):
        raise ValueError(f"{name} must be strictly positive, got {a}")


def _require_weights(w: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` unless ``w`` is finite, strictly positive and sums to 1 within
    :data:`WEIGHT_SUM_TOL`."""
    _require_finite(w, name)
    _require_positive(w, name)
    total = w.sum()
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"{name} must sum to 1 within {WEIGHT_SUM_TOL}, got sum {total!r}")


def _require_symmetric(covs: np.ndarray, label: str) -> None:
    """Raise :class:`NotPositiveDefiniteError` if a matrix of ``covs`` (..., m, m) fails
    :func:`_asymmetric`; ``label.format(i)`` names the first failing index ``i``."""
    asymmetric = _asymmetric(covs)
    if np.count_nonzero(asymmetric):
        raise NotPositiveDefiniteError(
            f"{label.format(int(np.argmax(asymmetric)))} is not symmetric within "
            f"{SYMMETRY_TOL} relative"
        )


def _require_series(series: SeriesMatrix, spec: ModelSpec) -> None:
    """Raise :class:`DimensionError` unless ``series`` has ``spec.m`` columns, and
    ``ValueError`` unless it has the ``p+1`` rows needed to score one observation."""
    if series.m != spec.m:
        raise DimensionError(f"series dimension {series.m} does not match model dimension {spec.m}")
    if series.n < spec.p + 1:
        raise ValueError(f"need at least p+1={spec.p + 1} observations, got {series.n}")


def _nan_errstate() -> np.errstate:
    """The floating-point state in which stacked ``_lapack`` calls and EM arithmetic run.

    ``_lapack`` is numpy's own module of stacked LAPACK gufuncs (``solve``,
    ``inv``, ``cholesky_lo``, ``eigvalsh_lo``), the ones ``np.linalg`` wraps.
    Called directly, a slice whose factorisation fails comes back all NaN and
    sets the "invalid" flag instead of raising for the whole stack; the other
    slices are the ones ``np.linalg`` would return. Every flag is ignored here,
    whatever the caller's state, so failures are read from the values, once
    per slice: "invalid" for those NaNs, "over" and "divide" as ``np.linalg``
    ignores them around the same calls, "over" also for a Gaussian quadratic
    form that reaches +inf (see :func:`gaussian_log_densities`), and "under"
    for the responsibilities' ``exp``.
    """
    return np.errstate(all="ignore")


@dataclass(frozen=True)
class ModelSpec:
    """Structural description: component count ``g``, dimension ``m``, AR orders."""

    g: int
    m: int
    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(o) for o in self.orders))
        if self.g < 1:
            raise ValueError(f"g must be >= 1, got {self.g}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if len(self.orders) != self.g:
            raise DimensionError(
                f"orders must have exactly g={self.g} entries, got {len(self.orders)}"
            )
        if any(o < 0 for o in self.orders):
            raise ValueError(f"every order must be >= 0, got {self.orders}")

    @property
    def p(self) -> int:
        """Maximal autoregressive order across components."""
        return max(self.orders)

    @property
    def n_free_parameters(self) -> int:
        """Free parameters: mixing weights + per-component intercept, AR blocks, covariance.

        Zero-padded AR blocks beyond a component's own order are constraints,
        not parameters, so only lags up to ``orders[k]`` are counted.
        """
        m = self.m
        return (self.g - 1) + self.g * m + m * m * sum(self.orders) + self.g * m * (m + 1) // 2

    def __str__(self) -> str:
        return f"MVAR({self.g};{','.join(str(o) for o in self.orders)})"


@dataclass(frozen=True)
class MvarParameters:
    """Full parameter set: mixing weights, intercepts, AR matrices, innovation covariances.

    ``theta`` has shape ``(g, p, m, m)``; entry ``theta[k, i-1]`` multiplies
    ``Y_{t-i}`` and must be a zero block for ``i > orders[k]``.
    """

    spec: ModelSpec
    pi: np.ndarray        # (g,)
    theta0: np.ndarray    # (g, m)
    theta: np.ndarray     # (g, p, m, m)
    omega: np.ndarray     # (g, m, m)

    def __post_init__(self):
        spec = self.spec
        g, m, p = spec.g, spec.m, spec.p
        pi = _frozen(self.pi)
        theta0 = _frozen(self.theta0)
        theta = np.asarray(self.theta, dtype=float)
        if theta.size == g * p * m * m:   # a p=0 theta read from JSON has lost its last axes
            theta = theta.reshape(g, p, m, m)
        theta = _frozen(theta)
        omega = _frozen(self.omega)
        _require_shape(theta, (g, p, m, m), "theta")
        _require_shape(pi, (g,), "pi")
        _require_shape(theta0, (g, m), "theta0")
        _require_shape(omega, (g, m, m), "omega")
        _require_weights(pi, "pi")
        for name, values in (("theta0", theta0), ("theta", theta), ("omega", omega)):
            _require_finite(values, name)
        for k in range(g):
            for lag in range(spec.orders[k], p):
                if np.any(theta[k, lag] != 0.0):
                    raise ValueError(
                        f"theta[{k},{lag}] must be a zero block: lag {lag + 1} exceeds "
                        f"component order {spec.orders[k]}"
                    )
        _require_symmetric(omega, "omega[{}]")
        chols = np.empty((g, m, m))
        for k in range(g):
            try:
                chols[k] = scipy.linalg.cholesky(omega[k], lower=True)
            except scipy.linalg.LinAlgError as exc:
                raise NotPositiveDefiniteError(f"omega[{k}] is not positive definite: {exc}") from exc
        chols.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "_chol", chols)

    @classmethod
    def from_component_lists(cls, spec: ModelSpec, pi, theta0, theta_lists, omega) -> "MvarParameters":
        """Build from per-component lists of AR matrices of length ``orders[k]``.

        Pads each component with zero blocks up to the maximal order ``p``.
        """
        g, m, p = spec.g, spec.m, spec.p
        theta = np.zeros((g, p, m, m))
        for k, mats in enumerate(theta_lists):
            mats = [np.asarray(mm, dtype=float) for mm in mats]
            if len(mats) != spec.orders[k]:
                raise DimensionError(
                    f"component {k} needs {spec.orders[k]} AR matrices, got {len(mats)}"
                )
            for i, mat in enumerate(mats):
                theta[k, i] = mat
        return cls(spec=spec, pi=np.asarray(pi, float), theta0=np.asarray(theta0, float),
                   theta=theta, omega=np.asarray(omega, float))

    def cholesky_factors(self) -> np.ndarray:
        """Lower Cholesky factors of the innovation covariances, shape (g, m, m)."""
        return self._chol

    def allclose(self, other: "MvarParameters", atol: float = 0.0) -> bool:
        return (
            self.spec == other.spec
            and np.allclose(self.pi, other.pi, rtol=0, atol=atol)
            and np.allclose(self.theta0, other.theta0, rtol=0, atol=atol)
            and np.allclose(self.theta, other.theta, rtol=0, atol=atol)
            and np.allclose(self.omega, other.omega, rtol=0, atol=atol)
        )


@dataclass(frozen=True)
class SeriesMatrix:
    """Time-ordered panel of observations, oldest first, shape (n, m)."""

    values: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values)
        _require_shape(values, ("n", "m"), "series")
        _require_finite(values, "series")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ForecastOrigin:
    """Sufficient statistic for forecasting: the last ``p`` observations.

    ``history`` rows are oldest first, so ``history[-1]`` is the observation
    at the origin time ``t`` (a 0-based index into the originating series).
    """

    history: np.ndarray   # (p, m)
    t: int

    def __post_init__(self):
        history = _frozen(self.history)
        _require_shape(history, ("p", "m"), "history")
        _require_finite(history, "history")
        object.__setattr__(self, "history", history)

    @classmethod
    def from_series(cls, series: SeriesMatrix, p: int, t: int | None = None) -> "ForecastOrigin":
        """Take the ``p`` observations ending at row ``t`` (default: the last row)."""
        if t is None:
            t = series.n - 1
        if t - p + 1 < 0 or t >= series.n:
            raise TimeIndexError(f"origin t={t} with p={p} lags out of range for n={series.n}")
        return cls(history=series.values[t - p + 1: t + 1], t=t)

    def check_dimensions(self, spec: ModelSpec) -> None:
        _require_shape(self.history, (spec.p, spec.m), "origin history")


def regressor_matrix(series: SeriesMatrix, p: int) -> np.ndarray:
    """Stacked regressors (1, Y_{t-1}', ..., Y_{t-p}') for t = p..n-1, shape (n-p, 1 + m*p)."""
    y = series.values
    n, m = y.shape
    x = np.empty((n - p, 1 + m * p))
    x[:, 0] = 1.0
    for i in range(1, p + 1):
        x[:, 1 + m * (i - 1): 1 + m * i] = y[p - i: n - i]
    return x


def stacked_coefficients(params: MvarParameters) -> np.ndarray:
    """Coefficients B_k = (theta0_k; theta_k1'; ...; theta_kp'), shape (g, 1 + m*p, m).

    The conditional mean of component ``k`` at time t is ``x_t' B_k`` for the
    row ``x_t`` of ``regressor_matrix(series, p)``; lags beyond a
    component's order are zero rows.
    """
    g, m, p = params.spec.g, params.spec.m, params.spec.p
    lags = params.theta.transpose(0, 1, 3, 2).reshape(g, p * m, m)
    return np.concatenate([params.theta0[:, None, :], lags], axis=1)


def stacked_residuals(coef: np.ndarray, xt: np.ndarray, yt: np.ndarray) -> np.ndarray:
    """Residuals ``Y_t - B' x_t`` for stacked coefficients ``coef`` of shape (..., d, m).

    ``xt`` (d, N) holds the regressor rows as columns and ``yt`` (m, N) the
    scored observations. Returns shape (..., m, N); every coefficient block
    goes through one matrix product.
    """
    *lead, d, m = coef.shape
    fitted = (np.ascontiguousarray(coef.swapaxes(-1, -2)).reshape(-1, d) @ xt).reshape(*lead, m, -1)
    return np.subtract(yt, fitted, out=fitted)


class _Design:
    """A checked series as a model of ``spec`` sees it: scored observations and regressors.

    A conditional mean is x_t' B_k (see :func:`stacked_coefficients`).
    ``groups`` lists, per distinct order, its components and the width
    1 + m * order of the regressor block they use.
    """

    def __init__(self, series: SeriesMatrix, spec: ModelSpec):
        _require_series(series, spec)
        self.spec = spec
        self.y = series.values[spec.p:]                       # (N, m)
        self.yt = np.ascontiguousarray(self.y.T)              # (m, N)
        self.x = regressor_matrix(series, spec.p)             # (N, d)
        self.xt = np.ascontiguousarray(self.x.T)              # (d, N)
        orders = np.asarray(spec.orders)
        self.groups = [(np.flatnonzero(orders == order), 1 + spec.m * order)
                       for order in sorted(set(spec.orders))]

    @cached_property
    def moments(self) -> np.ndarray:
        """Moment matrix of shape (N, d * (d + m)): row t is ``x_t (x) (x_t, y_t)``.

        Built on first use, so only fits that run an M-step pay for it.
        """
        xy = np.concatenate([self.x, self.y], axis=1)
        return (self.x[:, :, None] * xy[:, None, :]).reshape(self.x.shape[0], -1)


def _regressor_row(history: np.ndarray) -> np.ndarray:
    """Row ``x = (1, Y_t', ..., Y_{t-p+1}')`` of a (p, m) history, oldest first: ``x' B_k`` is
    component ``k``'s conditional mean of the next observation (:func:`stacked_coefficients`)."""
    return np.concatenate([[1.0], history[::-1].ravel()])


def component_residual(params: MvarParameters, series: SeriesMatrix, t: int, k: int) -> np.ndarray:
    """Residual of component ``k`` at row ``t``: ``Y_t - x_t' B_k`` for the regressor row ``x_t``.

    ``t`` is a 0-based row index and must leave ``p`` lags available
    (``p <= t < n``); ``k`` is a 0-based component index.
    """
    spec = params.spec
    if t < spec.p or t >= series.n:
        raise TimeIndexError(f"t={t} outside scored range [{spec.p}, {series.n - 1}]")
    _require_series(series, spec)   # only the width can fail: p <= t < n leaves p+1 rows
    if not 0 <= k < spec.g:
        raise TimeIndexError(f"component k={k} outside range [0, {spec.g - 1}]")
    y = series.values
    return y[t] - _regressor_row(y[t - spec.p: t]) @ stacked_coefficients(params)[k]


def gaussian_log_densities(resid: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Zero-mean Gaussian log densities of residual columns.

    ``resid`` has shape ``(..., m, n)`` (one column per observation) and
    ``chol`` holds the matching lower Cholesky factors, shape ``(..., m, m)``;
    leading axes broadcast. Returns shape ``(..., n)``.

    Callers run it under :func:`_nan_errstate`: a quadratic form may overflow
    to +inf, which surfaces as a -inf log density that the E-kernel reports as
    a :class:`DensityUnderflowError` naming the observation.
    """
    m = chol.shape[-1]
    half = _lapack.inv(chol) @ resid
    quad = np.einsum("...in,...in->...n", half, half)
    log_det = 2.0 * np.log(chol.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)
    quad += m * LOG_2PI + log_det[..., None]
    quad *= -0.5
    return quad


def component_log_densities(params: MvarParameters, series: SeriesMatrix) -> np.ndarray:
    """Per-component Gaussian log densities at every scored time, shape (n-p, g)."""
    design = _Design(series, params.spec)
    resid = stacked_residuals(stacked_coefficients(params), design.xt, design.yt)
    with _nan_errstate():
        return gaussian_log_densities(resid, params.cholesky_factors()).T


def _e_kernel(log_dens: np.ndarray, log_pi: np.ndarray, p: int):
    """Log-likelihoods (S,), responsibilities (S, g, N) and per-start errors of S starts.

    ``log_dens`` holds the component log densities (S, g, N) and becomes the
    responsibilities, in one max/exp/sum pass. A start whose component
    densities all underflow at some observation (a NaN responsibility row)
    fails with :class:`DensityUnderflowError` naming the first such time
    index; the rows are searched only when some log-likelihood is non-finite.
    Callers run it under :func:`_nan_errstate`, where such a row's
    ``-inf - -inf`` is a quiet NaN.
    """
    log_dens += log_pi[..., None]
    row_max = log_dens.max(axis=1, keepdims=True)
    log_dens -= row_max
    np.exp(log_dens, out=log_dens)
    total = log_dens.sum(axis=1, keepdims=True)
    log_dens /= total
    row_loglik = (row_max + np.log(total))[:, 0]
    loglik = row_loglik.sum(axis=-1)
    errors = [None] * len(log_pi)
    if not np.isfinite(loglik).all():
        bad = ~np.isfinite(row_loglik)
        for s in np.flatnonzero(bad.any(axis=1)):
            errors[s] = DensityUnderflowError(int(np.argmax(bad[s])) + p)
    return loglik, log_dens, errors


def _posterior(params: MvarParameters, series: SeriesMatrix) -> tuple[float, np.ndarray]:
    """Log-likelihood and (g, n-p) responsibilities: the one-start case of ``_e_kernel``."""
    log_dens = component_log_densities(params, series).T[None]
    with _nan_errstate():
        loglik, tau, errors = _e_kernel(log_dens, np.log(params.pi)[None], params.spec.p)
    if errors[0] is not None:
        raise errors[0]
    return float(loglik[0]), tau[0]


def log_likelihood(params: MvarParameters, series: SeriesMatrix) -> float:
    """Conditional log-likelihood; the first ``p`` observations are conditioned on, never scored.

    Raises :class:`DensityUnderflowError` naming the first time index at which
    every component density underflows.
    """
    return _posterior(params, series)[0]


def companion_matrices(params: MvarParameters) -> np.ndarray:
    """Companion matrices of every component, shape (g, d, d) with d = m*max(p, 1).

    The state is (Y_t', ..., Y_{t-q+1}')' with q = max(p, 1), newest block
    first: component ``k``'s AR blocks fill the first block row, identity
    blocks the subdiagonal. A p=0 model gets zero (m, m) blocks.
    """
    g, m, p = params.spec.g, params.spec.m, params.spec.p
    d = m * max(p, 1)
    a = np.zeros((g, d, d))
    a[:, :m, :m * p] = params.theta.transpose(0, 2, 1, 3).reshape(g, m, m * p)
    a[:, m:, :d - m] = np.eye(d - m)
    return a


def is_stable(params: MvarParameters, tol: float = STABILITY_TOL) -> tuple[bool, float]:
    """Stability verdict and the spectral radius it is based on.

    Forms ``M = sum_k pi[k] * kron(A_k, A_k)`` over the component companion
    matrices and returns ``(rho < 1 - tol, rho)`` for its spectral radius
    ``rho``; a model with ``p = 0`` has zero companion blocks and radius 0.
    Eigenvalue solver failures raise
    :class:`~mvarkit.exceptions.EigenSolverError`, never an "unstable" verdict.
    """
    mat = sum(w * np.kron(a_k, a_k) for w, a_k in zip(params.pi, companion_matrices(params)))
    try:
        eigs = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue computation failed: {exc}") from exc
    rho = float(np.max(np.abs(eigs)))
    return rho < 1.0 - tol, rho
