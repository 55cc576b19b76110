"""Core mixture vector autoregression objects and likelihood machinery.

A model with ``g`` Gaussian components over an ``m``-dimensional series draws,
at each time step, a component ``k`` with probability ``pi[k]`` and generates

    Y_t = theta0[k] + sum_i theta[k, i-1] @ Y_{t-i} + omega[k]^{1/2} eps_t

with ``eps_t`` standard normal. Component ``k`` uses lags ``1..orders[k]``;
coefficient matrices beyond a component's own order are stored as explicit
zero blocks so every component shares the maximal lag depth ``p``.

All objects are immutable after construction (arrays are marked read-only)
and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import (
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


def _frozen(a, dtype=float) -> np.ndarray:
    """Copy ``a`` to a read-only float array."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ModelSpec:
    """Structural description: component count, series dimension, AR orders."""

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
        raw_theta = np.asarray(self.theta, dtype=float)
        if raw_theta.size != g * p * m * m:
            raise DimensionError(
                f"theta must have shape ({g},{p},{m},{m}), got {raw_theta.shape}"
            )
        theta = _frozen(raw_theta.reshape(g, p, m, m))
        omega = _frozen(self.omega)
        if pi.shape != (g,):
            raise DimensionError(f"pi must have shape ({g},), got {pi.shape}")
        if theta0.shape != (g, m):
            raise DimensionError(f"theta0 must have shape ({g},{m}), got {theta0.shape}")
        if omega.shape != (g, m, m):
            raise DimensionError(f"omega must have shape ({g},{m},{m}), got {omega.shape}")
        for name, values in (("pi", pi), ("theta0", theta0), ("theta", theta)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} has non-finite entries")
        if np.any(pi <= 0.0):
            raise ValueError(f"mixing weights must be strictly positive, got {pi}")
        if abs(pi.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"mixing weights must sum to 1 within {WEIGHT_SUM_TOL}, got sum {pi.sum()!r}")
        for k in range(g):
            for lag in range(spec.orders[k], p):
                if np.any(theta[k, lag] != 0.0):
                    raise ValueError(
                        f"theta[{k},{lag}] must be a zero block: lag {lag + 1} exceeds "
                        f"component order {spec.orders[k]}"
                    )
        chols = np.empty((g, m, m))
        for k in range(g):
            ok = omega[k]
            if not np.all(np.isfinite(ok)):
                raise NotPositiveDefiniteError(f"omega[{k}] has non-finite entries")
            if np.max(np.abs(ok - ok.T)) > SYMMETRY_TOL:
                raise NotPositiveDefiniteError(
                    f"omega[{k}] is not symmetric within {SYMMETRY_TOL}"
                )
            try:
                chols[k] = scipy.linalg.cholesky(ok, lower=True)
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

    def permuted(self, order) -> "MvarParameters":
        """Relabel components according to ``order`` (a permutation of 0..g-1)."""
        order = list(order)
        spec = ModelSpec(self.spec.g, self.spec.m, tuple(self.spec.orders[k] for k in order))
        return MvarParameters(
            spec=spec,
            pi=self.pi[order],
            theta0=self.theta0[order],
            theta=self.theta[order],
            omega=self.omega[order],
        )

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
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise DimensionError(f"series must be 2-d (n, m), got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("series contains non-finite entries")
        values.setflags(write=False)
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
        history = np.array(self.history, dtype=float)
        if history.ndim != 2:
            raise DimensionError(f"history must be 2-d (p, m), got shape {history.shape}")
        history.setflags(write=False)
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
        if self.history.shape != (spec.p, spec.m):
            raise DimensionError(
                f"origin history has shape {self.history.shape}, model needs ({spec.p},{spec.m})"
            )


def _check_series(params: MvarParameters, series: SeriesMatrix) -> None:
    if series.m != params.spec.m:
        raise DimensionError(
            f"series dimension {series.m} does not match model dimension {params.spec.m}"
        )
    if series.n < params.spec.p + 1:
        raise ValueError(
            f"need at least p+1={params.spec.p + 1} observations, got {series.n}"
        )


def regressor_matrix(series: SeriesMatrix, order: int, max_order: int) -> np.ndarray:
    """Stacked regressors (1, Y_{t-1}', ..., Y_{t-order}') for t = max_order..n-1.

    Rows align with the scored observations of a model with maximal lag
    ``max_order``, so components of different orders share row indexing.
    """
    if order > max_order:
        raise DimensionError(f"order {order} exceeds max_order {max_order}")
    y = series.values
    n, m = y.shape
    rows = n - max_order
    x = np.empty((rows, 1 + m * order))
    x[:, 0] = 1.0
    for i in range(1, order + 1):
        x[:, 1 + m * (i - 1): 1 + m * i] = y[max_order - i: n - i]
    return x


def stacked_coefficients(params: MvarParameters) -> np.ndarray:
    """Coefficients B_k = (theta0_k; theta_k1'; ...; theta_kp'), shape (g, 1 + m*p, m).

    The conditional mean of component ``k`` at time t is ``x_t' B_k`` for the
    row ``x_t`` of ``regressor_matrix(series, p, p)``; lags beyond a
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
    fitted = np.ascontiguousarray(coef.swapaxes(-1, -2)).reshape(-1, d) @ xt
    return np.subtract(yt, fitted.reshape(*lead, m, -1))


def component_residual(params: MvarParameters, series: SeriesMatrix, t: int, k: int) -> np.ndarray:
    """Residual of component ``k`` at row ``t``: ``Y_t - theta0[k] - sum_i theta[k,i-1] @ Y_{t-i}``.

    ``t`` is a 0-based row index and must leave ``p`` lags available
    (``p <= t < n``); ``k`` is a 0-based component index.
    """
    spec = params.spec
    if series.m != spec.m:
        raise DimensionError(
            f"series dimension {series.m} does not match model dimension {spec.m}"
        )
    if t < spec.p or t >= series.n:
        raise TimeIndexError(f"t={t} outside scored range [{spec.p}, {series.n - 1}]")
    if not 0 <= k < spec.g:
        raise TimeIndexError(f"component k={k} outside range [0, {spec.g - 1}]")
    y = series.values
    mean = params.theta0[k].copy()
    for i in range(1, spec.orders[k] + 1):
        mean += params.theta[k, i - 1] @ y[t - i]
    return y[t] - mean


def gaussian_log_densities(resid: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Zero-mean Gaussian log densities of residual columns.

    ``resid`` has shape ``(..., m, n)`` (one column per observation) and
    ``chol`` holds the matching lower Cholesky factors, shape ``(..., m, m)``;
    leading axes broadcast. Returns shape ``(..., n)``.
    """
    m = chol.shape[-1]
    half = np.linalg.inv(chol) @ resid
    # overflow to +inf is fine: it surfaces as a -inf log density, which the
    # E-step reports as a DensityUnderflowError naming the observation
    with np.errstate(over="ignore"):
        quad = np.einsum("...in,...in->...n", half, half)
    log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return -0.5 * (m * LOG_2PI + log_det[..., None] + quad)


def component_log_densities(params: MvarParameters, series: SeriesMatrix) -> np.ndarray:
    """Per-component Gaussian log densities at every scored time, shape (n-p, g)."""
    _check_series(params, series)
    p = params.spec.p
    xt = np.ascontiguousarray(regressor_matrix(series, p, p).T)
    yt = np.ascontiguousarray(series.values[p:].T)
    resid = stacked_residuals(stacked_coefficients(params), xt, yt)
    return gaussian_log_densities(resid, params.cholesky_factors()).T


def log_normalise(log_joint: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Log-sum-exp and normalised probabilities along ``axis`` in one max/exp/sum pass.

    Returns ``(log_norm, probs)``: ``log_norm`` drops ``axis``; ``probs`` has
    the shape of ``log_joint`` and sums to 1 along ``axis``. Where every entry
    along ``axis`` is ``-inf`` (all components underflowed), ``log_norm`` is
    non-finite and ``probs`` is NaN.
    """
    row_max = np.max(log_joint, axis=axis, keepdims=True)
    with np.errstate(invalid="ignore"):
        probs = log_joint - row_max
    np.exp(probs, out=probs)
    total = np.sum(probs, axis=axis, keepdims=True)
    probs /= total
    return np.squeeze(row_max + np.log(total), axis=axis), probs


def log_likelihood(params: MvarParameters, series: SeriesMatrix) -> float:
    """Conditional log-likelihood; the first ``p`` observations are conditioned on, never scored."""
    joint = component_log_densities(params, series) + np.log(params.pi)[None, :]
    row, _ = log_normalise(joint, axis=1)
    total = float(np.sum(row))
    if not np.isfinite(total):
        bad = int(np.flatnonzero(~np.isfinite(row))[0]) + params.spec.p
        raise ValueError(f"log-likelihood is non-finite (first bad time index t={bad}); "
                         "parameters are degenerate for this data")
    return total


def companion_matrix(params: MvarParameters, k: int) -> np.ndarray:
    """Companion form of component ``k``: AR blocks on the first block row,
    identity blocks on the subdiagonal, shape (m*p, m*p). Requires p >= 1."""
    spec = params.spec
    m, p = spec.m, spec.p
    if p < 1:
        raise ValueError("companion matrix undefined for p=0")
    if not 0 <= k < spec.g:
        raise TimeIndexError(f"component k={k} outside range [0, {spec.g - 1}]")
    a = np.zeros((m * p, m * p))
    for i in range(p):
        a[:m, i * m:(i + 1) * m] = params.theta[k, i]
    if p > 1:
        a[m:, :-m] += np.eye(m * (p - 1))
    return a


def is_stable(params: MvarParameters, tol: float = STABILITY_TOL) -> tuple[bool, float]:
    """Stability verdict and the spectral radius it is based on.

    Forms ``M = sum_k pi[k] * kron(A_k, A_k)`` over the component companion
    matrices and returns ``(rho < 1 - tol, rho)`` for its spectral radius
    ``rho``. A model with ``p = 0`` has no dynamics and is reported stable
    with radius 0. Eigenvalue solver failures raise
    :class:`~mvarkit.exceptions.EigenSolverError`, never an "unstable" verdict.
    """
    spec = params.spec
    if spec.p == 0:
        return True, 0.0
    d = spec.m * spec.p
    mat = np.zeros((d * d, d * d))
    for k in range(spec.g):
        a_k = companion_matrix(params, k)
        mat += params.pi[k] * np.kron(a_k, a_k)
    try:
        eigs = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue computation failed: {exc}") from exc
    rho = float(np.max(np.abs(eigs)))
    return rho < 1.0 - tol, rho
