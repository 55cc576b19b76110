"""EM estimation: responsibilities, weighted least squares updates, multi-start fitting.

The E-step computes posterior component probabilities in log space; the
M-step solves one weighted least-squares problem per component and re-weights
the innovation covariances. Starts are initialized by drawing responsibility
rows from a symmetric Dirichlet(1) and running one M-step.

Both steps are written for a batch of starts: every array carries a leading
start axis and a component axis, and the work is done by stacked ``matmul``
and ``np.linalg`` calls (the normal equations of components of one AR order
are solved together). ``em_fit`` advances all of its starts through one loop
in lockstep; the public ``e_step`` and ``m_step`` are the one-start case of
the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp  # noqa: F401  unused, kept bound: bench/tracing.py wraps this name

from .exceptions import (
    ComponentCollapseError,
    DensityUnderflowError,
    DimensionError,
    MvarError,
    NotPositiveDefiniteError,
    SingularComponentError,
)
from .model import (
    ModelSpec,
    MvarParameters,
    SeriesMatrix,
    gaussian_log_densities,
    log_normalise,
    regressor_matrix,
    stacked_coefficients,
    stacked_residuals,
)

ROW_SUM_TOL = 1e-10
COLLAPSE_EIGENVALUE = 1e-12


@dataclass(frozen=True)
class Responsibilities:
    """Posterior component probabilities tau[t-p, k] for the scored times t=p..n-1."""

    tau: np.ndarray   # (n-p, g)

    def __post_init__(self):
        tau = np.array(self.tau, dtype=float)
        if tau.ndim != 2:
            raise DimensionError(f"tau must be 2-d, got shape {tau.shape}")
        if np.any(tau < 0.0):
            raise ValueError("responsibilities must be nonnegative")
        if np.max(np.abs(tau.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            raise ValueError(f"responsibility rows must sum to 1 within {ROW_SUM_TOL}")
        tau.setflags(write=False)
        object.__setattr__(self, "tau", tau)


class _Design:
    """The data side of a fit: scored observations and the maximal-order regressors.

    Components carry stacked coefficients B_k (see ``stacked_coefficients``),
    so a conditional mean is x_t' B_k. ``groups`` lists, per distinct order,
    its components and the width 1 + m * order of the regressor block they use.
    """

    def __init__(self, series: SeriesMatrix, spec: ModelSpec):
        if series.m != spec.m:
            raise DimensionError(
                f"series dimension {series.m} does not match spec dimension {spec.m}"
            )
        if series.n < spec.p + 1:
            raise ValueError(f"need at least p+1={spec.p + 1} observations, got {series.n}")
        self.spec = spec
        self.y = series.values[spec.p:]                       # (N, m)
        self.yt = np.ascontiguousarray(self.y.T)              # (m, N)
        self.x = regressor_matrix(series, spec.p, spec.p)     # (N, d)
        self.xt = np.ascontiguousarray(self.x.T)              # (d, N)
        orders = np.asarray(spec.orders)
        self.groups = [(np.flatnonzero(orders == order), 1 + spec.m * order)
                       for order in sorted(set(spec.orders))]


def _stacked(fn, out_shape, *arrays) -> np.ndarray:
    """Apply an ``np.linalg`` function over stacked matrices; failing slices come back NaN.

    ``np.linalg`` raises for the whole stack when a single slice fails, so on
    failure every slice is redone alone and only the offenders are left NaN.
    """
    try:
        return fn(*arrays)
    except np.linalg.LinAlgError:
        out = np.full(out_shape, np.nan)
        for ix in np.ndindex(arrays[0].shape[:-2]):
            try:
                out[ix] = fn(*(a[ix] for a in arrays))
            except np.linalg.LinAlgError:
                pass
        return out


class _Update(NamedTuple):
    """Raw M-step output for S starts; ``errors[s]`` is the failure of start s, or None."""

    pi: np.ndarray             # (S, g)
    coef: np.ndarray           # (S, g, d, m), stacked coefficients B_k
    resid: np.ndarray          # (S, g, m, N), residuals under the updated coefficients
    omega: np.ndarray          # (S, g, m, m)
    chol: np.ndarray           # (S, g, m, m), lower Cholesky factors of omega
    errors: list

    def select(self, rows) -> "_Update":
        return _Update(self.pi[rows], self.coef[rows], self.resid[rows], self.omega[rows],
                       self.chol[rows], [self.errors[r] for r in rows])


def _m_kernel(design: _Design, tau: np.ndarray) -> _Update:
    """Weighted least-squares update of S starts at once from responsibilities (S, g, N).

    A start fails at its first component (in index order) whose weighted
    normal equations are singular (:class:`SingularComponentError`) or whose
    updated covariance has an eigenvalue below ``COLLAPSE_EIGENVALUE``
    (:class:`ComponentCollapseError`); non-finite coefficients count as
    singular, non-finite covariances as collapsed. A covariance that passes the
    eigenvalue test but has no Cholesky factor raises
    :class:`NotPositiveDefiniteError`.
    """
    n_starts, g, _ = tau.shape
    m = design.spec.m
    pi = tau.mean(axis=-1)
    # Re-normalize against accumulated rounding so the invariant checks pass.
    pi /= pi.sum(axis=-1, keepdims=True)
    wxt = tau[:, :, None, :] * design.xt                      # (S, g, d, N)
    gram = wxt @ design.x
    rhs = wxt @ design.y
    coef = np.zeros(rhs.shape)
    for components, width in design.groups:
        block = rhs[:, components, :width]
        coef[:, components, :width] = _stacked(np.linalg.solve, block.shape,
                                               gram[:, components, :width, :width], block)
    singular = ~np.all(np.isfinite(coef), axis=(-2, -1))
    resid = stacked_residuals(coef, design.xt, design.yt)
    omega = (resid * tau[:, :, None, :]) @ resid.swapaxes(-1, -2)
    omega /= tau.sum(axis=-1)[..., None, None]
    omega = 0.5 * (omega + omega.swapaxes(-1, -2))
    finite = np.all(np.isfinite(omega), axis=(-2, -1))
    eye = np.eye(m)
    min_eig = _stacked(np.linalg.eigvalsh, omega.shape[:-1],
                       np.where(finite[..., None, None], omega, eye))[..., 0]
    min_eig[~finite] = np.nan
    collapsed = ~(min_eig >= COLLAPSE_EIGENVALUE)
    chol = _stacked(np.linalg.cholesky, omega.shape,
                    np.where(collapsed[..., None, None], eye, omega))
    not_pd = ~np.all(np.isfinite(chol), axis=(-2, -1))
    errors = [None] * n_starts
    failed = singular | collapsed
    for s in np.flatnonzero(failed.any(axis=1) | not_pd.any(axis=1)):
        if failed[s].any():
            k = int(np.argmax(failed[s]))
            errors[s] = (SingularComponentError(k, "weighted normal equations are singular")
                         if singular[s, k] else ComponentCollapseError(k, float(min_eig[s, k])))
        else:
            k = int(np.argmax(not_pd[s]))
            errors[s] = NotPositiveDefiniteError(f"omega[{k}] is not positive definite")
    return _Update(pi, coef, resid, omega, chol, errors)


def _e_kernel(log_pi: np.ndarray, resid: np.ndarray, chol: np.ndarray, p: int):
    """Responsibilities (S, g, N), log-likelihoods (S,) and per-start errors of S starts.

    A start whose component densities all underflow at some observation fails
    with :class:`DensityUnderflowError` naming the first such time index.
    """
    log_joint = gaussian_log_densities(resid, chol)
    log_joint += log_pi[..., None]
    row_loglik, tau = log_normalise(log_joint, axis=1)
    bad = ~np.isfinite(row_loglik)
    errors = [None] * len(log_pi)
    for s in np.flatnonzero(bad.any(axis=1)):
        errors[s] = DensityUnderflowError(int(np.argmax(bad[s])) + p)
    return row_loglik.sum(axis=-1), tau, errors


def _freeze(spec: ModelSpec, pi, coef, omega) -> MvarParameters:
    """Validated parameters of one start from its raw M-step arrays."""
    g, m, p = spec.g, spec.m, spec.p
    theta = coef[:, 1:].reshape(g, p, m, m).transpose(0, 1, 3, 2)
    return MvarParameters(spec=spec, pi=pi, theta0=coef[:, 0], theta=theta, omega=omega)


def e_step(params: MvarParameters, series: SeriesMatrix) -> Responsibilities:
    """Posterior component probabilities, computed with log-sum-exp for underflow safety."""
    design = _Design(series, params.spec)
    resid = stacked_residuals(stacked_coefficients(params)[None], design.xt, design.yt)
    _, tau, errors = _e_kernel(np.log(params.pi)[None], resid, params.cholesky_factors()[None],
                               params.spec.p)
    if errors[0] is not None:
        raise errors[0]
    return Responsibilities(tau=tau[0].T)


def m_step(series: SeriesMatrix, tau: Responsibilities, spec: ModelSpec) -> MvarParameters:
    """Weighted-least-squares parameter update given responsibilities.

    Raises :class:`SingularComponentError` when a component's weighted normal
    equations are singular, :class:`ComponentCollapseError` when an updated
    covariance has an eigenvalue below 1e-12 (degenerate component), and
    :class:`NotPositiveDefiniteError` when a covariance passes that test but
    has no Cholesky factor.
    """
    design = _Design(series, spec)
    t_mat = tau.tau
    if t_mat.shape != (series.n - spec.p, spec.g):
        raise DimensionError(
            f"tau has shape {t_mat.shape}, expected ({series.n - spec.p},{spec.g})"
        )
    update = _m_kernel(design, np.ascontiguousarray(t_mat.T)[None])
    if update.errors[0] is not None:
        raise update.errors[0]
    return _freeze(spec, update.pi[0], update.coef[0], update.omega[0])


@dataclass(frozen=True)
class InitStrategy:
    """Random multi-start initialization: Dirichlet(1) responsibility draws."""

    n_starts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")


@dataclass
class FitReport:
    """Outcome of one EM fit (the best start when several were run)."""

    params: MvarParameters
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    responsibilities: Responsibilities
    aic: float
    bic: float

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])


def _canonical_permutation(pi: np.ndarray, theta0: np.ndarray) -> np.ndarray:
    """Order components by descending weight, ties broken lexicographically on theta0."""
    keys = tuple(theta0[:, j] for j in range(theta0.shape[1] - 1, -1, -1)) + (-pi,)
    return np.lexsort(keys)


def _canonicalize(params: MvarParameters, tau: np.ndarray) -> tuple[MvarParameters, np.ndarray]:
    order = _canonical_permutation(params.pi, params.theta0)
    if np.array_equal(order, np.arange(params.spec.g)):
        return params, tau
    return params.permuted(order), tau[:, order]


@dataclass
class _StartOutcome:
    """Where one start of a lockstep run ended: its trace, and its final raw state or error."""

    trace: list[float]
    error: MvarError | None = None
    converged: bool = False
    iterations: int = 0
    pi: np.ndarray | None = None
    coef: np.ndarray | None = None
    omega: np.ndarray | None = None
    tau: np.ndarray | None = None     # (g, N) responsibilities under the final parameters


def _lockstep_em(design: _Design, tau0: np.ndarray, max_iter: int, tol: float) -> list[_StartOutcome]:
    """Run EM from the initial responsibilities (S, g, N) of S starts, all in one loop.

    Each iteration is one M-step and one E-step for every start still running.
    A start leaves the batch when its log-likelihood changes by less than
    ``tol``, after ``max_iter`` iterations, or when it fails; no start's
    arithmetic depends on the others in the batch.
    """
    p = design.spec.p
    outcomes = [_StartOutcome(trace=[]) for _ in range(tau0.shape[0])]
    rows = np.arange(tau0.shape[0])        # outcome index of each batch row
    tau = tau0

    def drop_failed(errors):
        ok = np.array([e is None for e in errors])
        for row in np.flatnonzero(~ok):
            outcomes[rows[row]].error = errors[row]
        return ok

    for iteration in range(max_iter + 1):
        update = _m_kernel(design, tau)
        ok = drop_failed(update.errors)
        if not ok.all():
            update, rows = update.select(np.flatnonzero(ok)), rows[ok]
            if rows.size == 0:
                break
        loglik, tau, errors = _e_kernel(np.log(update.pi), update.resid, update.chol, p)
        ok = drop_failed(errors)
        done = np.zeros(rows.size, dtype=bool) if iteration < max_iter else ok.copy()
        for row in np.flatnonzero(ok):
            out = outcomes[rows[row]]
            out.trace.append(float(loglik[row]))
            if iteration > 0 and abs(out.trace[-1] - out.trace[-2]) < tol:
                out.converged = done[row] = True
            if done[row]:
                out.iterations = iteration
                out.pi, out.coef, out.omega = update.pi[row], update.coef[row], update.omega[row]
                out.tau = tau[row]
        keep = ok & ~done
        if not keep.all():
            tau, rows = tau[keep], rows[keep]
            if rows.size == 0:
                break
    return outcomes


def em_fit(
    series: SeriesMatrix,
    spec: ModelSpec,
    init: InitStrategy | None = None,
    max_iter: int = 500,
    tol: float = 1e-8,
) -> FitReport:
    """Fit by EM with random multi-start, keeping the best final log-likelihood.

    All starts run in lockstep through one batched EM loop (see
    ``_lockstep_em``). Each start draws its initial responsibilities from its
    own ``SeedSequence(seed).spawn(n_starts)`` stream, and its result does not
    depend on the other starts; there is no acceleration or warm start. The
    trace is non-decreasing (EM ascent); convergence means the absolute
    log-likelihood change fell below ``tol``. Non-convergence is reported via
    ``converged=False``, not an error. Starts that fail (a singular or
    collapsed component, a covariance without a Cholesky factor, density
    underflow) leave the batch while the others continue; if every start
    fails, the error of the last start is raised. Parameters and
    responsibilities are validated once, for the winning start. Components of
    the returned fit are ordered by descending mixing weight (ties broken
    lexicographically on the intercepts) to fix label switching.
    """
    if init is None:
        init = InitStrategy()
    design = _Design(series, spec)
    n_starts = 1 if spec.g == 1 else init.n_starts
    n_scored = series.n - spec.p
    streams = np.random.SeedSequence(init.seed).spawn(n_starts)
    tau0 = np.stack([np.random.default_rng(ss).dirichlet(np.ones(spec.g), size=n_scored).T
                     for ss in streams])
    outcomes = _lockstep_em(design, tau0, max_iter, tol)
    best = None
    for out in outcomes:
        if out.error is None and (best is None or out.trace[-1] > best.trace[-1]):
            best = out
    if best is None:
        raise outcomes[-1].error
    params = _freeze(spec, best.pi, best.coef, best.omega)
    params, tau = _canonicalize(params, best.tau.T)
    loglik = best.trace[-1]
    d = spec.n_free_parameters
    return FitReport(
        params=params,
        loglik_trace=np.asarray(best.trace),
        iterations=best.iterations,
        converged=best.converged,
        responsibilities=Responsibilities(tau),
        aic=-2.0 * loglik + 2.0 * d,
        bic=-2.0 * loglik + d * math.log(n_scored),
    )


@dataclass
class CandidateResult:
    """One order-selection candidate: its spec, fit (if any), score, and failure note."""

    spec: ModelSpec
    report: FitReport | None
    score: float
    error: str | None = None


def select_order(
    series: SeriesMatrix,
    g_values,
    p_values,
    criterion: str = "bic",
    n_starts: int = 10,
    seed: int = 0,
    max_iter: int = 500,
    tol: float = 1e-8,
) -> list[CandidateResult]:
    """Fit every (g, p) candidate and rank ascending by AIC or BIC.

    Per-candidate failures are annotated (score = +inf), never abort the sweep.
    The per-candidate seed is derived from (seed, g, p), so listing the same
    candidate twice yields identical scores.
    """
    if criterion not in ("aic", "bic"):
        raise ValueError(f"criterion must be 'aic' or 'bic', got {criterion!r}")
    g_values = list(g_values)
    p_values = list(p_values)
    if not g_values or not p_values:
        raise ValueError("g_values and p_values must be nonempty")
    results: list[CandidateResult] = []
    for g in g_values:
        for p in p_values:
            spec = ModelSpec(g=g, m=series.m, orders=(p,) * g)
            cand_seed = int(np.random.SeedSequence([seed, g, p]).generate_state(1)[0])
            try:
                report = em_fit(
                    series, spec,
                    init=InitStrategy(n_starts=n_starts, seed=cand_seed),
                    max_iter=max_iter, tol=tol,
                )
                score = report.bic if criterion == "bic" else report.aic
                results.append(CandidateResult(spec=spec, report=report, score=score))
            except (MvarError, ValueError) as exc:
                results.append(CandidateResult(spec=spec, report=None,
                                               score=float("inf"), error=str(exc)))
    results.sort(key=lambda r: r.score)
    return results
