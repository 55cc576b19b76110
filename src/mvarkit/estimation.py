"""EM estimation: responsibilities, weighted least squares updates, multi-start fitting.

The E-step computes posterior component probabilities in log space; the
M-step solves one weighted least-squares problem per component and re-weights
the innovation covariances. Starts are initialized by drawing responsibility
rows from a symmetric Dirichlet(1) and running one M-step.

The M-step takes its weighted sums from a moment matrix built once per fit:
row t holds ``x_t (x) (x_t, y_t)``, so one product of the responsibilities with
it gives every component's weighted Gram matrix ``X'WX``, right-hand side
``X'WY`` and weight sum (``x_t[0] = 1``). The covariances are not taken from
these raw moments, which cancel catastrophically for data far from zero; they
come from the residuals under the updated coefficients.

Both steps are written for a batch of starts: every array carries a leading
start axis and a component axis, and the work is done by stacked ``matmul``
and LAPACK calls (the normal equations of components of one AR order are
solved together). ``em_fit`` advances all of its starts through one loop
in lockstep; the public ``e_step`` and ``m_step`` are the one-start case of
the same kernels. The design (``_Design``) and the E-kernel (``_e_kernel``)
live in :mod:`mvarkit.model`, where ``log_likelihood`` runs them too.

Starts that have joined an earlier start's basin leave the batch early. At
iterations 2, 4, 8, 16, ... a running start is retired when a lower-index
start has a log-likelihood at least its own and, both in descending-``pi``
label order, parameters within ``RETIRE_REL`` (1e-2) in scale-free units
(``_basin_features``). ``em_fit`` picks its winner among the starts that were
not retired; its docstring states the rule and the two cases in which the
fit differs from the one every start run to its end would give.

Failures are read from values and classified only when a start fails. The
stacked solve, eigenvalue, Cholesky and inverse calls go straight to numpy's
LAPACK gufuncs (``model._lapack``), under one ``model._nan_errstate`` per
lockstep run and one per call of the one-start entry points: a slice that
fails comes back NaN without raising, and its batch mates are untouched. An
M-step in which every start passes costs the arithmetic plus a scalar test
each of the coefficients, the smallest eigenvalues and the Cholesky factors;
an E-step costs a scalar test of the log-likelihoods. Only when a test fails
are the starts classified one by one, from the same NaNs, with the same error
classes, component indices and messages as a start run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .exceptions import (
    ComponentCollapseError,
    MvarError,
    NotPositiveDefiniteError,
    SingularComponentError,
)
from .model import (
    ModelSpec,
    MvarParameters,
    SeriesMatrix,
    _Design,
    _e_kernel,
    _frozen,
    _lapack,
    _nan_errstate,
    _posterior,
    _require_finite,
    _require_shape,
    gaussian_log_densities,
    stacked_residuals,
)

ROW_SUM_TOL = 1e-10
COLLAPSE_EIGENVALUE = 1e-12
RETIRE_REL = 1e-2


def __getattr__(name):
    # EM does not use scipy's logsumexp; the name resolves, on request only, for
    # bench/tracing.py, which wraps it. ROADMAP item 4 deletes this shim.
    if name == "logsumexp":
        from scipy.special import logsumexp
        return logsumexp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Responsibilities:
    """Posterior component probabilities tau[t-p, k] for the scored times t=p..n-1."""

    tau: np.ndarray   # (n-p, g)

    def __post_init__(self):
        tau = _frozen(self.tau)
        _require_shape(tau, ("n", "g"), "tau")
        _require_finite(tau, "tau")
        if np.any(tau < 0.0):
            raise ValueError("responsibilities must be nonnegative")
        if np.max(np.abs(tau.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            raise ValueError(f"responsibility rows must sum to 1 within {ROW_SUM_TOL}")
        object.__setattr__(self, "tau", tau)


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


def _m_kernel(design: _Design, tau: np.ndarray, scratch: np.ndarray | None = None) -> _Update:
    """Weighted least-squares update of S starts at once from responsibilities (S, g, N).

    ``scratch``, if given, is an (S, g, m, N) array the kernel may overwrite; a
    fit passes the same one every iteration instead of allocating it anew.

    A start fails at its first component (in index order) whose weighted
    normal equations are singular (:class:`SingularComponentError`) or whose
    updated covariance has an eigenvalue below ``COLLAPSE_EIGENVALUE``
    (:class:`ComponentCollapseError`); non-finite coefficients count as
    singular, non-finite covariances as collapsed. A covariance that passes the
    eigenvalue test but has no Cholesky factor raises
    :class:`NotPositiveDefiniteError`.

    The solve, eigenvalue and Cholesky calls are numpy's stacked LAPACK
    gufuncs (``model._lapack``), run under the caller's ``_nan_errstate``: a
    failing slice comes back NaN and its batch mates are untouched. The normal
    equations of each group of components of one order are solved together;
    with one order, the whole Gram stack is solved as it is. When every start
    passes, one scalar test of the three results is the whole check; the
    per-start classification runs only when some start fails.
    """
    n_starts, g, n_obs = tau.shape
    d, m = design.xt.shape[0], design.spec.m
    # Keep the start axis: the stacked product runs one GEMM per start, so a
    # start's sums do not depend on its batch mates, as one (S*g, N) GEMM would.
    sums = (tau @ design.moments).reshape(n_starts, g, d, d + m)
    gram, rhs = sums[..., :d], sums[..., d:]
    weight = sums[:, :, 0, 0]                                 # x_t[0] = 1
    pi = weight / n_obs
    # Re-normalize against accumulated rounding so the invariant checks pass.
    pi /= pi.sum(axis=-1, keepdims=True)
    if len(design.groups) == 1:                   # one order: every component is full width
        coef = _lapack.solve(gram, rhs)
    else:
        coef = np.zeros(rhs.shape)
        for components, width in design.groups:
            coef[:, components, :width] = _lapack.solve(gram[:, components, :width, :width],
                                                        rhs[:, components, :width])
    resid = stacked_residuals(coef, design.xt, design.yt)
    omega = np.multiply(resid, tau[:, :, None, :], out=scratch) @ resid.swapaxes(-1, -2)
    omega /= weight[..., None, None]
    omega += omega.swapaxes(-1, -2)
    omega *= 0.5
    min_eig = _lapack.eigvalsh_lo(omega)[..., 0]
    chol = _lapack.cholesky_lo(omega)
    # a NaN minimum fails the >= test; a failed factorisation is all NaN
    if (np.isfinite(coef).all() and min_eig.min() >= COLLAPSE_EIGENVALUE
            and not np.isnan(chol.min())):
        return _Update(pi, coef, resid, omega, chol, [None] * n_starts)
    return _Update(pi, coef, resid, omega, chol, _classify_failures(coef, omega, min_eig, chol))


def _classify_failures(coef: np.ndarray, omega: np.ndarray, min_eig: np.ndarray,
                       chol: np.ndarray) -> list:
    """Per-start errors of an M-step in which some start failed.

    ``min_eig`` (S, g) and ``chol`` (S, g, m, m) are the stacked smallest
    eigenvalues and Cholesky factors of ``omega``, NaN where a slice failed.
    A non-finite covariance counts as collapsed with eigenvalue NaN, whatever
    the eigenvalue solver made of it.
    """
    singular = ~np.isfinite(coef).all(axis=(-2, -1))
    min_eig[~np.isfinite(omega).all(axis=(-2, -1))] = np.nan
    collapsed = ~(min_eig >= COLLAPSE_EIGENVALUE)
    not_pd = ~np.isfinite(chol).all(axis=(-2, -1))
    errors = [None] * omega.shape[0]
    failed = singular | collapsed
    for s in np.flatnonzero(failed.any(axis=1) | not_pd.any(axis=1)):
        if failed[s].any():
            k = int(np.argmax(failed[s]))
            errors[s] = (SingularComponentError(k, "weighted normal equations are singular")
                         if singular[s, k] else ComponentCollapseError(k, float(min_eig[s, k])))
        else:
            k = int(np.argmax(not_pd[s]))
            errors[s] = NotPositiveDefiniteError(f"omega[{k}] is not positive definite")
    return errors


def _freeze(spec: ModelSpec, pi, coef, omega) -> MvarParameters:
    """Validated parameters of one start from its raw M-step arrays."""
    g, m, p = spec.g, spec.m, spec.p
    theta = coef[:, 1:].reshape(g, p, m, m).transpose(0, 1, 3, 2)
    return MvarParameters(spec=spec, pi=pi, theta0=coef[:, 0], theta=theta, omega=omega)


def e_step(params: MvarParameters, series: SeriesMatrix) -> Responsibilities:
    """Posterior component probabilities, computed with log-sum-exp for underflow safety."""
    return Responsibilities(tau=_posterior(params, series)[1].T)


def m_step(series: SeriesMatrix, tau: Responsibilities, spec: ModelSpec) -> MvarParameters:
    """Weighted-least-squares parameter update given responsibilities.

    Raises :class:`SingularComponentError` when a component's weighted normal
    equations are singular, :class:`ComponentCollapseError` when an updated
    covariance has an eigenvalue below 1e-12 (degenerate component), and
    :class:`NotPositiveDefiniteError` when a covariance passes that test but
    has no Cholesky factor.
    """
    design = _Design(series, spec)
    _require_shape(tau.tau, (design.yt.shape[1], spec.g), "tau")
    with _nan_errstate():
        update = _m_kernel(design, np.ascontiguousarray(tau.tau.T)[None])
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


def _canonicalize(spec: ModelSpec, pi, coef, omega, tau) -> tuple[MvarParameters, np.ndarray]:
    """Parameters and (N, g) responsibilities of one start in canonical label order, validated once."""
    order = _canonical_permutation(pi, coef[:, 0])
    spec = ModelSpec(spec.g, spec.m, tuple(spec.orders[k] for k in order))
    return _freeze(spec, pi[order], coef[order], omega[order]), tau[:, order]


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
    duplicate_of: int | None = None   # retired at ``iterations`` as trailing this start


def _basin_features(update: _Update) -> np.ndarray:
    """Each start's parameters as one row of scale-free numbers, components by descending ``pi``.

    Per component: the weight over the largest weight; the mean residual, the
    AR blocks (``theta[r, c] * sd_c / sd_r``) and the covariance as
    correlations, all in units of the innovation sds ``sqrt(diag omega_k)``;
    and the log variances ``log diag omega_k``, whose differences compare the
    variances relative to each other. Differences between rows are unchanged
    by a map ``Y -> aY + b`` of the columns (up to one sign per entry) and by
    relabelling.
    """
    n_starts, g, _, m = update.coef.shape
    var = np.diagonal(update.omega, axis1=-2, axis2=-1)             # (S, g, m)
    sd = np.sqrt(var)
    outer = sd[..., :, None] * sd[..., None, :]
    lags = update.coef[:, :, 1:].reshape(n_starts, g, -1, m, m)     # [..., i, c, r] = theta_i[r, c]
    lags = lags * (sd[..., :, None] / sd[..., None, :])[:, :, None]
    features = np.concatenate([(update.pi / update.pi.max(axis=1, keepdims=True))[..., None],
                               update.resid.mean(axis=-1) / sd, lags.reshape(n_starts, g, -1),
                               np.log(var), (update.omega / outer).reshape(n_starts, g, -1)], axis=-1)
    order = np.argsort(-update.pi, axis=1, kind="stable")
    return features[np.arange(n_starts)[:, None], order].reshape(n_starts, -1)


def _retirements(update: _Update, loglik: np.ndarray, live: list[int]) -> dict[int, int]:
    """Rows of ``live`` that trail an earlier row in its basin, each mapped to that row.

    Row j trails row q < j when q's log-likelihood is at least j's and every
    entry of ``_basin_features`` differs by at most ``RETIRE_REL``. Rows are
    taken in order and q must not itself be retired here, so every retired
    row names a row that goes on. A row whose log-likelihood is NaN (a failed
    E-step) matches nothing.
    """
    features = _basin_features(update)
    gap = np.abs(features[:, None] - features[None]).max(axis=-1)
    trails = ((gap <= RETIRE_REL) & (loglik[:, None] >= loglik[None])).tolist()   # [q][j]
    retired: dict[int, int] = {}
    for j in live:
        q = next((q for q in range(j) if trails[q][j] and q not in retired), None)
        if q is not None:
            retired[j] = q
    return retired


def _lockstep_em(design: _Design, tau0: np.ndarray, max_iter: int, tol: float) -> list[_StartOutcome]:
    """Run EM from the initial responsibilities (S, g, N) of S starts, all in one loop.

    Each iteration is one M-step and one E-step for every start still running.
    A start leaves the batch when its log-likelihood changes by less than
    ``tol``, after ``max_iter`` iterations, when it fails, or when it is
    retired. At the checkpoint iterations 2, 4, 8, 16, ... a running start
    is retired, with ``duplicate_of`` set, when it trails a lower-index start
    of the same iteration in the same basin (``_retirements``); its outcome
    holds its state at that iteration. No start's arithmetic depends on the
    others in the batch: a start that is not retired ends as it would alone,
    and a retired one's trace is a prefix of its solo run. A batch of one
    start never retires.
    """
    p = design.spec.p
    outcomes = [_StartOutcome(trace=[]) for _ in range(tau0.shape[0])]
    rows = np.arange(tau0.shape[0])        # outcome index of each batch row
    tau = tau0
    scratch = np.empty((*tau0.shape[:2], design.spec.m, tau0.shape[2]))

    def settle(out, row):
        """Record the state of ``row`` at this iteration as the end of ``out``."""
        out.iterations = iteration
        out.pi, out.coef, out.omega = update.pi[row], update.coef[row], update.omega[row]
        out.tau = tau[row]

    def drop_failed(errors):
        """Record the errors of failed rows; the surviving rows, or None if none failed."""
        if all(e is None for e in errors):
            return None
        for row, error in enumerate(errors):
            if error is not None:
                outcomes[rows[row]].error = error
        return [row for row, error in enumerate(errors) if error is None]

    with _nan_errstate():      # failing slices and starts are read from NaNs
        for iteration in range(max_iter + 1):
            update = _m_kernel(design, tau, scratch[:rows.size])
            ok = drop_failed(update.errors)
            if ok is not None:
                update, rows = update.select(ok), rows[ok]
                if rows.size == 0:
                    break
            loglik, tau, errors = _e_kernel(gaussian_log_densities(update.resid, update.chol),
                                            np.log(update.pi), p)
            ok = drop_failed(errors)
            keep = []
            for row in (range(rows.size) if ok is None else ok):
                out = outcomes[rows[row]]
                out.trace.append(float(loglik[row]))
                out.converged = iteration > 0 and abs(out.trace[-1] - out.trace[-2]) < tol
                if out.converged or iteration == max_iter:
                    settle(out, row)
                else:
                    keep.append(row)
            if keep and keep[-1] > 0 and iteration >= 2 and not iteration & (iteration - 1):
                retired = _retirements(update, loglik, keep)
                for row, q in retired.items():
                    out = outcomes[rows[row]]
                    out.duplicate_of = int(rows[q])
                    settle(out, row)
                keep = [row for row in keep if row not in retired]
            if len(keep) < rows.size:
                tau, rows = tau[keep], rows[keep]
                if rows.size == 0:
                    break
    return outcomes


def _check_em_limits(max_iter: int, tol: float) -> None:
    """Reject EM limits under which no start could run or be chosen."""
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and >= 0")


def em_fit(
    series: SeriesMatrix,
    spec: ModelSpec,
    init: InitStrategy | None = None,
    max_iter: int = 500,
    tol: float = 1e-8,
) -> FitReport:
    """Fit by EM with random multi-start, keeping a start at the best final log-likelihood.

    All starts run in lockstep through one batched EM loop (see
    ``_lockstep_em``). Each start draws its initial responsibilities from its
    own ``SeedSequence(seed).spawn(n_starts)`` stream, and its arithmetic does
    not depend on the other starts; there is no acceleration or warm start.
    The trace is non-decreasing (EM ascent); convergence means the absolute
    log-likelihood change fell below ``tol``. Non-convergence is reported via
    ``converged=False``, not an error. Starts that fail (a singular or
    collapsed component, a covariance without a Cholesky factor, density
    underflow) leave the batch while the others continue.

    Starts that have joined an earlier start's basin are retired, the
    pruning of multi-start EM in Biernacki, Celeux & Govaert (2003, CSDA
    41(3-4)) and O'Hagan, Murphy & Gormley (2012, CSDA 56(12)). At
    iterations 2, 4, 8, 16, ... a running start j stops when a lower-index
    start q has a log-likelihood at least j's and, with both in
    descending-``pi`` label order, parameters within ``RETIRE_REL`` of j's:
    weights relative to the largest weight; mean residuals, AR blocks and
    covariances in units of the innovation sds; variances relative to each
    other. The test does not depend on the data's scale, location or column
    order, nor on the labels.

    The winner is the start of lowest index, among the starts not retired,
    whose final log-likelihood lies within ``tol`` of the best of them. If
    every such start fails, the error of the last failed start is raised.
    Starts that reach one mode stop apart by rounding and by where the
    ``tol`` test caught them; a strict maximum would let summation order
    pick the reported fit, and the tie window makes such swaps rare (a start
    at the window's edge can still flip). Retirement keeps the lowest index
    of each basin, so the fit is the one this rule picks from every start run
    to its end, with two exceptions:

    - no start converges within ``max_iter``, and a retired start would
      have ended above the start q it trailed;
    - a retired start would later have overtaken q, which among starts
      that converge takes a gap of about ``tol`` at the end, since starts of
      one basin stop apart by where the ``tol`` test caught them; or q fails
      later on.

    Parameters and responsibilities are validated once, for the winning
    start. Components of the returned fit are ordered by descending mixing
    weight (ties broken lexicographically on the intercepts) to fix label
    switching.
    """
    _check_em_limits(max_iter, tol)
    if init is None:
        init = InitStrategy()
    design = _Design(series, spec)
    n_starts = 1 if spec.g == 1 else init.n_starts
    n_scored = series.n - spec.p
    streams = np.random.SeedSequence(init.seed).spawn(n_starts)
    tau0 = np.stack([np.random.default_rng(ss).dirichlet(np.ones(spec.g), size=n_scored).T
                     for ss in streams])
    outcomes = _lockstep_em(design, tau0, max_iter, tol)
    finished = [out for out in outcomes if out.error is None and out.duplicate_of is None]
    if not finished:
        raise next(out.error for out in reversed(outcomes) if out.error is not None)
    top = max(out.trace[-1] for out in finished)
    best = next(out for out in finished if top - out.trace[-1] <= tol)
    params, tau = _canonicalize(spec, best.pi, best.coef, best.omega, best.tau.T)
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

    Per-candidate failures are annotated (score = +inf), never abort the sweep;
    a bad argument (``n_starts``, ``max_iter``, ``tol``, ``criterion``, empty
    candidate lists) raises one ``ValueError`` before any fit. The per-candidate
    seed is derived from (seed, g, p), so listing the same candidate twice
    yields identical scores.
    """
    _check_em_limits(max_iter, tol)
    init = InitStrategy(n_starts=n_starts, seed=seed)
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
                report = em_fit(series, spec, init=replace(init, seed=cand_seed),
                                max_iter=max_iter, tol=tol)
                score = report.bic if criterion == "bic" else report.aic
                results.append(CandidateResult(spec=spec, report=report, score=score))
            except (MvarError, ValueError) as exc:
                results.append(CandidateResult(spec=spec, report=None,
                                               score=float("inf"), error=str(exc)))
    results.sort(key=lambda r: r.score)
    return results
