"""Risk measures and forecast scoring for univariate Gaussian mixtures.

Convention: "VaR at level alpha" is the (1-alpha) quantile of the return
distribution reported as a signed return, so a 95% VaR of -2.2 means a loss
worse than 2.2 occurs with probability 5%. Expected shortfall is the exact
conditional mean below that threshold (closed-form Gaussian partial
expectations, no simulation). The standard normal CDF is scipy's erf-based
``ndtr`` (relative error below 1e-15), shared by every routine here.

Quantiles come from a bracket and a safeguarded Newton iteration. The bracket
spans every component's mean +/- 10 sd and is widened by doubling steps until
the CDF straddles q. Newton steps on the CDF and density, both evaluated from
the raw weights, means and sds, start from the quantile of the normal with the
mixture's mean and variance. A step that leaves the bracket, meets a zero
density or is not below half the step before last is replaced by bisection.
The loop stops once a step is below ``1e-13 + 8.9e-16 |x|`` and gives up with
:class:`BracketError` after 200 evaluations. A root whose CDF residual exceeds
``QUANTILE_CDF_TOL`` is polished by bisection.

Quantiles are left-continuous at the contract's resolution: where the mixture
CDF stays within ``QUANTILE_CDF_TOL`` of the level q over a stretch at least as
long as the widest component's sd, :func:`mixture_quantile` returns the
stretch's left end, the smallest x whose CDF is within the tolerance of q.
Between well separated components the computed CDF is flat, and any point of
the gap would meet the tolerance; the left end is the lowest of them, the
usual ``inf {x : F(x) >= q}`` up to that tolerance. For q at or below the
tolerance the stretch has no left end and the root is returned as found.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .exceptions import BracketError
from .portfolio import MixtureNormal1D, scalar_mixture_moments

QUANTILE_CDF_TOL = 1e-10
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _require_alpha(alpha: float) -> None:
    """Raise ``ValueError`` unless the confidence level ``alpha`` lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")


def _phi(z: np.ndarray) -> np.ndarray:
    """Standard normal density of an array."""
    return np.exp(-0.5 * z * z) / _SQRT_2PI


@dataclass(frozen=True)
class RiskReport:
    """Value-at-risk and expected shortfall at one confidence level."""

    alpha: float
    var: float
    es: float

    def __post_init__(self):
        _require_alpha(self.alpha)
        if not (math.isfinite(self.var) and math.isfinite(self.es)):
            raise ValueError("VaR and ES must be finite")
        if self.es > self.var + 1e-12:
            raise ValueError(f"expected shortfall {self.es} exceeds VaR {self.var}")

    @property
    def loss_var(self) -> float:
        """VaR as a positive loss magnitude."""
        return -self.var

    @property
    def loss_es(self) -> float:
        """ES as a positive loss magnitude."""
        return -self.es


def _cdf(weights, means, sds, x):
    """Mixture CDF with ``x`` broadcast against the trailing component axis."""
    return ndtr((x - means) / sds) @ weights


def mixture_cdf(mix: MixtureNormal1D, x):
    """CDF of the mixture at ``x`` (scalar or array): sum_j w_j Phi((x - mu_j)/sd_j)."""
    x = np.asarray(x, dtype=float)
    out = _cdf(mix.weights, mix.means, mix.sds, x[..., None])
    return out if out.ndim else float(out)


def mixture_pdf(mix: MixtureNormal1D, x):
    """Density of the mixture at ``x`` (scalar or array)."""
    x = np.asarray(x, dtype=float)
    z = (x[..., None] - mix.means) / mix.sds
    out = (np.exp(-0.5 * z * z) / (_SQRT_2PI * mix.sds)) @ mix.weights
    return out if out.ndim else float(out)


def _step_until(accept, x: float, step: float, what: str) -> float:
    """Move ``x`` by ``step``, doubling the step each time, until ``accept(x)``.

    Gives up after 80 moves (a step of 2**80 times the first) with
    :class:`BracketError`, which also covers steps too small to change ``x``.
    """
    for _ in range(80):
        if accept(x):
            return x
        x += step
        step *= 2.0
    raise BracketError(what)


def _bisect(below, a: float, b: float) -> tuple[float, float]:
    """Halve ``[a, b]`` 200 times, keeping ``below(a)`` true and ``below(b)`` false."""
    for _ in range(200):
        mid = 0.5 * (a + b)
        if below(mid):
            a = mid
        else:
            b = mid
    return a, b


def _newton(weights, means, sds, q: float, a: float, b: float, x: float) -> float:
    """Root of ``F(x) = q`` inside ``[a, b]``, where ``F(a) < q < F(b)``.

    Newton steps from ``x`` on the CDF and density, both from one
    standardisation. A step that leaves the bracket, a zero density or a step
    not below half the step before last falls back to bisection, and the
    bracket shrinks at every evaluation. Stops once a step is below
    ``1e-13 + 8.9e-16 |x|``; :class:`BracketError` after 200 evaluations.
    """
    dens_weights = weights / (_SQRT_2PI * sds)
    step = prev = b - a   # the last step and the one before it
    for _ in range(200):
        z = (x - means) / sds
        fx = float(ndtr(z) @ weights)
        if fx < q:
            a = x
        elif fx > q:
            b = x
        else:
            return x
        dens = float(np.exp(-0.5 * z * z) @ dens_weights)
        new = x - (fx - q) / dens if dens > 0.0 else math.nan
        if not (a <= new <= b and abs(x - new) <= 0.5 * abs(prev)):
            new = 0.5 * (a + b)
        prev, step, x = step, x - new, new
        if abs(step) < 1e-13 + 8.9e-16 * abs(x):
            return x
    raise BracketError(f"quantile iteration did not converge at q={q}")


def mixture_quantile(mix: MixtureNormal1D, q: float) -> float:
    """Inverse CDF by safeguarded Newton iteration; |cdf(x) - q| <= 1e-10 at the result.

    The initial bracket spans every component's mean +/- 10 sd and is widened
    adaptively; :class:`BracketError` is raised if widening fails. Newton
    starts from the quantile of the normal with the mixture's mean and
    variance, clipped into the bracket. On a flat stretch of the CDF the
    stretch's left end is returned (module docstring).
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0,1), got {q}")
    weights, means, sds = mix.weights, mix.means, mix.sds
    cdf = functools.partial(_cdf, weights, means, sds)
    lo = float((means - 10.0 * sds).min())
    hi = float((means + 10.0 * sds).max())
    cdf_lo, cdf_hi = cdf(np.array([[lo], [hi]]))
    if not cdf_lo < q:
        lo = _step_until(lambda v: cdf(v) < q, lo, -(hi - lo),
                         f"could not bracket quantile {q} from below")
    if not cdf_hi > q:
        hi = _step_until(lambda v: cdf(v) > q, hi, hi - lo,
                         f"could not bracket quantile {q} from above")
    mean, var = scalar_mixture_moments(mix)
    start = mean + math.sqrt(var) * float(ndtri(q))
    start = min(max(start, lo), hi) if math.isfinite(start) else 0.5 * (lo + hi)
    x = _newton(weights, means, sds, q, lo, hi, start)
    # Newton terminates on x-tolerance; polish by bisection if the CDF residual
    # is still above the contract (possible only for nearly flat regions).
    # One evaluation serves the residual check and the flat-stretch probe.
    probe = x - float(sds.max())
    cdf_x, cdf_probe = cdf(np.array([[x], [probe]]))
    if abs(cdf_x - q) > QUANTILE_CDF_TOL:
        a = _step_until(lambda v: cdf(v) <= q, x - 1e-6, -1e-6,
                        f"quantile refinement could not step below q={q}")
        b = _step_until(lambda v: cdf(v) >= q, x + 1e-6, 1e-6,
                        f"quantile refinement could not step above q={q}")
        a, b = _bisect(lambda v: cdf(v) < q, a, b)
        x = 0.5 * (a + b)
        if abs(cdf(x) - q) > QUANTILE_CDF_TOL:
            raise BracketError(f"quantile refinement failed at q={q}")
        probe = x - float(sds.max())
        cdf_probe = cdf(probe)

    def left_of_band(v):
        return q - cdf(v) > QUANTILE_CDF_TOL

    if q > QUANTILE_CDF_TOL and q - cdf_probe <= QUANTILE_CDF_TOL:
        lo = _step_until(left_of_band, lo, -(hi - lo),
                         f"could not bracket the flat stretch at q={q} from below")
        _, x = _bisect(left_of_band, lo, probe)
    return x


def var_es(mix: MixtureNormal1D, alpha: float = 0.95) -> RiskReport:
    """Value-at-risk (the (1-alpha) quantile) and closed-form expected shortfall.

    ES uses the Gaussian lower-tail partial expectation per component:
    E[X 1{X<=v}] = mu Phi(z) - sd phi(z) with z = (v - mu)/sd.
    """
    _require_alpha(alpha)
    weights, means, sds = mix.weights, mix.means, mix.sds
    var = mixture_quantile(mix, 1.0 - alpha)
    z = (var - means) / sds
    partial = weights @ (means * ndtr(z) - sds * _phi(z))
    es = float(partial / (1.0 - alpha))
    return RiskReport(alpha=alpha, var=var, es=es)


def _crps_kernel(diff, scale):
    """E|A - B| for A - B ~ N(diff, scale^2): diff (2 Phi(diff/scale) - 1) + 2 scale phi(diff/scale)."""
    z = diff / scale
    return diff * (2.0 * ndtr(z) - 1.0) + 2.0 * scale * _phi(z)


def crps_mixture(mix: MixtureNormal1D, x):
    """Continuous ranked probability score of the mixture forecast at observation ``x``.

    Closed form for Gaussian mixtures:
        sum_j w_j K(x - mu_j, sd_j) - 1/2 sum_{j,l} w_j w_l K(mu_j - mu_l, sqrt(sd_j^2 + sd_l^2))
    with K(d, s) = d (2 Phi(d/s) - 1) + 2 s phi(d/s). Vectorized over ``x``;
    always nonnegative.
    """
    x = np.asarray(x, dtype=float)
    term1 = _crps_kernel(x[..., None] - mix.means, mix.sds) @ mix.weights
    pair_scale = np.sqrt(mix.sds[:, None] ** 2 + mix.sds[None, :] ** 2)
    pair_diff = mix.means[:, None] - mix.means[None, :]
    term2 = 0.5 * float(mix.weights @ _crps_kernel(pair_diff, pair_scale) @ mix.weights)
    out = term1 - term2
    return out if out.ndim else float(out)
