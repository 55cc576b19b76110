"""Risk measures and forecast scoring for univariate Gaussian mixtures.

Convention: "VaR at level alpha" is the (1-alpha) quantile of the return
distribution reported as a signed return, so a 95% VaR of -2.2 means a loss
worse than 2.2 occurs with probability 5%. Expected shortfall is the exact
conditional mean below that threshold (closed-form Gaussian partial
expectations, no simulation). The standard normal CDF is scipy's erf-based
``ndtr`` (relative error below 1e-15), shared by every routine here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize
from scipy.special import ndtr

from .exceptions import BracketError
from .portfolio import MixtureNormal1D

QUANTILE_CDF_TOL = 1e-10
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_cdf(x):
    """Standard normal CDF (erf-based)."""
    return ndtr(x)


def norm_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RiskReport:
    """Value-at-risk and expected shortfall at one confidence level."""

    alpha: float
    var: float
    es: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if not (np.isfinite(self.var) and np.isfinite(self.es)):
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


def mixture_cdf(mix: MixtureNormal1D, x):
    """CDF of the mixture at ``x`` (scalar or array): sum_j w_j Phi((x - mu_j)/sd_j)."""
    x = np.asarray(x, dtype=float)
    z = (x[..., None] - mix.means) / mix.sds
    out = ndtr(z) @ mix.weights
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


def mixture_quantile(mix: MixtureNormal1D, q: float) -> float:
    """Inverse CDF by bracketed root finding; |cdf(x) - q| < 1e-10 at the result.

    The initial bracket spans every component's mean +/- 10 sd and is widened
    adaptively; :class:`BracketError` is raised if widening fails.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0,1), got {q}")
    lo = float(np.min(mix.means - 10.0 * mix.sds))
    hi = float(np.max(mix.means + 10.0 * mix.sds))
    lo = _step_until(lambda v: mixture_cdf(mix, v) < q, lo, -(hi - lo),
                     f"could not bracket quantile {q} from below")
    hi = _step_until(lambda v: mixture_cdf(mix, v) > q, hi, hi - lo,
                     f"could not bracket quantile {q} from above")
    x = float(scipy.optimize.brentq(lambda v: mixture_cdf(mix, v) - q, lo, hi,
                                    xtol=1e-13, rtol=8.9e-16, maxiter=200))
    # brentq terminates on x-tolerance; polish by bisection if the CDF residual
    # is still above the contract (possible only for nearly flat regions).
    if abs(mixture_cdf(mix, x) - q) > QUANTILE_CDF_TOL:
        a = _step_until(lambda v: mixture_cdf(mix, v) <= q, x - 1e-6, -1e-6,
                        f"quantile refinement could not step below q={q}")
        b = _step_until(lambda v: mixture_cdf(mix, v) >= q, x + 1e-6, 1e-6,
                        f"quantile refinement could not step above q={q}")
        for _ in range(200):
            mid = 0.5 * (a + b)
            if mixture_cdf(mix, mid) < q:
                a = mid
            else:
                b = mid
        x = 0.5 * (a + b)
        if abs(mixture_cdf(mix, x) - q) > QUANTILE_CDF_TOL:
            raise BracketError(f"quantile refinement failed at q={q}")
    return x


def var_es(mix: MixtureNormal1D, alpha: float = 0.95) -> RiskReport:
    """Value-at-risk (the (1-alpha) quantile) and closed-form expected shortfall.

    ES uses the Gaussian lower-tail partial expectation per component:
    E[X 1{X<=v}] = mu Phi(z) - sd phi(z) with z = (v - mu)/sd.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    var = mixture_quantile(mix, 1.0 - alpha)
    z = (var - mix.means) / mix.sds
    partial = mix.weights @ (mix.means * ndtr(z) - mix.sds * norm_pdf(z))
    es = float(partial / (1.0 - alpha))
    return RiskReport(alpha=alpha, var=var, es=es)


def _crps_kernel(diff, scale):
    """E|A - B| for A - B ~ N(diff, scale^2): diff (2 Phi(diff/scale) - 1) + 2 scale phi(diff/scale)."""
    z = diff / scale
    return diff * (2.0 * ndtr(z) - 1.0) + 2.0 * scale * norm_pdf(z)


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
