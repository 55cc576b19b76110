"""Model-comparison harness: holdout evaluation and rolling-origin CRPS.

Each candidate model is fit on the training span, builds its own minimum
variance portfolio from its conditional moments, and is scored on the return
that portfolio actually realized. Plain vector autoregressions enter the
comparison as single-component specs, so one code path covers both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import FitReport, InitStrategy, _check_em_limits, em_fit
from .exceptions import MvarError
from .model import ForecastOrigin, ModelSpec, SeriesMatrix
from .portfolio import horizon_portfolio, scalar_mixture_moments
from .risk import _require_alpha, crps_mixture, var_es


@dataclass
class ComparisonRow:
    """One model at one horizon: predictive summary, risk, and realized score."""

    model_id: str
    horizon: int
    mean: float
    sd: float
    var: float
    es: float
    crps: float
    realized: float
    error: str | None = None


@dataclass
class ComparisonReport:
    rows: list[ComparisonRow]
    origin_time: int       # 0-based index of the last training observation
    alpha: float


def _nan_row(model_id: str, horizon: int, message: str) -> ComparisonRow:
    nan = float("nan")
    return ComparisonRow(model_id=model_id, horizon=horizon, mean=nan, sd=nan,
                         var=nan, es=nan, crps=nan, realized=nan, error=message)


def _score_row(model_id, horizon, return_mix, realized, alpha) -> ComparisonRow:
    mean, variance = scalar_mixture_moments(return_mix)
    report = var_es(return_mix, alpha)
    return ComparisonRow(
        model_id=model_id,
        horizon=horizon,
        mean=mean,
        sd=math.sqrt(variance),
        var=report.var,
        es=report.es,
        crps=float(crps_mixture(return_mix, realized)),
        realized=float(realized),
    )


def mvp_forecast_mixtures(params, origin: ForecastOrigin):
    """Return mixtures of the h=1 and h=2 minimum variance portfolios at an origin."""
    return horizon_portfolio(params, origin, 1), horizon_portfolio(params, origin, 2)


def evaluate_holdout(
    series: SeriesMatrix,
    specs: list[ModelSpec],
    model_ids: list[str] | None = None,
    alpha: float = 0.95,
    init: InitStrategy | None = None,
    max_iter: int = 500,
    tol: float = 1e-8,
) -> tuple[ComparisonReport, list[FitReport | None]]:
    """Fit every spec on all but the last two observations and score both holdout steps.

    From the origin at the end of the training span each model forms its h=1
    and h=2 minimum variance portfolios; realized returns are the portfolio
    values of the two held-out observations. Per-model failures are annotated
    and the run continues; a bad argument (``alpha``, EM limits, specs) raises
    one ``ValueError`` before any fit.
    """
    _check_em_limits(max_iter, tol)
    _require_alpha(alpha)
    if not specs:
        raise ValueError("specs must be nonempty")
    if model_ids is None:
        model_ids = [str(s) for s in specs]
    if len(model_ids) != len(specs):
        raise ValueError("model_ids must match specs in length")
    needed = max(s.p for s in specs) + 1 + 2
    if series.n < needed:
        raise ValueError(f"need at least {needed} observations, got {series.n}")
    train = SeriesMatrix(series.values[:-2])
    origin_time = train.n - 1
    rows: list[ComparisonRow] = []
    fits: list[FitReport | None] = []
    for spec, model_id in zip(specs, model_ids):
        try:
            report = em_fit(train, spec, init=init, max_iter=max_iter, tol=tol)
            origin = ForecastOrigin.from_series(train, spec.p)
            (sol1, rmix1), (sol2, rmix2) = mvp_forecast_mixtures(report.params, origin)
            realized1 = float(sol1.weights @ series.values[-2])
            realized2 = float(sol2.weights @ series.values[-1])
            rows.append(_score_row(model_id, 1, rmix1, realized1, alpha))
            rows.append(_score_row(model_id, 2, rmix2, realized2, alpha))
            fits.append(report)
        except (MvarError, ValueError) as exc:
            rows.append(_nan_row(model_id, 1, str(exc)))
            rows.append(_nan_row(model_id, 2, str(exc)))
            fits.append(None)
    return ComparisonReport(rows=rows, origin_time=origin_time, alpha=alpha), fits


def rolling_origin_crps(
    series: SeriesMatrix,
    specs: list[ModelSpec],
    n_origins: int,
    train_length: int,
    init: InitStrategy | None = None,
    refit_interval: int = 1,
    max_iter: int = 500,
    tol: float = 1e-8,
) -> np.ndarray:
    """CRPS of each model's MVP forecasts over the last ``n_origins`` rolling origins.

    At origin t the models are fit on the sliding window ending at t (length
    ``train_length``), refit every ``refit_interval`` origins, and scored at
    horizons 1 and 2 against the returns their own portfolios realize.
    Returns an array of shape (n_origins, len(specs), 2). A model that fails
    to fit or forecast at an origin scores NaN there and is refit at the next
    origin; the sweep carries on. Arguments that no origin could use raise one
    ``ValueError`` before any fit.
    """
    _check_em_limits(max_iter, tol)
    if n_origins < 1:
        raise ValueError(f"n_origins must be >= 1, got {n_origins}")
    if train_length < 1:
        raise ValueError(f"train_length must be >= 1, got {train_length}")
    n = series.n
    first_origin = n - 2 - n_origins
    if first_origin - train_length + 1 < 0:
        raise ValueError(
            f"series too short: need {train_length + n_origins + 2} rows, have {n}"
        )
    if refit_interval < 1:
        raise ValueError("refit_interval must be >= 1")
    out = np.full((n_origins, len(specs), 2), np.nan)
    fitted: list = [None] * len(specs)
    for j, t in enumerate(range(first_origin, first_origin + n_origins)):
        window = SeriesMatrix(series.values[t - train_length + 1: t + 1])
        for s, spec in enumerate(specs):
            try:
                if fitted[s] is None or j % refit_interval == 0:
                    fitted[s] = None      # stays None if the refit fails: the next origin refits
                    fitted[s] = em_fit(window, spec, init=init, max_iter=max_iter, tol=tol).params
                origin = ForecastOrigin.from_series(series, spec.p, t=t)
                (sol1, rmix1), (sol2, rmix2) = mvp_forecast_mixtures(fitted[s], origin)
                out[j, s] = (crps_mixture(rmix1, float(sol1.weights @ series.values[t + 1])),
                             crps_mixture(rmix2, float(sol2.weights @ series.values[t + 2])))
            except (MvarError, ValueError):
                continue                  # this (origin, model) keeps its NaN
    return out
