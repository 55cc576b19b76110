"""Sample autocorrelation and cross-correlation diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SeriesMatrix, _frozen


@dataclass(frozen=True)
class CorrelationTable:
    """Auto/cross-correlations by lag; ``values[l, i, j]`` correlates series i
    at time t with series j at time t+l. ``band`` is the +/-1.96/sqrt(n)
    white-noise reference value."""

    lags: np.ndarray
    values: np.ndarray   # (max_lag + 1, m, m)
    band: float

    def __post_init__(self):
        object.__setattr__(self, "lags", _frozen(self.lags, dtype=int))
        object.__setattr__(self, "values", _frozen(self.values))


def acf_ccf(series: SeriesMatrix, max_lag: int) -> CorrelationTable:
    """Sample correlations for lags 0..max_lag with denominator n throughout.

    The lag-0 diagonal is exactly 1 by construction.
    """
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    if series.n <= max_lag:
        raise ValueError(f"need n > max_lag, got n={series.n}, max_lag={max_lag}")
    y = series.values - series.values.mean(axis=0)
    n, m = y.shape
    cov0 = (y.T @ y) / n
    scale = np.sqrt(np.outer(np.diag(cov0), np.diag(cov0)))
    values = np.empty((max_lag + 1, m, m))
    for lag in range(max_lag + 1):
        c = (y[: n - lag].T @ y[lag:]) / n
        values[lag] = c / scale
    values[0][np.diag_indices(m)] = 1.0
    return CorrelationTable(
        lags=np.arange(max_lag + 1),
        values=values,
        band=float(1.96 / np.sqrt(n)),
    )
