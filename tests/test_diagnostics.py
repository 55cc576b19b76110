import numpy as np
import pytest

from mvarkit import CorrelationTable, SeriesMatrix, acf_ccf


def test_white_noise_has_no_lagged_correlation():
    rng = np.random.default_rng(60)
    series = SeriesMatrix(rng.normal(size=(100_000, 2)))
    table = acf_ccf(series, max_lag=5)
    assert np.max(np.abs(table.values[1:])) < 0.02


def test_lag_zero_diagonal_is_exactly_one():
    rng = np.random.default_rng(61)
    series = SeriesMatrix(rng.normal(size=(500, 3)))
    table = acf_ccf(series, max_lag=2)
    assert np.array_equal(np.diag(table.values[0]), np.ones(3))


def test_ar1_autocorrelation_decays_geometrically():
    rng = np.random.default_rng(62)
    n = 100_000
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = 0.5 * y[t - 1] + rng.normal()
    table = acf_ccf(SeriesMatrix(y[:, None]), max_lag=5)
    for k in range(1, 6):
        assert table.values[k, 0, 0] == pytest.approx(0.5 ** k, abs=0.02)


def test_cross_correlation_orientation():
    # series 2 is series 1 delayed by one step, so corr(y1[t], y2[t+1]) ~ 1
    rng = np.random.default_rng(63)
    x = rng.normal(size=5001)
    series = SeriesMatrix(np.column_stack([x[1:], x[:-1]]))
    table = acf_ccf(series, max_lag=2)
    assert table.values[1, 0, 1] == pytest.approx(1.0, abs=1e-3)
    assert abs(table.values[1, 1, 0]) < 0.05


def test_reference_band_value():
    rng = np.random.default_rng(64)
    series = SeriesMatrix(rng.normal(size=(400, 1)))
    table = acf_ccf(series, max_lag=1)
    assert table.band == pytest.approx(1.96 / np.sqrt(400))


def test_max_lag_bounds_checked():
    series = SeriesMatrix(np.zeros((10, 1)) + np.arange(10)[:, None])
    with pytest.raises(ValueError):
        acf_ccf(series, max_lag=10)
    with pytest.raises(ValueError):
        acf_ccf(series, max_lag=-1)


def test_table_holds_read_only_copies():
    values = np.zeros((2, 1, 1))
    table = CorrelationTable(lags=[0, 1], values=values, band=0.1)
    values[1, 0, 0] = 0.5           # the caller's array stays the caller's
    assert table.values[1, 0, 0] == 0.0
    for a in (table.lags, table.values):
        assert isinstance(a, np.ndarray) and not a.flags.writeable
