import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvarkit import (
    BracketError,
    MixtureNormal1D,
    RiskReport,
    crps_mixture,
    mixture_cdf,
    mixture_quantile,
    var_es,
)
from mvarkit.risk import QUANTILE_CDF_TOL
from conftest import draw_mixture1d, make_portfolio_mixture, random_mixture1d
from oracles import bisect_quantile, crps_quadrature, es_quadrature, mixture_cdf_direct


def std_normal_mix():
    return MixtureNormal1D(weights=[1.0], means=[0.0], sds=[1.0], horizon=1, origin_time=0)


def scaled_mixture(seed: int, c: int, log_scale: float, log_sd: float) -> MixtureNormal1D:
    """c components with means drawn at 10**log_scale and sds of 10**log_sd to
    10**(log_sd - 1) times that, at least 1e-9.

    With sds down to 1e-4 of the scale, one float step of x (|x| up to ~5 times
    the scale) moves a component's CDF by at most ~5e-12, so the 1e-10
    contract can be met.
    """
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    w = rng.dirichlet(np.ones(c))
    sds = scale * 10.0 ** (log_sd - rng.uniform(0.0, 1.0, c))
    return MixtureNormal1D(weights=w / w.sum(), means=rng.normal(0.0, scale, c),
                           sds=np.maximum(sds, 1e-9), horizon=1, origin_time=0)


MIXTURE_PROPERTY = dict(seed=st.integers(0, 2 ** 32 - 1), c=st.integers(1, 12),
                        log_scale=st.floats(-6.0, 6.0), log_sd=st.floats(-3.0, 1.0))


class TestCdf:
    def test_single_normal_at_mean(self):
        assert mixture_cdf(std_normal_mix(), 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_far_left_tail_vanishes(self):
        mix = make_portfolio_mixture()
        x = float(np.min(mix.means) - 20.0 * np.max(mix.sds))
        assert mixture_cdf(mix, x) < 1e-12

    def test_reference_mixture_near_five_percent(self):
        # frozen from direct evaluation with an erf-based CDF; the level at the
        # reported risk threshold is 0.0498, close to but not exactly 0.05
        mix = make_portfolio_mixture()
        value = mixture_cdf(mix, -2.2039)
        assert value == pytest.approx(mixture_cdf_direct(mix.weights, mix.means, mix.sds, -2.2039),
                                      abs=1e-14)
        assert value == pytest.approx(0.04978180765480558, abs=1e-12)

    def test_monotone_and_limits(self):
        rng = np.random.default_rng(40)
        mix = random_mixture1d(rng)
        xs = np.linspace(-30, 30, 400)
        vals = mixture_cdf(mix, xs)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] < 1e-9 and vals[-1] > 1 - 1e-9


class TestQuantile:
    def test_normal_975(self):
        mix = MixtureNormal1D(weights=[1.0], means=[1.0], sds=[2.0], horizon=1, origin_time=0)
        assert mixture_quantile(mix, 0.975) == pytest.approx(1.0 + 1.959964 * 2.0, abs=1e-5)

    def test_reference_mixture_five_percent(self):
        # independent bisection oracle pins the exact quantile; the widely
        # quoted -2.2039 for this mixture is a rounded-input artifact and sits
        # 2.9e-3 away from the true value
        mix = make_portfolio_mixture()
        oracle = bisect_quantile(mix.weights, mix.means, mix.sds, 0.05)
        got = mixture_quantile(mix, 0.05)
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got == pytest.approx(-2.200957072593611, abs=1e-9)
        assert got == pytest.approx(-2.2039, abs=5e-3)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 99))
    @settings(deadline=None, derandomize=True, max_examples=40)
    def test_cdf_roundtrip(self, seed, q_pct):
        rng = np.random.default_rng(seed)
        mix = random_mixture1d(rng)
        q = q_pct / 100.0
        x = mixture_quantile(mix, q)
        assert abs(mixture_cdf(mix, x) - q) < 1e-9

    def test_near_flat_region_meets_cdf_contract(self):
        # the CDF sits within 1e-10 of 1/2 from about 6e-9 to 5e7
        mix = MixtureNormal1D(weights=[0.5, 0.5], means=[0.0, 1e8], sds=[1e-9, 1.0],
                              horizon=1, origin_time=0)
        for q in (0.5 - 1e-11, 0.5, 0.5 + 1e-11):
            x = mixture_quantile(mix, q)
            assert abs(mixture_cdf(mix, x) - q) <= 1e-10

    def test_flat_stretch_returns_left_end(self):
        # the CDF sits at 1/2 within 1e-10 from about 6e-9 to 1e8 - 6; the
        # left end of that stretch is where it first comes within 1e-10 of 1/2
        weights, means, sds = [0.5, 0.5], [0.0, 1e8], [1e-9, 1.0]
        mix = MixtureNormal1D(weights=weights, means=means, sds=sds, horizon=1, origin_time=0)
        left_end = bisect_quantile(weights, means, sds, 0.5 - QUANTILE_CDF_TOL)
        x = mixture_quantile(mix, 0.5)
        assert x == pytest.approx(left_end, abs=1e-15)
        assert abs(mixture_cdf(mix, x) - 0.5) <= QUANTILE_CDF_TOL
        report = var_es(mix, alpha=0.5)
        assert report.var == x
        assert report.es <= report.var and abs(report.es) < 1e-15

    @pytest.mark.parametrize("q", [1e-9, 0.05, 0.4, 0.5, 0.95, 1.0 - 1e-9])
    def test_bimodal_mixture_matches_bisection(self, q):
        weights, means, sds = [0.4, 0.6], [-3.0, 2.0], [1.0, 0.5]
        mix = MixtureNormal1D(weights=weights, means=means, sds=sds, horizon=1, origin_time=0)
        assert mixture_quantile(mix, q) == pytest.approx(bisect_quantile(weights, means, sds, q),
                                                         abs=1e-7)

    def test_narrow_component_does_not_flatten_a_wide_one(self):
        # the CDF rises by only ~9e-12 over one sd of the spike left of the root:
        # probing at the spike's scale would call this stretch flat and move x by ~1e-8
        weights, means, sds = [0.5, 0.5], [0.0, 50.0], [10.0, 1e-9]
        mix = MixtureNormal1D(weights=weights, means=means, sds=sds, horizon=1, origin_time=0)
        assert mixture_quantile(mix, 0.05) == pytest.approx(
            bisect_quantile(weights, means, sds, 0.05), abs=1e-10)

    def test_refinement_steps_are_bounded(self):
        # near 1e40 neighbouring floats are 2e24 apart: 1e-6 steps never move x,
        # and one float step moves the CDF by far more than 1e-10
        mix = MixtureNormal1D(weights=[1.0], means=[1e40], sds=[1e30], horizon=1, origin_time=0)
        with pytest.raises(BracketError, match="refinement"):
            mixture_quantile(mix, 0.3)

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            mixture_quantile(std_normal_mix(), 0.0)

    @given(q=st.floats(1e-9, 1.0 - 1e-9), gap=st.integers(0, 11), **MIXTURE_PROPERTY)
    @settings(deadline=None, derandomize=True, max_examples=300)
    def test_inverts_cdf_with_left_end_convention(self, seed, c, log_scale, log_sd, q, gap):
        mix = scaled_mixture(seed, c, log_scale, log_sd)
        if 0 < gap < c:
            # the mass left of a gap between components: where the CDF is flattest
            q = float(np.clip(np.cumsum(mix.weights[np.argsort(mix.means)])[gap - 1],
                              1e-9, 1.0 - 1e-9))
        x = mixture_quantile(mix, q)
        assert abs(mixture_cdf(mix, x) - q) <= QUANTILE_CDF_TOL
        # against the erf-based bisection oracle; eps covers the two CDFs' rounding
        w, mu, sd = mix.weights, mix.means, mix.sds
        eps, slack = 1e-14, 4.0 * np.spacing(abs(x))

        def between(lo_level, hi_level):
            return (bisect_quantile(w, mu, sd, lo_level) - slack <= x
                    <= bisect_quantile(w, mu, sd, hi_level) + slack)

        assert between(q - QUANTILE_CDF_TOL - eps, q + QUANTILE_CDF_TOL + eps)
        # either the CDF a widest sd left of x is already below the band, or the
        # band is flat there and x is its left end: the oracle's quantile at q - tol
        probe = x - float(np.max(sd))
        probe_below = mixture_cdf_direct(w, mu, sd, probe) < q - QUANTILE_CDF_TOL + eps
        assert probe_below or between(q - QUANTILE_CDF_TOL - eps, q - QUANTILE_CDF_TOL + eps)


class TestVarEs:
    def test_standard_normal(self):
        report = var_es(std_normal_mix(), alpha=0.95)
        assert report.var == pytest.approx(-1.6449, abs=1e-3)
        assert report.es == pytest.approx(-2.0627, abs=1e-3)
        assert report.loss_var == -report.var

    def test_reference_mixture(self):
        # closed form frozen against the bisection + partial-expectation oracle;
        # reported rounded values -2.2039 / -2.7912 are matched at the
        # resolution their rounded inputs support
        mix = make_portfolio_mixture()
        report = var_es(mix, alpha=0.95)
        assert report.var == pytest.approx(-2.200957072593611, abs=1e-9)
        assert report.es == pytest.approx(-2.785434097602413, abs=1e-9)
        assert es_quadrature(mix.weights, mix.means, mix.sds, 0.95) == pytest.approx(
            -2.785434097602413, abs=1e-9)
        assert report.var == pytest.approx(-2.2039, abs=5e-3)
        assert report.es == pytest.approx(-2.7912, abs=2e-2)

    def test_es_matches_conditional_sample_mean(self):
        mix = make_portfolio_mixture()
        report = var_es(mix, alpha=0.95)
        rng = np.random.default_rng(41)
        draws = draw_mixture1d(rng, mix, 1_000_000)
        tail = draws[draws <= report.var]
        se = tail.std(ddof=1) / math.sqrt(len(tail))
        assert abs(tail.mean() - report.es) < 3 * se

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(deadline=None, derandomize=True, max_examples=30)
    def test_es_never_exceeds_var(self, seed):
        rng = np.random.default_rng(seed)
        mix = random_mixture1d(rng)
        alpha = float(rng.uniform(0.8, 0.99))
        report = var_es(mix, alpha)
        assert report.es <= report.var

    @pytest.mark.parametrize("field", ["weights", "means", "sds"])
    def test_non_finite_mixture_rejected(self, field):
        fields = {"weights": [0.5, 0.5], "means": [0.0, 1.0], "sds": [1.0, 1.0]}
        fields[field] = [fields[field][0], np.nan]
        # before, a NaN weight or mean surfaced as a BracketError from the quantile search
        with pytest.raises(ValueError, match="finite"):
            var_es(MixtureNormal1D(**fields, horizon=1, origin_time=0), alpha=0.95)

    def test_report_validates_ordering(self):
        with pytest.raises(ValueError):
            RiskReport(alpha=0.95, var=-1.0, es=-0.5)


class TestCrps:
    def test_standard_normal_at_mean(self):
        # exact closed form (sqrt(2) - 1) / sqrt(pi); quadrature agrees below
        exact = (math.sqrt(2.0) - 1.0) / math.sqrt(math.pi)
        got = crps_mixture(std_normal_mix(), 0.0)
        assert got == pytest.approx(exact, abs=1e-12)
        assert got == pytest.approx(0.23369497725510907, abs=1e-12)
        assert got == pytest.approx(crps_quadrature([1.0], [0.0], [1.0], 0.0), abs=1e-9)

    def test_sharp_forecast_at_truth_scores_zero(self):
        mix = MixtureNormal1D(weights=[1.0], means=[1.7], sds=[1e-8], horizon=1, origin_time=0)
        assert crps_mixture(mix, 1.7) < 1e-6

    def test_matches_quadrature_on_random_mixtures(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            mix = random_mixture1d(rng)
            x = float(rng.normal(0.0, 3.0))
            closed = crps_mixture(mix, x)
            quad = crps_quadrature(mix.weights, mix.means, mix.sds, x)
            assert closed == pytest.approx(quad, abs=1e-7)

    @given(x_sd=st.floats(-5.0, 5.0), **MIXTURE_PROPERTY)
    @settings(deadline=None, derandomize=True, max_examples=200)
    def test_nonnegative_over_scales(self, seed, c, log_scale, log_sd, x_sd):
        mix = scaled_mixture(seed, c, log_scale, log_sd)
        assert crps_mixture(mix, x_sd * 10.0 ** log_scale) >= 0.0

    @given(seed=st.integers(0, 2 ** 32 - 1), c=st.integers(1, 12), log_sd=st.floats(-1.0, 1.0),
           x=st.floats(-8.0, 8.0))
    @settings(deadline=None, derandomize=True, max_examples=60)
    def test_matches_quadrature_property(self, seed, c, log_sd, x):
        mix = scaled_mixture(seed, c, 0.0, log_sd)
        closed = crps_mixture(mix, x)
        assert closed >= 0.0
        quad = crps_quadrature(mix.weights, mix.means, mix.sds, x)
        assert closed == pytest.approx(quad, abs=1e-7)

    def test_vectorized_over_observations(self):
        mix = make_portfolio_mixture()
        xs = np.array([-2.0, 0.0, 1.5])
        vec = crps_mixture(mix, xs)
        assert vec.shape == (3,)
        for i, x in enumerate(xs):
            assert vec[i] == pytest.approx(crps_mixture(mix, float(x)), abs=1e-15)

    def test_nonnegative_and_minimized_near_center(self):
        mix = MixtureNormal1D(weights=[0.5, 0.5], means=[-1.0, 1.0], sds=[0.6, 0.6],
                              horizon=1, origin_time=0)
        xs = np.linspace(-6, 6, 241)
        scores = crps_mixture(mix, xs)
        assert np.all(scores >= 0.0)
        assert abs(xs[np.argmin(scores)]) < 0.2      # symmetric mixture centers the optimum

    @given(c=st.floats(-20, 20))
    @settings(deadline=None, derandomize=True, max_examples=30)
    def test_translation_equivariance(self, c):
        mix = make_portfolio_mixture()
        shifted = MixtureNormal1D(weights=mix.weights, means=mix.means + c,
                                  sds=mix.sds, horizon=1, origin_time=0)
        x = 0.37
        assert crps_mixture(shifted, x + c) == pytest.approx(crps_mixture(mix, x), abs=1e-9)
        r0 = var_es(mix, 0.95)
        r1 = var_es(shifted, 0.95)
        assert r1.var == pytest.approx(r0.var + c, abs=1e-7)
        assert r1.es == pytest.approx(r0.es + c, abs=1e-7)

    def test_propriety_smoke(self):
        # forecasting the generating mixture beats a fixed wrong forecast
        rng = np.random.default_rng(43)
        true_mix = MixtureNormal1D(weights=[0.6, 0.4], means=[-0.8, 1.2],
                                   sds=[0.5, 1.0], horizon=1, origin_time=0)
        wrong_mix = MixtureNormal1D(weights=[0.5, 0.5], means=[0.5, 0.5],
                                    sds=[1.0, 2.0], horizon=1, origin_time=0)
        draws = draw_mixture1d(rng, true_mix, 100_000)
        diff = crps_mixture(true_mix, draws) - crps_mixture(wrong_mix, draws)
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        assert diff.mean() < -3 * se
