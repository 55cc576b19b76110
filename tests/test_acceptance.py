"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Reference values are computed independently of the package: criteria 1
and 7 take theirs from ``tests/oracles.py`` (bisection, quadrature) and the
closed form, not from externally quoted figures. Those figures (-2.2039,
-2.7912, 0.23370) are not the values of the stated inputs to the stated
tolerances; the detail lines still print them with their distance from the
verified values.
"""

import math
import time

import numpy as np
import pytest

from mvarkit import (
    ComponentCollapseError,
    ForecastOrigin,
    InitStrategy,
    MixtureNormal1D,
    ModelSpec,
    MvarParameters,
    SimulationConfig,
    crps_mixture,
    e_step,
    efficient_weights,
    em_fit,
    is_stable,
    log_likelihood,
    m_step,
    markowitz_coefficients,
    mixture_moments,
    mixture_quantile,
    mvp_weights,
    predictive_h_step_mc,
    predictive_two_step,
    rolling_origin_crps,
    simulate,
    var_es,
)
from conftest import (
    make_portfolio_mixture,
    make_ref_params,
    random_spd,
    random_stable_params,
    variance_routes,
)
from oracles import bisect_quantile, crps_quadrature, es_quadrature, kron_spectral_radius


def _report(number: int, title: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {verdict} - {title} ({detail})")
    assert ok, f"criterion {number} {title}: {detail}"


def test_criterion_1_tail_risk_reference_values():
    """VaR within 1e-3 and ES within 2e-2 of the bisection / quadrature oracles on the
    reference mixture, < 1 s."""
    mix = make_portfolio_mixture()
    ref_var = bisect_quantile(mix.weights, mix.means, mix.sds, 0.05)
    ref_es = es_quadrature(mix.weights, mix.means, mix.sds, 0.95)
    t0 = time.perf_counter()
    report = var_es(mix, alpha=0.95)
    elapsed = time.perf_counter() - t0
    var_ok = abs(report.var - ref_var) <= 1e-3
    es_ok = abs(report.es - ref_es) <= 2e-2
    detail = (
        f"quantile {report.var:.9f} vs oracle {ref_var:.9f} (tol 1e-3, diff "
        f"{report.var - ref_var:+.1e}), ES {report.es:.9f} vs oracle {ref_es:.9f} "
        f"(tol 2e-2, diff {report.es - ref_es:+.1e}), {elapsed:.3f}s; the formerly "
        f"quoted -2.2039 / -2.7912 are {-2.2039 - ref_var:+.1e} / {-2.7912 - ref_es:+.1e} "
        "from these values of the stated mixture"
    )
    _report(1, "tail-risk reference values", var_ok and es_ok and elapsed < 1.0, detail)


def _em_from_truth_loglik(true, series, max_iter=500, tol=1e-8):
    """Log-likelihood of plain EM iterated from the true parameters: the global-mode guard."""
    params = true
    loglik = log_likelihood(params, series)
    for _ in range(max_iter):
        params = m_step(series, e_step(params, series), true.spec)
        previous, loglik = loglik, log_likelihood(params, series)
        if abs(loglik - previous) < tol:
            break
    return loglik


def test_criterion_2_parameter_recovery():
    """n=20000 recovery within pi 0.04 / theta 0.1 / omega 0.3 in >= 9 of 10 seeds, each fit
    at the mode EM reaches from the truth (log-likelihood within 1e-4), < 2 min."""
    t0 = time.perf_counter()
    true = make_ref_params()
    passes = 0
    worst = []
    worst_gap = 0.0
    for seed in range(10):
        series = simulate(SimulationConfig(params=true, n=20000, seed=seed)).series
        fit = em_fit(series, true.spec, InitStrategy(n_starts=3, seed=seed)).params
        gap = _em_from_truth_loglik(true, series) - log_likelihood(fit, series)
        worst_gap = max(worst_gap, gap)
        err_pi = float(np.max(np.abs(fit.pi - true.pi)))
        err_th = float(max(np.max(np.abs(fit.theta0 - true.theta0)),
                           np.max(np.abs(fit.theta - true.theta))))
        err_om = float(np.max(np.abs(fit.omega - true.omega)))
        ok = err_pi <= 0.04 and err_th <= 0.1 and err_om <= 0.3
        passes += ok
        worst.append(max(err_th / 0.1, err_om / 0.3, err_pi / 0.04))
    elapsed = time.perf_counter() - t0
    detail = (
        f"{passes}/10 seeds within tolerance, {elapsed:.0f}s; worst normalized error "
        f"per seed: {np.round(worst, 2).tolist()}; largest log-likelihood shortfall "
        f"against EM from the truth {worst_gap:.1e} (limit 1e-4); at the formerly "
        "quoted n=2000 the bounds sit near one standard error of the estimator"
    )
    ok = passes >= 9 and worst_gap <= 1e-4 and elapsed < 120.0
    _report(2, "parameter recovery at n=20000", ok, detail)


def test_criterion_3_em_monotonicity():
    """Log-likelihood traces non-decreasing within 1e-8 on 50 random triples, < 5 min."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    collected = 0
    attempts = 0
    worst_drop = 0.0
    while collected < 50 and attempts < 200:
        attempts += 1
        g_true = int(rng.integers(1, 3))
        g_fit = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        p_fit = int(rng.integers(0, 3))
        gen = random_stable_params(rng, g=g_true, m=m, p=max(p_fit, 1))
        series = simulate(SimulationConfig(
            params=gen, n=int(rng.integers(150, 400)),
            seed=int(rng.integers(2 ** 31)),
        )).series
        spec = ModelSpec(g=g_fit, m=m, orders=(p_fit,) * g_fit)
        try:
            report = em_fit(series, spec,
                            InitStrategy(n_starts=1, seed=int(rng.integers(2 ** 31))),
                            max_iter=300)
        except ComponentCollapseError:
            continue     # collapsed starts carry no trace to check
        drops = np.diff(report.loglik_trace)
        worst_drop = min(worst_drop, float(drops.min(initial=0.0)))
        collected += 1
    elapsed = time.perf_counter() - t0
    ok = collected == 50 and worst_drop >= -1e-8 and elapsed < 300.0
    _report(3, "EM ascent on random problems", ok,
            f"50 traces, worst single-step change {worst_drop:.2e} (floor -1e-8), {elapsed:.0f}s")


def test_criterion_4_two_step_analytic_vs_monte_carlo():
    """Analytic 2-step moments within 3 MC standard errors at 20 origins, 1e6 draws, < 2 min."""
    t0 = time.perf_counter()
    params = make_ref_params()
    rng = np.random.default_rng(0)
    worst_z = 0.0
    for _ in range(20):
        path = simulate(SimulationConfig(params=params, n=1, burn_in=150,
                                         seed=int(rng.integers(2 ** 31)))).series
        origin = ForecastOrigin.from_series(path, 1)
        mom = mixture_moments(predictive_two_step(params, origin))
        draws, emp = predictive_h_step_mc(params, origin, 2, 1_000_000,
                                          seed=int(rng.integers(2 ** 31)))
        se_mean = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
        z_mean = np.max(np.abs(emp.mean - mom.mean) / se_mean)
        centered = draws - emp.mean
        fourth = (centered[:, :, None] ** 2 * centered[:, None, :] ** 2).mean(axis=0)
        se_cov = np.sqrt((fourth - emp.cov ** 2) / len(draws))
        z_cov = np.max(np.abs(emp.cov - mom.cov) / se_cov)
        worst_z = max(worst_z, z_mean, z_cov)
    elapsed = time.perf_counter() - t0
    _report(4, "two-step mixture vs simulation", worst_z < 3.0 and elapsed < 120.0,
            f"worst |z| {worst_z:.2f} over 20 origins x (mean, cov) entries, {elapsed:.0f}s")


def test_criterion_5_portfolio_variance_identity():
    """Both variance routes agree within 1e-8 on 100 random stable models."""
    rng = np.random.default_rng(5050)
    worst = 0.0
    for _ in range(100):
        params = random_stable_params(rng, g=int(rng.integers(1, 4)),
                                      m=int(rng.integers(1, 5)), p=1)
        m = params.spec.m
        origin = ForecastOrigin(history=rng.normal(0.0, 1.5, size=(1, m)), t=0)
        w = rng.normal(size=m)
        _, _, gap = variance_routes(params, origin, w)
        worst = max(worst, gap)
    _report(5, "portfolio variance identity", worst < 1e-8,
            f"max |quadratic-form - mixture-variance| = {worst:.2e}")


def test_criterion_6_markowitz_correctness():
    """Budget/target postconditions 1e-10, frontier variance 1e-8, MVP at the frontier bottom."""
    rng = np.random.default_rng(6060)
    worst_budget = worst_target = worst_frontier = worst_mvp = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 7))
        cov = random_spd(rng, m)
        mean = rng.normal(size=m)
        if abs(markowitz_coefficients(mean, cov).d) < 1e-8:
            continue
        target = float(rng.normal(0.0, 1.0))
        sol = efficient_weights(mean, cov, target)
        coeffs = markowitz_coefficients(mean, cov)
        worst_budget = max(worst_budget, abs(sol.weights.sum() - 1.0))
        worst_target = max(worst_target, abs(sol.weights @ mean - target))
        predicted = (coeffs.c * target ** 2 - 2 * coeffs.a * target + coeffs.b) / coeffs.d
        worst_frontier = max(worst_frontier, abs(sol.sd ** 2 - predicted))
        bottom = efficient_weights(mean, cov, coeffs.a / coeffs.c)
        mvp = mvp_weights(mean, cov)
        worst_mvp = max(worst_mvp, float(np.max(np.abs(bottom.weights - mvp.weights))))
    ok = (worst_budget < 1e-10 and worst_target < 1e-10
          and worst_frontier < 1e-8 and worst_mvp < 1e-10)
    _report(6, "efficient-frontier solver", ok,
            f"budget {worst_budget:.1e}, target {worst_target:.1e}, "
            f"frontier {worst_frontier:.1e}, mvp {worst_mvp:.1e}")


def test_criterion_7_crps_closed_form():
    """Closed form within 1e-7 of quadrature on 200 pairs; N(0,1) at its mean scores
    (sqrt(2)-1)/sqrt(pi) within 1e-6."""
    rng = np.random.default_rng(7070)
    worst = 0.0
    for _ in range(200):
        c = int(rng.integers(1, 5))
        w = rng.dirichlet(np.ones(c))
        mix = MixtureNormal1D(weights=w / w.sum(), means=rng.normal(0, 2, size=c),
                              sds=rng.uniform(0.3, 2.5, size=c), horizon=1, origin_time=0)
        x = float(rng.normal(0, 3))
        gap = abs(crps_mixture(mix, x) - crps_quadrature(mix.weights, mix.means, mix.sds, x))
        worst = max(worst, gap)
    std_mix = MixtureNormal1D(weights=[1.0], means=[0.0], sds=[1.0], horizon=1, origin_time=0)
    at_mean = crps_mixture(std_mix, 0.0)
    exact = (math.sqrt(2.0) - 1.0) / math.sqrt(math.pi)
    quad_ok = worst < 1e-7
    point_ok = abs(at_mean - exact) <= 1e-6
    detail = (
        f"max |closed - quadrature| = {worst:.2e} over 200 pairs; N(0,1) at its mean "
        f"scores {at_mean:.10f} vs (sqrt(2)-1)/sqrt(pi) = {exact:.10f} (tol 1e-6, diff "
        f"{at_mean - exact:+.1e}); the formerly quoted 0.23370 is a 4-decimal rounding, "
        f"{0.23370 - exact:+.2e} away"
    )
    _report(7, "CRPS closed form vs quadrature", quad_ok and point_ok, detail)


def test_criterion_8_forecast_comparison_propriety():
    """True two-component model beats the one-component baseline in mean CRPS over 200
    rolling origins, 3 standard errors of the paired difference, both horizons, < 10 min."""
    t0 = time.perf_counter()
    spec = ModelSpec(2, 2, (1, 1))
    gen = MvarParameters.from_component_lists(
        spec, [0.6, 0.4],
        [[1.2, 1.2], [-1.8, -1.8]],                 # regimes separated along ones:
        [[[[0.3, 0.0], [0.1, 0.2]]],                # no budget portfolio hedges it out
         [[[-0.2, 0.1], [0.0, 0.3]]]],
        [[[0.30, 0.10], [0.10, 0.40]], [[0.8, -0.15], [-0.15, 0.6]]],
    )
    series = simulate(SimulationConfig(params=gen, n=650, seed=42)).series
    candidates = [ModelSpec(2, 2, (1, 1)), ModelSpec(1, 2, (1,))]
    crps = rolling_origin_crps(series, candidates, n_origins=200, train_length=400,
                               init=InitStrategy(n_starts=4, seed=0), refit_interval=1)
    elapsed = time.perf_counter() - t0
    zs = []
    for h in (0, 1):
        diff = crps[:, 0, h] - crps[:, 1, h]
        zs.append(float(diff.mean() / (diff.std(ddof=1) / math.sqrt(len(diff)))))
    ok = all(z < -3.0 for z in zs) and elapsed < 600.0
    _report(8, "mixture beats single-component baseline on CRPS", ok,
            f"paired z-scores h=1: {zs[0]:.2f}, h=2: {zs[1]:.2f} "
            f"(need < -3), {elapsed:.0f}s for 200 refit origins")


def test_criterion_9_stability_criterion():
    """Scalar radius equals theta^2, zero dynamics give rho=0, reference model matches
    an independent dense-eigenvalue oracle to 1e-10 and is stable."""
    worst_scalar = 0.0
    for theta in (-1.2, -0.5, 0.0, 0.3, 0.99, 1.0):
        params = MvarParameters.from_component_lists(
            ModelSpec(1, 1, (1,)), [1.0], [[0.0]], [[[[theta]]]], [[[1.0]]])
        _, rho = is_stable(params)
        worst_scalar = max(worst_scalar, abs(rho - theta * theta))
    zero = MvarParameters.from_component_lists(
        ModelSpec(2, 2, (1, 1)), [0.5, 0.5], np.zeros((2, 2)),
        [[np.zeros((2, 2))], [np.zeros((2, 2))]], [np.eye(2), np.eye(2)])
    zero_stable, zero_rho = is_stable(zero)
    ref = make_ref_params()
    ref_stable, ref_rho = is_stable(ref)
    oracle = kron_spectral_radius(ref.pi, ref.theta)
    ok = (worst_scalar < 1e-12 and zero_stable and zero_rho == 0.0
          and ref_stable and abs(ref_rho - oracle) < 1e-10)
    _report(9, "stability spectral radius", ok,
            f"scalar gap {worst_scalar:.1e}, zero-dynamics rho {zero_rho}, "
            f"reference rho {ref_rho:.12f} vs oracle {oracle:.12f}")
