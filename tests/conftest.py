"""Shared fixtures: reference parameter sets and random-model helpers."""

from __future__ import annotations

import numpy as np
import pytest

from mvarkit import (
    MixtureNormal1D,
    ModelSpec,
    MvarParameters,
    SeriesMatrix,
    SimulationConfig,
    is_stable,
    mixture_moments,
    predictive_one_step,
    project,
    scalar_mixture_moments,
    simulate,
)

# Three-variate two-component process used as the workhorse test model:
# well separated AR structures, heteroskedastic innovations, stable dynamics.
REF_SPEC = ModelSpec(g=2, m=3, orders=(1, 1))
REF_PI = np.array([0.75, 0.25])
REF_THETA0 = np.zeros((2, 3))
REF_THETA1 = np.array([
    [0.5, 0.0, 0.4],
    [-0.3, 0.0, 0.5],
    [-0.6, 0.5, -0.3],
])
REF_THETA2 = np.array([
    [-0.5, 1.0, -0.4],
    [0.3, 0.0, -0.2],
    [0.0, -0.5, 0.5],
])
REF_OMEGA1 = np.array([
    [1.0, 0.5, -0.4],
    [0.5, 2.0, 0.8],
    [-0.4, 0.8, 4.0],
])
REF_OMEGA2 = np.array([
    [1.0, 0.2, 0.0],
    [0.2, 2.0, -0.55],
    [0.0, -0.55, 4.0],
])


def make_ref_params() -> MvarParameters:
    return MvarParameters.from_component_lists(
        REF_SPEC, REF_PI, REF_THETA0,
        [[REF_THETA1], [REF_THETA2]],
        [REF_OMEGA1, REF_OMEGA2],
    )


# A fitted parameter set for the same process (estimates from one n=498
# realization); handy when a test wants realistic non-round numbers.
EST_PI = np.array([0.7242, 0.2758])
EST_THETA0 = np.array([
    [-0.0022, -0.0303, 0.1276],
    [0.0338, 0.5499, -0.7580],
])
EST_THETA1 = np.array([
    [0.4931, -0.0339, 0.4169],
    [-0.3156, -0.0012, 0.5078],
    [-0.6141, 0.6007, -0.3844],
])
EST_THETA2 = np.array([
    [-0.4595, 1.0124, -0.4004],
    [0.3343, -0.1423, -0.1551],
    [-0.1273, -0.2336, 0.6509],
])
EST_OMEGA1 = np.array([
    [0.9551, 0.4783, -0.2776],
    [0.4783, 1.9123, 0.9736],
    [-0.2776, 0.9736, 3.9455],
])
EST_OMEGA2 = np.array([
    [0.8767, 0.4794, -0.3627],
    [0.4794, 2.9148, -0.6576],
    [-0.3627, -0.6576, 9.8135],
])


def make_est_params() -> MvarParameters:
    return MvarParameters.from_component_lists(
        REF_SPEC, EST_PI, EST_THETA0,
        [[EST_THETA1], [EST_THETA2]],
        [EST_OMEGA1, EST_OMEGA2],
    )


@pytest.fixture(scope="session")
def ref_params() -> MvarParameters:
    return make_ref_params()


@pytest.fixture(scope="session")
def est_params() -> MvarParameters:
    return make_est_params()


@pytest.fixture(scope="session")
def ref_path(ref_params) -> SeriesMatrix:
    """A fixed n=500 realization of the reference process."""
    return simulate(SimulationConfig(params=ref_params, n=500, seed=20240521)).series


# Projected return mixture of an efficient portfolio on the reference process
# (two components; the risk-module regression target).
PORTFOLIO_MIX = dict(weights=[0.7242, 0.2758], means=[0.2642, -0.6939], sds=[1.2235, 1.3025])


def make_portfolio_mixture() -> MixtureNormal1D:
    return MixtureNormal1D(**PORTFOLIO_MIX, horizon=1, origin_time=498)


def permuted(params: MvarParameters, order) -> MvarParameters:
    """The same model with components relabelled by ``order`` (a permutation of 0..g-1)."""
    order = list(order)
    spec = ModelSpec(params.spec.g, params.spec.m, tuple(params.spec.orders[k] for k in order))
    return MvarParameters(spec=spec, pi=params.pi[order], theta0=params.theta0[order],
                          theta=params.theta[order], omega=params.omega[order])


def params_allclose(a: MvarParameters, b: MvarParameters, atol: float = 0.0) -> bool:
    """Same spec, and every parameter array of ``b`` within ``atol`` of ``a``'s, entry by entry."""
    return a.spec == b.spec and all(
        np.allclose(getattr(a, name), getattr(b, name), rtol=0, atol=atol)
        for name in ("pi", "theta0", "theta", "omega"))


def random_spd(rng: np.random.Generator, m: int, jitter: float = 0.3) -> np.ndarray:
    a = rng.normal(size=(m, m))
    return a @ a.T + (jitter + rng.uniform(0.0, 0.5)) * np.eye(m)


def random_stable_params(
    rng: np.random.Generator,
    g: int = 2,
    m: int = 2,
    p: int = 1,
    theta_scale: float = 0.4,
) -> MvarParameters:
    """Random parameter set, AR blocks shrunk until the stability criterion holds."""
    pi = rng.dirichlet(np.ones(g)) * 0.8 + 0.2 / g   # keep weights off the boundary
    pi = pi / pi.sum()
    theta0 = rng.normal(0.0, 0.5, size=(g, m))
    theta = rng.normal(0.0, theta_scale, size=(g, p, m, m))
    omega = np.stack([random_spd(rng, m) for _ in range(g)])
    spec = ModelSpec(g=g, m=m, orders=(p,) * g)
    for _ in range(60):
        params = MvarParameters(spec=spec, pi=pi, theta0=theta0, theta=theta, omega=omega)
        if is_stable(params)[0]:
            return params
        theta = theta * 0.7
    raise RuntimeError("could not produce a stable random model")


def regime_style_params(
    rng: np.random.Generator, g: int = 2, m: int = 2, p: int = 1
) -> MvarParameters:
    """Random regimes that share an AR core and differ mainly in covariance scale,
    the way volatility regimes do; used for ensemble-level behavioral checks."""
    pi = rng.dirichlet(np.ones(g)) * 0.8 + 0.2 / g
    pi = pi / pi.sum()
    common = rng.normal(0.0, 0.3, size=(p, m, m))
    theta = np.stack([common + rng.normal(0.0, 0.12, size=(p, m, m)) for _ in range(g)])
    theta0 = rng.normal(0.0, 0.2, size=(g, m))
    omega = np.stack([random_spd(rng, m) * rng.uniform(0.5, 2.0) for _ in range(g)])
    spec = ModelSpec(g, m, (p,) * g)
    for _ in range(60):
        params = MvarParameters(spec=spec, pi=pi, theta0=theta0, theta=theta, omega=omega)
        if is_stable(params)[0]:
            return params
        theta = theta * 0.7
    raise RuntimeError("could not produce a stable regime-style model")


def stationary_origin(rng: np.random.Generator, params: MvarParameters):
    """An origin drawn from the process's own stationary path."""
    from mvarkit import ForecastOrigin

    path = simulate(SimulationConfig(
        params=params, n=max(params.spec.p, 1), burn_in=100,
        seed=int(rng.integers(2 ** 31)),
    )).series
    return ForecastOrigin.from_series(path, params.spec.p)


def variance_routes(params: MvarParameters, origin, w) -> tuple[float, float, float]:
    """Both routes to the one-step portfolio variance and their gap.

    lhs: quadratic form of w in the one-step conditional covariance.
    rhs: variance of the projected one-step return mixture.
    The two are algebraically identical; the gap is rounding only.
    """
    w = np.asarray(w, dtype=float)
    mix = predictive_one_step(params, origin)
    lhs = float(w @ mixture_moments(mix).cov @ w)
    _, rhs = scalar_mixture_moments(project(mix, w))
    return lhs, rhs, abs(lhs - rhs)


def random_mixture1d(rng: np.random.Generator, max_components: int = 4) -> MixtureNormal1D:
    c = int(rng.integers(1, max_components + 1))
    w = rng.dirichlet(np.ones(c))
    w = w / w.sum()
    return MixtureNormal1D(
        weights=w,
        means=rng.normal(0.0, 2.0, size=c),
        sds=rng.uniform(0.3, 2.5, size=c),
        horizon=1,
        origin_time=0,
    )


def draw_mixture1d(rng: np.random.Generator, mix: MixtureNormal1D, n: int) -> np.ndarray:
    labels = rng.choice(mix.n_components, size=n, p=mix.weights)
    return rng.standard_normal(n) * mix.sds[labels] + mix.means[labels]


def draw_mixture_mv(rng: np.random.Generator, mix, n: int) -> np.ndarray:
    labels = rng.choice(mix.n_components, size=n, p=mix.weights)
    out = np.empty((n, mix.m))
    for j in range(mix.n_components):
        idx = labels == j
        if not np.any(idx):
            continue
        chol = np.linalg.cholesky(mix.covs[j])
        out[idx] = mix.means[j] + rng.standard_normal((int(idx.sum()), mix.m)) @ chol.T
    return out
