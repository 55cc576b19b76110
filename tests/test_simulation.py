import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvarkit import (
    MixtureNormalMV,
    ModelSpec,
    MvarParameters,
    SimulationConfig,
    mixture_moments,
    simulate,
    simulate_forward,
)
from mvarkit import simulation
from mvarkit.simulation import _draw_labels, _run_steps
from conftest import make_ref_params, random_spd
from oracles import simulate_forward_loop, simulate_loop


@pytest.fixture(scope="module")
def ref_params():
    return make_ref_params()


def test_iid_standard_normal_case():
    params = MvarParameters(spec=ModelSpec(1, 1, (0,)), pi=[1.0], theta0=[[0.0]],
                            theta=np.zeros((1, 0, 1, 1)), omega=[[[1.0]]])
    result = simulate(SimulationConfig(params=params, n=100_000, seed=1))
    x = result.series.values[:, 0]
    assert abs(x.mean()) < 0.02          # ~ 3 / sqrt(n) for an i.i.d. N(0,1) path
    assert abs(x.std() - 1.0) < 0.02


def test_near_degenerate_weights_use_one_component():
    # strictly positive weights are required, so probe the boundary from inside
    params = MvarParameters.from_component_lists(
        ModelSpec(2, 1, (1, 1)), [1.0 - 1e-12, 1e-12], [[0.0], [5.0]],
        [[[[0.2]]], [[[0.1]]]], [[[1.0]], [[1.0]]]
    )
    result = simulate(SimulationConfig(params=params, n=10_000, seed=2))
    assert np.all(result.labels == 0)


def test_reference_label_frequency(ref_params):
    result = simulate(SimulationConfig(params=ref_params, n=100_000, seed=3))
    freq = (result.labels == 0).mean()
    assert abs(freq - 0.75) < 0.01


def test_reproducibility_bit_identical(ref_params):
    config = SimulationConfig(params=ref_params, n=500, burn_in=100, seed=42)
    a = simulate(config)
    b = simulate(config)
    assert np.array_equal(a.series.values, b.series.values)
    assert np.array_equal(a.labels, b.labels)
    assert a.rng_algorithm == "pcg64"


def test_different_seed_changes_path(ref_params):
    a = simulate(SimulationConfig(params=ref_params, n=100, seed=1))
    b = simulate(SimulationConfig(params=ref_params, n=100, seed=2))
    assert not np.array_equal(a.series.values, b.series.values)


def test_conditional_residuals_standard_normal(ref_params):
    result = simulate(SimulationConfig(params=ref_params, n=100_000, seed=4))
    y = result.series.values
    labels = result.labels
    chol = ref_params.cholesky_factors()
    for k in range(2):
        idx = np.flatnonzero(labels[1:] == k) + 1    # need the lag within the sample
        means = y[idx - 1] @ ref_params.theta[k, 0].T + ref_params.theta0[k]
        resid = y[idx] - means
        z = np.linalg.solve(chol[k], resid.T).T
        assert np.max(np.abs(z.mean(axis=0))) < 0.05
        cov = np.cov(z.T)
        assert np.max(np.abs(cov - np.eye(3))) < 0.05


def test_static_mixture_matches_analytic_moments(ref_params):
    spec = ModelSpec(2, 3, (0, 0))
    static = MvarParameters(spec=spec, pi=ref_params.pi,
                            theta0=[[1.0, -2.0, 0.5], [3.0, 1.0, -1.0]],
                            theta=np.zeros((2, 0, 3, 3)), omega=ref_params.omega)
    result = simulate(SimulationConfig(params=static, n=100_000, seed=5, burn_in=0))
    analytic = mixture_moments(MixtureNormalMV(
        weights=static.pi, means=static.theta0, covs=static.omega,
        horizon=1, origin_time=0,
    ))
    y = result.series.values
    assert np.max(np.abs(y.mean(axis=0) - analytic.mean)) < 0.05
    assert np.max(np.abs(np.cov(y.T) - analytic.cov)) < 0.1


def test_initial_values_feed_first_step():
    params = MvarParameters.from_component_lists(
        ModelSpec(1, 1, (1,)), [1.0], [[0.0]], [[[[0.9]]]], [[[1e-12]]]
    )
    result = simulate(SimulationConfig(params=params, n=1, burn_in=0, seed=0,
                                       initial=np.array([[5.0]])))
    assert result.series.values[0, 0] == pytest.approx(4.5, abs=1e-5)


def test_initial_shape_validated(ref_params):
    with pytest.raises(Exception, match="initial"):
        SimulationConfig(params=ref_params, n=10, initial=np.zeros((2, 3)))


def test_forward_simulation_deterministic(ref_params):
    history = np.array([[0.3, -0.2, 1.0]])
    a = simulate_forward(ref_params, history, 3, 4, np.random.default_rng(9))
    b = simulate_forward(ref_params, history, 3, 4, np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert a.shape == (4, 3, 3)


def test_forward_simulation_single_path_two_calls(ref_params):
    history = np.array([[0.3, -0.2, 1.0]])
    a = simulate_forward(ref_params, history, 2, 1, np.random.default_rng(10))
    b = simulate_forward(ref_params, history, 2, 1, np.random.default_rng(10))
    assert np.array_equal(a, b)


def mixed_order_params(seed, g, m, orders):
    """Random parameters with the given per-component orders (zero blocks beyond them)."""
    rng = np.random.default_rng(seed)
    p = max(orders)
    theta = rng.normal(0.0, 0.3, size=(g, p, m, m))
    for k, order in enumerate(orders):
        theta[k, order:] = 0.0
    pi = rng.dirichlet(np.ones(g)) * 0.8 + 0.2 / g
    return MvarParameters(spec=ModelSpec(g, m, orders), pi=pi / pi.sum(),
                          theta0=rng.normal(0.0, 1.0, size=(g, m)), theta=theta,
                          omega=np.stack([random_spd(rng, m) for _ in range(g)]))


FORWARD_CASES = {
    "reference": (make_ref_params, 5, 200),
    "mvar_3_211_m4": (lambda: mixed_order_params(1, 3, 4, (2, 1, 1)), 4, 150),
    "orders_01": (lambda: mixed_order_params(2, 2, 2, (0, 1)), 3, 100),
    "orders_00": (lambda: mixed_order_params(3, 2, 3, (0, 0)), 3, 100),
    "g1": (lambda: mixed_order_params(4, 1, 2, (2,)), 4, 100),
    "one_path": (make_ref_params, 6, 1),
    "one_step": (lambda: mixed_order_params(1, 3, 4, (2, 1, 1)), 1, 50),
}


@pytest.mark.parametrize("case", sorted(FORWARD_CASES))
def test_forward_simulation_matches_per_path_loop(case):
    make, horizon, n_paths = FORWARD_CASES[case]
    params = make()
    p, m = params.spec.p, params.spec.m
    history = np.random.default_rng(99).normal(size=(p, m))
    got = simulate_forward(params, history, horizon, n_paths, np.random.default_rng(5))
    want = simulate_forward_loop(params.pi, params.theta0, params.theta, params.omega,
                                 history, horizon, n_paths, np.random.default_rng(5))
    assert got.shape == (n_paths, horizon, m)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    again = simulate_forward(params, history, horizon, n_paths, np.random.default_rng(5))
    assert np.array_equal(got, again)


def kernel_on_documented_draws(params, history, horizon, n_paths, rng):
    """The step kernel fed ``simulate_forward``'s documented draws, made inline step by step."""
    g, m = params.spec.g, params.spec.m
    offsets = g * np.arange(n_paths)
    draws = [(rng.choice(g, n_paths, p=params.pi) + offsets, rng.standard_normal((n_paths, m)))
             for _ in range(horizon)]
    out = np.empty((horizon, n_paths, m))
    _run_steps(params, history, draws, out)
    return out.transpose(1, 0, 2)


@pytest.mark.parametrize("case", sorted(FORWARD_CASES) + ["h10_1e5_paths"])
def test_forward_simulation_is_the_kernel_on_documented_draws(case):
    make, horizon, n_paths = FORWARD_CASES.get(case, (make_ref_params, 10, 100_000))
    params = make()
    history = np.random.default_rng(99).normal(size=(params.spec.p, params.spec.m))
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    got = simulate_forward(params, history, horizon, n_paths, rng)
    want = kernel_on_documented_draws(params, history, horizon, n_paths, ref)
    assert np.array_equal(got, want)
    assert rng.random() == ref.random()   # exactly ``horizon`` steps drawn


def test_forward_simulation_joins_its_helper_thread(ref_params):
    before = threading.active_count()
    simulate_forward(ref_params, np.zeros((1, 3)), 4, 1000, np.random.default_rng(0))
    assert threading.active_count() == before


class FailingNormals(np.random.Generator):
    """PCG64 whose ``standard_normal`` raises on its ``fail_at``-th call."""

    def __init__(self, fail_at):
        super().__init__(np.random.PCG64(0))
        self.calls, self.fail_at = 0, fail_at

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.fail_at:
            raise FloatingPointError("draw failed")
        return super().standard_normal(*args, **kwargs)


@pytest.mark.parametrize("fail_at", [1, 3])
def test_forward_simulation_reraises_a_draw_error(ref_params, fail_at):
    before = threading.active_count()
    rng = FailingNormals(fail_at)
    with pytest.raises(FloatingPointError, match="draw failed"):
        simulate_forward(ref_params, np.zeros((1, 3)), 5, 100, rng)
    assert threading.active_count() == before
    assert rng.calls == fail_at   # no step is drawn after the failed one


def test_forward_simulation_joins_when_the_kernel_raises(ref_params, monkeypatch):
    def kernel_fails_after_one_step(params, history, draws, out):
        next(iter(draws))
        raise FloatingPointError("kernel failed")

    monkeypatch.setattr(simulation, "_run_steps", kernel_fails_after_one_step)
    before = threading.active_count()
    rng = FailingNormals(fail_at=0)
    with pytest.raises(FloatingPointError, match="kernel failed"):
        simulate_forward(ref_params, np.zeros((1, 3)), 5, 100, rng)
    assert threading.active_count() == before
    assert rng.calls == 2   # step 1 was already drawing, and finished before the return


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-12.0, 0.0), min_size=1, max_size=6),
       st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_label_draw_is_choice(log10_weights, size, seed):
    weights = 10.0 ** np.asarray(log10_weights)
    pi = weights / weights.sum()
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    labels = np.zeros(size, dtype=np.intp)
    _draw_labels(rng, pi, labels, np.empty(size))
    assert np.array_equal(labels, ref.choice(len(pi), size, p=pi))
    assert rng.random() == ref.random()


def test_label_draw_breaks_a_tie_as_choice_does():
    # a uniform equal to a cumulative weight takes the next label
    seed = next(s for s in range(100) if np.random.default_rng(s).random() >= 0.5)
    u = np.random.default_rng(seed).random()
    pi = np.array([u, 1.0 - u])   # exact for u >= 0.5, and the cumsum ends at exactly 1
    labels = np.zeros(1, dtype=np.intp)
    _draw_labels(np.random.default_rng(seed), pi, labels, np.empty(1))
    assert labels[0] == np.random.default_rng(seed).choice(2, 1, p=pi)[0] == 1


SIMULATE_CASES = {
    "mvar_3_210_m2": (lambda: mixed_order_params(5, 3, 2, (2, 1, 0)), False, 0),
    "orders_00": (lambda: mixed_order_params(6, 2, 2, (0, 0)), False, 0),
    "g1": (lambda: mixed_order_params(7, 1, 3, (2,)), False, 0),
    "initial_and_burn_in": (lambda: mixed_order_params(8, 2, 3, (2, 1)), True, 50),
}


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_matches_per_step_loop(case):
    make, with_initial, burn_in = SIMULATE_CASES[case]
    params = make()
    g, m, p = params.spec.g, params.spec.m, params.spec.p
    initial = np.random.default_rng(98).normal(size=(p, m)) if with_initial else None
    config = SimulationConfig(params=params, n=300, burn_in=burn_in, seed=12, initial=initial)
    result = simulate(config)
    # simulate's documented draw order: all labels, then all innovations
    rng = np.random.default_rng(12)
    labels = rng.choice(g, size=burn_in + 300, p=params.pi)
    eps = rng.standard_normal((burn_in + 300, m))
    want = simulate_loop(params.theta0, params.theta, params.omega, labels, eps,
                         np.zeros((p, m)) if initial is None else initial)[burn_in:]
    assert np.array_equal(result.labels, labels[burn_in:])
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(result.series.values - want)) <= 1e-12 * scale


def test_forward_simulation_rejects_non_finite_history(ref_params):
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            simulate_forward(ref_params, np.array([[bad, 0.0, 0.0]]), 2, 3,
                             np.random.default_rng(0))


def test_initial_values_must_be_finite(ref_params):
    with pytest.raises(ValueError, match="non-finite"):
        SimulationConfig(params=ref_params, n=10, initial=np.array([[np.nan, 0.0, 0.0]]))
