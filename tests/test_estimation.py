import numpy as np
import pytest

from mvarkit import (
    ComponentCollapseError,
    DensityUnderflowError,
    InitStrategy,
    ModelSpec,
    MvarError,
    MvarParameters,
    Responsibilities,
    SeriesMatrix,
    SimulationConfig,
    SingularComponentError,
    e_step,
    em_fit,
    log_likelihood,
    m_step,
    regressor_matrix,
    select_order,
    simulate,
)
from mvarkit.estimation import _canonicalize, _Design, _lockstep_em
from conftest import make_ref_params, random_stable_params
from oracles import naive_responsibilities, wls_explicit


@pytest.fixture(scope="module")
def ref_params():
    return make_ref_params()


@pytest.fixture(scope="module")
def ref_data(ref_params):
    return simulate(SimulationConfig(params=ref_params, n=500, seed=77)).series


class TestEStep:
    def test_single_component_is_all_ones(self, ref_data):
        params = MvarParameters.from_component_lists(
            ModelSpec(1, 3, (1,)), [1.0], [np.zeros(3)],
            [[0.2 * np.eye(3)]], [np.eye(3)]
        )
        tau = e_step(params, ref_data).tau
        assert np.allclose(tau, 1.0)

    def test_identical_components_return_prior(self, ref_data):
        block = 0.2 * np.eye(3)
        params = MvarParameters.from_component_lists(
            ModelSpec(2, 3, (1, 1)), [0.3, 0.7], np.zeros((2, 3)),
            [[block], [block]], [np.eye(3), np.eye(3)]
        )
        tau = e_step(params, ref_data).tau
        assert np.allclose(tau[:, 0], 0.3, atol=1e-12)
        assert np.allclose(tau[:, 1], 0.7, atol=1e-12)

    def test_matches_direct_density_ratio(self, ref_params, ref_data):
        tau = e_step(ref_params, ref_data).tau
        direct = naive_responsibilities(
            ref_params.pi, ref_params.theta0, ref_params.theta, ref_params.omega,
            ref_data.values, ref_params.spec.p,
        )
        usable = ~np.isnan(direct[:, 0])
        assert usable.mean() > 0.99
        assert np.allclose(tau[usable], direct[usable], atol=1e-10)

    def test_underflow_names_time_index(self):
        params = MvarParameters.from_component_lists(
            ModelSpec(2, 1, (0, 0)), [0.5, 0.5], [[0.0], [0.0]],
            [[], []], [[[1e-4]], [[1e-4]]]
        )
        series = SeriesMatrix([[0.0], [1e200], [0.0]])
        with pytest.raises(DensityUnderflowError) as err:
            e_step(params, series)
        assert err.value.t == 1

    def test_rows_sum_to_one(self, ref_params, ref_data):
        tau = e_step(ref_params, ref_data).tau
        assert np.max(np.abs(tau.sum(axis=1) - 1.0)) < 1e-12


class TestRegressorMatrix:
    def test_leading_column_is_one_and_lags_stack(self):
        series = SeriesMatrix(np.arange(8.0).reshape(4, 2))
        x = regressor_matrix(series, order=2, max_order=2)
        assert x.shape == (2, 5)
        assert np.allclose(x[:, 0], 1.0)
        # row for t=2: lags Y_1, Y_0
        assert np.allclose(x[0], [1.0, 2.0, 3.0, 0.0, 1.0])
        assert np.allclose(x[1], [1.0, 4.0, 5.0, 2.0, 3.0])

    def test_shorter_order_shares_row_indexing(self):
        series = SeriesMatrix(np.arange(8.0).reshape(4, 2))
        x = regressor_matrix(series, order=1, max_order=2)
        assert x.shape == (2, 3)
        assert np.allclose(x[0], [1.0, 2.0, 3.0])


class TestMStep:
    def test_single_component_p0_gives_moments(self):
        rng = np.random.default_rng(5)
        y = rng.normal(1.3, 2.0, size=(200, 2))
        series = SeriesMatrix(y)
        spec = ModelSpec(1, 2, (0,))
        tau = Responsibilities(np.ones((200, 1)))
        params = m_step(series, tau, spec)
        assert params.pi[0] == pytest.approx(1.0)
        assert np.allclose(params.theta0[0], y.mean(axis=0), atol=1e-12)
        centered = y - y.mean(axis=0)
        assert np.allclose(params.omega[0], centered.T @ centered / 200, atol=1e-12)

    def test_single_component_equals_ols(self):
        rng = np.random.default_rng(6)
        y = np.zeros((300, 1))
        for t in range(1, 300):
            y[t] = 0.4 + 0.6 * y[t - 1] + rng.normal()
        series = SeriesMatrix(y)
        spec = ModelSpec(1, 1, (1,))
        tau = Responsibilities(np.ones((299, 1)))
        params = m_step(series, tau, spec)
        x = np.column_stack([np.ones(299), y[:-1, 0]])
        beta, *_ = np.linalg.lstsq(x, y[1:, 0], rcond=None)
        assert params.theta0[0, 0] == pytest.approx(beta[0], abs=1e-10)
        assert params.theta[0, 0, 0, 0] == pytest.approx(beta[1], abs=1e-10)

    def test_matches_explicit_wls_oracle(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=(30, 2)).cumsum(axis=0) * 0.1 + rng.normal(size=(30, 2))
        series = SeriesMatrix(y)
        spec = ModelSpec(2, 2, (1, 1))
        raw = rng.dirichlet(np.ones(2), size=29)
        tau = Responsibilities(raw)
        params = m_step(series, tau, spec)
        x = regressor_matrix(series, 1, 1)
        for k in range(2):
            coef = wls_explicit(x, raw[:, k], y[1:])
            stacked = coef.T
            assert np.allclose(params.theta0[k], stacked[:, 0], atol=1e-8)
            assert np.allclose(params.theta[k, 0], stacked[:, 1:], atol=1e-8)
            resid = y[1:] - x @ coef
            om = (resid * raw[:, k][:, None]).T @ resid / raw[:, k].sum()
            assert np.allclose(params.omega[k], om, atol=1e-8)

    def test_singular_component_identified(self):
        series = SeriesMatrix(np.random.default_rng(8).normal(size=(40, 1)))
        spec = ModelSpec(2, 1, (1, 1))
        tau = np.column_stack([np.ones(39), np.zeros(39)])
        with pytest.raises(SingularComponentError) as err:
            m_step(series, Responsibilities(tau), spec)
        assert err.value.component == 1

    def test_collapsed_covariance_identified(self):
        # component 1 sees only identical observations: zero residual variance
        y = np.concatenate([np.full(20, 3.0), np.random.default_rng(9).normal(size=20)])
        series = SeriesMatrix(y[:, None])
        spec = ModelSpec(2, 1, (0, 0))
        tau = np.column_stack([np.r_[np.ones(20), np.zeros(20)],
                               np.r_[np.zeros(20), np.ones(20)]])
        with pytest.raises(ComponentCollapseError) as err:
            m_step(series, Responsibilities(tau), spec)
        assert err.value.component == 0


class TestEmFit:
    def test_g1_recovers_ols(self):
        rng = np.random.default_rng(10)
        y = np.zeros((400, 2))
        a = np.array([[0.5, 0.1], [-0.2, 0.3]])
        for t in range(1, 400):
            y[t] = 0.2 + a @ y[t - 1] + rng.normal(size=2)
        series = SeriesMatrix(y)
        report = em_fit(series, ModelSpec(1, 2, (1,)))
        x = np.column_stack([np.ones(399), y[:-1]])
        beta, *_ = np.linalg.lstsq(x, y[1:], rcond=None)
        assert report.converged
        assert np.allclose(report.params.theta0[0], beta[0], atol=1e-8)
        assert np.allclose(report.params.theta[0, 0], beta[1:].T, atol=1e-8)

    def test_recovers_mixing_weights_on_moderate_sample(self, ref_params):
        series = simulate(SimulationConfig(params=ref_params, n=500, seed=3)).series
        report = em_fit(series, ref_params.spec, InitStrategy(n_starts=10, seed=0))
        assert np.all(np.abs(report.params.pi - [0.75, 0.25]) <= 0.05)

    def test_trace_monotone_and_converged(self, ref_params, ref_data):
        report = em_fit(ref_data, ref_params.spec, InitStrategy(n_starts=3, seed=1))
        assert report.converged
        assert np.all(np.diff(report.loglik_trace) >= -1e-8)
        assert report.loglik == pytest.approx(
            log_likelihood(report.params, ref_data), abs=1e-6
        )

    def test_nonconvergence_reported_not_raised(self, ref_params, ref_data):
        report = em_fit(ref_data, ref_params.spec, InitStrategy(n_starts=1, seed=1),
                        max_iter=2)
        assert not report.converged
        assert report.iterations == 2

    def test_fit_is_deterministic(self, ref_params, ref_data):
        a = em_fit(ref_data, ref_params.spec, InitStrategy(n_starts=3, seed=5))
        b = em_fit(ref_data, ref_params.spec, InitStrategy(n_starts=3, seed=5))
        assert a.params.allclose(b.params)
        assert np.array_equal(a.loglik_trace, b.loglik_trace)

    def test_components_ordered_by_weight(self, ref_params, ref_data):
        report = em_fit(ref_data, ref_params.spec, InitStrategy(n_starts=4, seed=2))
        assert report.params.pi[0] >= report.params.pi[1]

    def test_canonicalize_undoes_label_switch(self, ref_params):
        tau = np.tile([0.3, 0.7], (10, 1))
        flipped = ref_params.permuted([1, 0])
        canon, canon_tau = _canonicalize(flipped, tau)
        assert canon.allclose(ref_params, atol=0.0)
        assert np.allclose(canon_tau, tau[:, [1, 0]])

    def test_fixed_point_at_truth_on_long_path(self, ref_params):
        series = simulate(SimulationConfig(params=ref_params, n=20000, seed=11)).series
        tau = e_step(ref_params, series)
        updated = m_step(series, tau, ref_params.spec)
        assert np.max(np.abs(updated.pi - ref_params.pi)) < 0.1
        assert np.max(np.abs(updated.theta0 - ref_params.theta0)) < 0.1
        assert np.max(np.abs(updated.theta - ref_params.theta)) < 0.1
        assert np.max(np.abs(updated.omega - ref_params.omega)) < 0.1

    def test_information_criteria_formulas(self, ref_params, ref_data):
        report = em_fit(ref_data, ref_params.spec, InitStrategy(n_starts=2, seed=3))
        d = ref_params.spec.n_free_parameters
        n_scored = ref_data.n - ref_params.spec.p
        assert report.bic == pytest.approx(-2 * report.loglik + d * np.log(n_scored))
        assert report.aic == pytest.approx(-2 * report.loglik + 2 * d)

    def test_free_parameter_count_with_mixed_orders(self):
        # g=3, m=4, orders (3,2,1): 2 + 3*4 + 16*(3+2+1) + 3*10 = 140
        assert ModelSpec(3, 4, (3, 2, 1)).n_free_parameters == 140


def dirichlet_starts(spec, n_scored, seed, n_starts):
    """Initial responsibilities (S, g, N) of em_fit's starts: one Dirichlet(1) draw per stream."""
    return np.stack([np.random.default_rng(ss).dirichlet(np.ones(spec.g), size=n_scored).T
                     for ss in np.random.SeedSequence(seed).spawn(n_starts)])


def plain_em_best(series, spec, seed, n_starts, max_iter=500, tol=1e-8):
    """Best final log-likelihood of one-start-at-a-time EM through the public steps."""
    best = -np.inf
    for tau0 in dirichlet_starts(spec, series.n - spec.p, seed, n_starts):
        try:
            params = m_step(series, Responsibilities(tau0.T), spec)
            trace = [log_likelihood(params, series)]
            for _ in range(max_iter):
                params = m_step(series, e_step(params, series), spec)
                trace.append(log_likelihood(params, series))
                if abs(trace[-1] - trace[-2]) < tol:
                    break
        except (MvarError, ValueError):
            continue
        best = max(best, trace[-1])
    return best


class TestLockstep:
    @pytest.mark.parametrize("case", ["mvar_2_11_m3", "mvar_3_210_m2", "var_1_m3"])
    def test_matches_public_step_loops(self, case, ref_params, ref_data):
        if case == "mvar_2_11_m3":
            series, spec = ref_data, ref_params.spec
        elif case == "mvar_3_210_m2":
            gen = random_stable_params(np.random.default_rng(12), g=2, m=2, p=2)
            series = simulate(SimulationConfig(params=gen, n=400, seed=13)).series
            spec = ModelSpec(3, 2, (2, 1, 0))
        else:
            series, spec = ref_data, ModelSpec(1, 3, (1,))
        n_starts = 4 if spec.g > 1 else 1
        report = em_fit(series, spec, InitStrategy(n_starts=n_starts, seed=9))
        assert report.loglik == pytest.approx(plain_em_best(series, spec, 9, n_starts),
                                              abs=1e-9, rel=0)

    def test_start_does_not_depend_on_batch_mates(self, ref_params, ref_data):
        spec = ref_params.spec
        design = _Design(ref_data, spec)
        tau0 = dirichlet_starts(spec, ref_data.n - spec.p, 4, 5)
        together = _lockstep_em(design, tau0, 500, 1e-8)
        pairs = _lockstep_em(design, tau0[[3, 1]], 500, 1e-8)
        for j in range(5):
            alone = _lockstep_em(design, tau0[j:j + 1], 500, 1e-8)[0]
            assert alone.trace == together[j].trace
            for field in ("pi", "coef", "omega", "tau"):
                assert np.array_equal(getattr(alone, field), getattr(together[j], field))
        assert pairs[0].trace == together[3].trace and pairs[1].trace == together[1].trace

    def test_failing_starts_leave_the_batch(self, ref_params, ref_data):
        spec = ref_params.spec
        design = _Design(ref_data, spec)
        tau0 = dirichlet_starts(spec, ref_data.n - spec.p, 6, 4)
        tau0[1] = [[1.0], [0.0]]              # component 1 has no weight: singular
        tau0[2, :, :] = 0.0                   # component 0 fits its 4 rows exactly: collapses
        tau0[2, 0, :4], tau0[2, 1, 4:] = 1.0, 1.0
        outcomes = _lockstep_em(design, tau0, 500, 1e-8)
        assert isinstance(outcomes[1].error, SingularComponentError)
        assert outcomes[1].error.component == 1 and outcomes[1].trace == []
        assert isinstance(outcomes[2].error, ComponentCollapseError)
        assert outcomes[2].error.component == 0
        for j in (0, 3):
            assert outcomes[j].error is None and outcomes[j].converged
            assert outcomes[j].trace == _lockstep_em(design, tau0[j:j + 1], 500, 1e-8)[0].trace

    def test_fit_survives_collapsing_starts(self):
        # 25 identical values among 200 normal draws: some starts collapse onto the tie
        y = np.concatenate([np.random.default_rng(0).normal(size=200), np.full(25, 2.0)])
        series, spec = SeriesMatrix(y[:, None]), ModelSpec(2, 1, (0, 0))
        outcomes = _lockstep_em(_Design(series, spec), dirichlet_starts(spec, series.n, 0, 6),
                                500, 1e-8)
        failed = [isinstance(o.error, ComponentCollapseError) for o in outcomes]
        assert any(failed) and not all(failed)
        report = em_fit(series, spec, InitStrategy(n_starts=6, seed=0))
        assert report.loglik == max(o.trace[-1] for o in outcomes if o.error is None)

    @pytest.mark.parametrize("value, orders, error", [
        (0.0, (1, 1), SingularComponentError),     # regressors (1, 0): singular normal equations
        (2.0, (0, 0), ComponentCollapseError),     # zero residual variance
    ])
    def test_every_start_failing_raises_the_last_error(self, value, orders, error):
        series = SeriesMatrix(np.full((60, 1), value))
        spec = ModelSpec(2, 1, orders)
        with pytest.raises(error) as raised:
            em_fit(series, spec, InitStrategy(n_starts=3, seed=0))
        outcomes = _lockstep_em(_Design(series, spec),
                                dirichlet_starts(spec, series.n - spec.p, 0, 3), 500, 1e-8)
        assert all(isinstance(o.error, error) for o in outcomes)
        assert str(raised.value) == str(outcomes[-1].error)


class TestSelectOrder:
    def test_single_candidate(self, ref_data):
        results = select_order(ref_data, [1], [1], n_starts=2, seed=0)
        assert len(results) == 1
        assert results[0].error is None

    def test_prefers_generating_component_count(self, ref_params):
        series = simulate(SimulationConfig(params=ref_params, n=2000, seed=21)).series
        results = select_order(series, [1, 2], [1], criterion="bic", n_starts=6, seed=0)
        best = results[0]
        assert best.error is None
        assert best.spec.g == 2

    def test_duplicate_candidates_score_identically(self, ref_data):
        results = select_order(ref_data, [2, 2], [1], n_starts=3, seed=4)
        assert results[0].score == results[1].score

    def test_failures_annotated_not_raised(self, ref_data):
        # p too large for the data length: that candidate fails, sweep continues
        tiny = SeriesMatrix(ref_data.values[:8])
        results = select_order(tiny, [1], [1, 20], n_starts=2, seed=0)
        scores = {r.spec.orders[0]: r for r in results}
        assert scores[1].error is None
        assert scores[20].error is not None
        assert scores[20].score == float("inf")
