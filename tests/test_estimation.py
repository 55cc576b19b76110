import numpy as np
import pytest

from mvarkit import (
    ComponentCollapseError,
    DensityUnderflowError,
    DimensionError,
    InitStrategy,
    ModelSpec,
    MvarError,
    MvarParameters,
    NotPositiveDefiniteError,
    Responsibilities,
    SeriesMatrix,
    SimulationConfig,
    SingularComponentError,
    component_log_densities,
    e_step,
    em_fit,
    log_likelihood,
    m_step,
    regressor_matrix,
    select_order,
    simulate,
)
from mvarkit import estimation
from mvarkit.estimation import _canonicalize, _lockstep_em, _m_kernel, _retirements
from mvarkit.model import (_Design, _e_kernel, _nan_errstate, gaussian_log_densities,
                           stacked_coefficients, stacked_residuals)
from conftest import make_ref_params, params_allclose, permuted, random_stable_params
from oracles import naive_responsibilities, wls_explicit


@pytest.fixture(scope="module")
def ref_params():
    return make_ref_params()


@pytest.fixture(scope="module")
def ref_data(ref_params):
    return simulate(SimulationConfig(params=ref_params, n=500, seed=77)).series


def underflow_case():
    """Two p=0 components whose densities both underflow at the row t=1."""
    params = MvarParameters.from_component_lists(
        ModelSpec(2, 1, (0, 0)), [0.5, 0.5], [[0.0], [0.0]],
        [[], []], [[[1e-4]], [[1e-4]]]
    )
    return params, SeriesMatrix([[0.0], [1e200], [0.0]])


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
        params, series = underflow_case()
        with pytest.raises(DensityUnderflowError) as err:
            e_step(params, series)
        assert err.value.t == 1

    def test_log_likelihood_reports_the_same_underflow(self):
        params, series = underflow_case()
        times = []
        for entry in (e_step, log_likelihood):
            with pytest.raises(DensityUnderflowError) as err:
                entry(params, series)
            times.append(err.value.t)
        assert times == [1, 1]

    def test_rows_sum_to_one(self, ref_params, ref_data):
        tau = e_step(ref_params, ref_data).tau
        assert np.max(np.abs(tau.sum(axis=1) - 1.0)) < 1e-12


class TestRegressorMatrix:
    def test_leading_column_is_one_and_lags_stack(self):
        series = SeriesMatrix(np.arange(8.0).reshape(4, 2))
        x = regressor_matrix(series, 2)
        assert x.shape == (2, 5)
        assert np.allclose(x[:, 0], 1.0)
        # row for t=2: lags Y_1, Y_0
        assert np.allclose(x[0], [1.0, 2.0, 3.0, 0.0, 1.0])
        assert np.allclose(x[1], [1.0, 4.0, 5.0, 2.0, 3.0])


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
        x = regressor_matrix(series, 1)
        for k in range(2):
            coef = wls_explicit(x, raw[:, k], y[1:])
            stacked = coef.T
            assert np.allclose(params.theta0[k], stacked[:, 0], atol=1e-8)
            assert np.allclose(params.theta[k, 0], stacked[:, 1:], atol=1e-8)
            resid = y[1:] - x @ coef
            om = (resid * raw[:, k][:, None]).T @ resid / raw[:, k].sum()
            assert np.allclose(params.omega[k], om, atol=1e-8)

    def test_mixed_orders_match_explicit_wls_oracle(self):
        # orders (2, 1, 0): each component reads its own leading block of the
        # order-2 regressors, the order-0 one only the intercept column
        rng = np.random.default_rng(17)
        y = rng.normal(size=(60, 2)).cumsum(axis=0) * 0.1 + rng.normal(size=(60, 2))
        series = SeriesMatrix(y)
        spec = ModelSpec(3, 2, (2, 1, 0))
        raw = rng.dirichlet(np.ones(3), size=58)
        params = m_step(series, Responsibilities(raw), spec)
        x = regressor_matrix(series, 2)
        for k, order in enumerate(spec.orders):
            width = 1 + 2 * order
            coef = wls_explicit(x[:, :width], raw[:, k], y[2:])
            assert np.allclose(params.theta0[k], coef[0], atol=1e-10)
            for lag in range(2):
                expected = coef[1 + 2 * lag: 3 + 2 * lag].T if lag < order else np.zeros((2, 2))
                assert np.allclose(params.theta[k, lag], expected, atol=1e-10)
            resid = y[2:] - x[:, :width] @ coef
            om = (resid * raw[:, k][:, None]).T @ resid / raw[:, k].sum()
            assert np.allclose(params.omega[k], om, atol=1e-10)
        assert np.allclose(params.pi, raw.mean(axis=0), atol=1e-15)

    def test_noncontiguous_orders_match_oracle_in_a_batch(self):
        # orders (1, 2, 1): the order-1 components 0 and 2 are not one run of indices
        rng = np.random.default_rng(19)
        y = rng.normal(size=(80, 2)).cumsum(axis=0) * 0.1 + rng.normal(size=(80, 2))
        series = SeriesMatrix(y)
        spec = ModelSpec(3, 2, (1, 2, 1))
        design = _Design(series, spec)
        assert [(np.arange(3)[c].tolist(), width) for c, width in design.groups] == \
            [([0, 2], 3), ([1], 5)]
        tau = np.ascontiguousarray(dirichlet_starts(spec, 78, 23, 3))   # m_step's layout
        batch = _m_kernel(design, tau)
        assert batch.errors == [None] * 3
        x = regressor_matrix(series, 2)
        for s in range(3):
            for k, order in enumerate(spec.orders):
                width = 1 + 2 * order
                coef = wls_explicit(x[:, :width], tau[s, k], y[2:])
                assert np.allclose(batch.coef[s, k, :width], coef, atol=1e-10)
                assert np.all(batch.coef[s, k, width:] == 0.0)
                resid = y[2:] - x[:, :width] @ coef
                om = (resid * tau[s, k][:, None]).T @ resid / tau[s, k].sum()
                assert np.allclose(batch.omega[s, k], om, atol=1e-10)
            alone = _m_kernel(design, tau[s:s + 1])
            for field in ("pi", "coef", "resid", "omega", "chol"):
                assert np.array_equal(getattr(alone, field)[0], getattr(batch, field)[s])
        params = m_step(series, Responsibilities(tau[1].T), spec)
        assert np.array_equal(params.theta0, batch.coef[1, :, 0])
        assert np.array_equal(params.omega, batch.omega[1])

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

    def test_covariance_without_a_cholesky_factor_classified(self):
        # start 0's component 1 passes the eigenvalue test but its factor came back NaN;
        # start 1's component 0 collapsed as well, which outranks its NaN factor
        coef, omega = np.zeros((2, 2, 3, 2)), np.broadcast_to(np.eye(2), (2, 2, 2, 2)).copy()
        min_eig = np.ones((2, 2))
        min_eig[1, 0] = 1e-13
        chol = omega.copy()
        chol[0, 1] = chol[1, 1] = np.nan
        errors = estimation._classify_failures(coef, omega, min_eig, chol)
        assert isinstance(errors[0], NotPositiveDefiniteError)
        assert str(errors[0]) == "omega[1] is not positive definite"
        assert isinstance(errors[1], ComponentCollapseError) and errors[1].component == 0

    def test_covariance_without_a_cholesky_factor_identified(self):
        # rows along (0.6, 0.8) at scale 1e6 with 1e-3 across it: on common LAPACK builds,
        # rounding leaves the smallest eigenvalue near 3e-5, above the collapse floor, while
        # the Cholesky factorisation fails; other builds may round otherwise
        rng = np.random.default_rng(5)
        y = (1e6 * rng.normal(size=(10, 1)) * [0.6, 0.8]
             + 1e-3 * rng.normal(size=(10, 1)) * [-0.8, 0.6])
        series, spec = SeriesMatrix(y), ModelSpec(1, 2, (0,))
        with np.errstate(invalid="ignore"):      # the kernel's callers set this state
            update = _m_kernel(_Design(series, spec), np.ones((1, 1, 10)))
        omega = update.omega[0, 0]
        if not (np.linalg.eigvalsh(omega)[0] >= estimation.COLLAPSE_EIGENVALUE
                and np.isnan(update.chol[0, 0]).all()):
            pytest.skip("this LAPACK build rounds the covariance to a factorable or collapsed one")
        for fit in (lambda: m_step(series, Responsibilities(np.ones((10, 1))), spec),
                    lambda: em_fit(series, spec)):
            with pytest.raises(NotPositiveDefiniteError) as err:
                fit()
            assert str(err.value) == "omega[0] is not positive definite"

    def test_collapse_reports_the_covariance_eigenvalue(self):
        # start 0's component 1 sees 20 near-identical rows (variance ~1e-16); start 1 is healthy
        rng = np.random.default_rng(11)
        y = rng.normal(size=(40, 2))
        y[20:] = [3.0, 1.0] + 1e-8 * rng.normal(size=(20, 2))
        spec = ModelSpec(2, 2, (0, 0))
        tau = np.stack([[np.r_[np.ones(20), np.zeros(20)], np.r_[np.zeros(20), np.ones(20)]],
                        rng.dirichlet(np.ones(2), size=40).T])
        update = _m_kernel(_Design(SeriesMatrix(y), spec), tau)
        error = update.errors[0]
        assert isinstance(error, ComponentCollapseError) and error.component == 1
        assert 0.0 < error.eigenvalue < 1e-12
        assert error.eigenvalue == np.linalg.eigvalsh(update.omega[0, 1])[0]
        assert update.errors[1] is None

    def test_tau_must_cover_the_scored_rows(self, ref_params, ref_data):
        tau = Responsibilities(np.full((ref_data.n, 2), 0.5))   # one row too many for p=1
        with pytest.raises(DimensionError, match=r"tau must have shape \(499,2\), got \(500, 2\)"):
            m_step(ref_data, tau, ref_params.spec)

    def test_non_finite_responsibilities_rejected(self):
        tau = np.column_stack([np.full(39, 0.5), np.full(39, 0.5)])
        tau[7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Responsibilities(tau)


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

    def test_negative_max_iter_rejected(self, ref_params, ref_data):
        with pytest.raises(ValueError, match="max_iter must be >= 0"):
            em_fit(ref_data, ref_params.spec, max_iter=-1)
        report = em_fit(ref_data, ref_params.spec, init=InitStrategy(n_starts=1), max_iter=0)
        assert report.iterations == 0 and len(report.loglik_trace) == 1

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            InitStrategy(n_starts=2, seed=-1)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), -float("inf")])
    def test_tol_must_be_finite_and_nonnegative(self, ref_params, ref_data, tol):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            em_fit(ref_data, ref_params.spec, max_iter=3, tol=tol)
        report = em_fit(ref_data, ref_params.spec, init=InitStrategy(n_starts=2), max_iter=3,
                        tol=0.0)
        assert report.iterations == 3

    def test_nonconvergence_reported_not_raised(self, ref_params, ref_data):
        report = em_fit(ref_data, ref_params.spec, InitStrategy(n_starts=1, seed=1),
                        max_iter=2)
        assert not report.converged
        assert report.iterations == 2

    def test_fit_is_deterministic(self, ref_params, ref_data):
        a = em_fit(ref_data, ref_params.spec, InitStrategy(n_starts=3, seed=5))
        b = em_fit(ref_data, ref_params.spec, InitStrategy(n_starts=3, seed=5))
        assert params_allclose(a.params, b.params)
        assert np.array_equal(a.loglik_trace, b.loglik_trace)

    def test_components_ordered_by_weight(self, ref_params, ref_data):
        report = em_fit(ref_data, ref_params.spec, InitStrategy(n_starts=4, seed=2))
        assert report.params.pi[0] >= report.params.pi[1]

    def test_relabelled_winner_validated_once(self, ref_params, ref_data, monkeypatch):
        orders, built = [], []
        canonical = estimation._canonical_permutation
        monkeypatch.setattr(estimation, "_canonical_permutation",
                            lambda pi, theta0: orders.append(canonical(pi, theta0)) or orders[-1])
        validate = MvarParameters.__post_init__
        monkeypatch.setattr(MvarParameters, "__post_init__",
                            lambda self: built.append(self) or validate(self))
        report = em_fit(ref_data, ref_params.spec, InitStrategy(n_starts=2, seed=0))
        assert [list(order) for order in orders] == [[1, 0]]   # the winner needed a relabel
        assert len(built) == 1 and built[0] is report.params

    def test_canonicalize_undoes_label_switch(self, ref_params):
        tau = np.tile([0.3, 0.7], (10, 1))
        flipped = permuted(ref_params, [1, 0])
        canon, canon_tau = _canonicalize(flipped.spec, flipped.pi, stacked_coefficients(flipped),
                                         flipped.omega, tau)
        assert params_allclose(canon, ref_params, atol=0.0)
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


def plain_em_winner(series, spec, seed, n_starts, max_iter=500, tol=1e-8):
    """Final log-likelihood of the winning start of one-start-at-a-time EM through the public steps.

    The winner is chosen as ``em_fit`` documents it: the lowest start index
    among final log-likelihoods within ``tol`` of the best.
    """
    finals = []
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
        finals.append(trace[-1])
    top = max(finals)
    return next(value for value in finals if top - value <= tol)


def assert_solo_contract(design, tau0, outcomes, max_iter=500, tol=1e-8):
    """Check a lockstep batch against each of its starts run alone.

    A start that is not retired ends exactly as alone. A retired start stopped
    at a checkpoint iteration 2, 4, 8, ... on a prefix of its solo trace, and
    names a lower-index start whose log-likelihood was at least its own there.
    """
    for j, out in enumerate(outcomes):
        alone = _lockstep_em(design, tau0[j:j + 1], max_iter, tol)[0]
        assert alone.duplicate_of is None
        if out.duplicate_of is None:
            assert alone.trace == out.trace and str(alone.error) == str(out.error)
            assert (alone.iterations, alone.converged) == (out.iterations, out.converged)
            if alone.error is None:
                for field in ("pi", "coef", "omega", "tau"):
                    assert np.array_equal(getattr(alone, field), getattr(out, field))
            continue
        it, q = out.iterations, out.duplicate_of
        assert it >= 2 and it & (it - 1) == 0 and q < j
        assert out.error is None and not out.converged
        assert len(out.trace) == it + 1 and out.trace == alone.trace[:it + 1]
        assert outcomes[q].trace[it] >= out.trace[it]


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
        assert report.loglik == pytest.approx(plain_em_winner(series, spec, 9, n_starts),
                                              abs=1e-9, rel=0)

    def test_noncontiguous_orders_batch_matches_each_start_alone(self, ref_data):
        spec = ModelSpec(3, 3, (1, 2, 1))
        design = _Design(ref_data, spec)
        tau0 = dirichlet_starts(spec, ref_data.n - spec.p, 6, 3)
        # max_iter=0: one M-step from tau0, checked against the explicit WLS oracle
        x = regressor_matrix(ref_data, 2)
        for s, out in enumerate(_lockstep_em(design, tau0, 0, 1e-8)):
            for k, order in enumerate(spec.orders):
                width = 1 + 3 * order
                coef = wls_explicit(x[:, :width], tau0[s, k], ref_data.values[2:])
                assert np.allclose(out.coef[k, :width], coef, atol=1e-10)
        together = _lockstep_em(design, tau0, 200, 1e-8)
        for j in range(3):
            alone = _lockstep_em(design, tau0[j:j + 1], 200, 1e-8)[0]
            assert alone.trace == together[j].trace and str(alone.error) == str(together[j].error)
            assert alone.iterations == together[j].iterations
            if alone.error is None:
                for field in ("pi", "coef", "omega", "tau"):
                    assert np.array_equal(getattr(alone, field), getattr(together[j], field))

    def test_start_does_not_depend_on_batch_mates(self, ref_params, ref_data):
        spec = ref_params.spec
        design = _Design(ref_data, spec)
        tau0 = dirichlet_starts(spec, ref_data.n - spec.p, 4, 5)
        together = _lockstep_em(design, tau0, 500, 1e-8)
        assert_solo_contract(design, tau0, together)
        assert 0 < sum(out.duplicate_of is not None for out in together) < 4
        pairs = _lockstep_em(design, tau0[[3, 1]], 500, 1e-8)
        assert_solo_contract(design, tau0[[3, 1]], pairs)

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
        assert outcomes[0].error is None and outcomes[0].converged
        assert outcomes[3].error is None and (outcomes[3].converged or outcomes[3].duplicate_of == 0)
        assert_solo_contract(design, tau0, outcomes)

    def test_starts_in_different_basins_both_run_to_the_end(self):
        # Three clusters, two components: one basin merges the left pair, the other the
        # right pair. Starts 0 and 1 are put in the two basins, starts 2 and 3 are blurred,
        # relabelled copies of them, so each basin has a start trailing its first start.
        rng = np.random.default_rng(5)
        y = np.concatenate([rng.normal(-6, 1, 100), rng.normal(0, 1, 100), rng.normal(6, 1, 100)])
        series, spec = SeriesMatrix(y[:, None]), ModelSpec(2, 1, (0, 0))
        design = _Design(series, spec)
        left, right = (y < 3.0).astype(float), (y < -3.0).astype(float)
        tau0 = np.stack([[left, 1 - left], [right, 1 - right], [1 - left, left], [1 - right, right]])
        tau0[2:] = 0.9 * tau0[2:] + 0.05
        outcomes = _lockstep_em(design, tau0, 500, 1e-8)
        assert [out.duplicate_of for out in outcomes] == [None, None, 0, 1]
        assert outcomes[0].converged and outcomes[1].converged
        assert outcomes[1].trace[-1] - outcomes[0].trace[-1] > 10.0
        assert_solo_contract(design, tau0, outcomes)
        for j in (2, 3):                      # each retired start's own run ends in its basin
            alone = _lockstep_em(design, tau0[j:j + 1], 500, 1e-8)[0]
            assert alone.trace[-1] == pytest.approx(outcomes[j - 2].trace[-1], abs=1e-6, rel=0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_em_fit_equals_the_tie_rule_over_solo_runs(self, seed, ref_params, ref_data):
        spec = ref_params.spec
        design = _Design(ref_data, spec)
        tau0 = dirichlet_starts(spec, ref_data.n - spec.p, seed, 10)
        assert any(out.duplicate_of is not None for out in _lockstep_em(design, tau0, 500, 1e-8))
        solo = [_lockstep_em(design, tau[None], 500, 1e-8)[0] for tau in tau0]
        finished = [out for out in solo if out.error is None]
        top = max(out.trace[-1] for out in finished)
        best = next(out for out in finished if top - out.trace[-1] <= 1e-8)
        params, tau = _canonicalize(spec, best.pi, best.coef, best.omega, best.tau.T)
        report = em_fit(ref_data, spec, InitStrategy(n_starts=10, seed=seed))
        assert report.loglik_trace.tolist() == best.trace
        assert (report.iterations, report.converged) == (best.iterations, best.converged)
        for name in ("pi", "theta0", "theta", "omega"):
            assert np.array_equal(getattr(report.params, name), getattr(params, name))
        assert np.array_equal(report.responsibilities.tau, tau)

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_retirement_rule_ignores_affine_maps_and_labels(self, scale, ref_params, ref_data):
        # Eight starts run alone for 15 iterations, then take one M-step and E-step
        # together on Y, on a*Y + b, on permuted columns and with relabelled components.
        spec = ref_params.spec
        design = _Design(ref_data, spec)
        tau = np.stack([_lockstep_em(design, tau0[None], 15, 0.0)[0].tau
                        for tau0 in dirichlet_starts(spec, ref_data.n - spec.p, 0, 8)])

        def retired(values, tau):
            with _nan_errstate():
                update = _m_kernel(_Design(SeriesMatrix(values), spec), tau)
                log_dens = gaussian_log_densities(update.resid, update.chol)
                loglik = _e_kernel(log_dens, np.log(update.pi), spec.p)[0]
                return _retirements(update, loglik, list(range(len(tau))))

        base = retired(ref_data.values, tau)
        assert 0 < len(base) < 7
        a, b = scale * np.array([1.0, -3.0, 0.2]), scale * np.array([5.0, -40.0, 2.0])
        assert retired(ref_data.values * a + b, tau) == base
        assert retired(ref_data.values[:, [2, 0, 1]] * scale, tau) == base
        assert retired(ref_data.values * scale, tau[:, ::-1]) == base

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
    def test_lockstep_retires_alike_after_affine_maps(self, scale, ref_params, ref_data):
        # Below 1e-3 the reference data's innovation variances approach the absolute
        # COLLAPSE_EIGENVALUE and starts fail; the rule itself is checked there above.
        spec = ref_params.spec
        tau0 = dirichlet_starts(spec, ref_data.n - spec.p, 0, 8)

        def decisions(values):
            outcomes = _lockstep_em(_Design(SeriesMatrix(values), spec), tau0, 500, 1e-8)
            return [(out.duplicate_of, out.iterations) for out in outcomes]

        base = decisions(ref_data.values)
        assert any(q is not None for q, _ in base)
        a, b = scale * np.array([1.0, -3.0, 0.2]), scale * np.array([5.0, -40.0, 2.0])
        assert decisions(ref_data.values * a + b) == base
        assert decisions(ref_data.values[:, [2, 0, 1]] * scale) == base

    def test_fit_survives_collapsing_starts(self):
        # 25 identical values among 200 normal draws: starts 0, 1 and 5 collapse onto the
        # tie after hundreds of healthy iterations, and their batch mates run on unchanged
        y = np.concatenate([np.random.default_rng(0).normal(size=200), np.full(25, 2.0)])
        series, spec = SeriesMatrix(y[:, None]), ModelSpec(2, 1, (0, 0))
        design = _Design(series, spec)
        tau0 = dirichlet_starts(spec, series.n, 0, 6)
        outcomes = _lockstep_em(design, tau0, 500, 1e-8)
        failed = [isinstance(o.error, ComponentCollapseError) for o in outcomes]
        assert failed == [True, True, False, False, False, True]
        assert all(len(outcomes[j].trace) > 100 for j in (0, 1, 5))
        for j, out in enumerate(outcomes):
            alone = _lockstep_em(design, tau0[j:j + 1], 500, 1e-8)[0]
            assert alone.trace == out.trace and str(alone.error) == str(out.error)
            if not failed[j]:
                for field in ("pi", "coef", "omega", "tau"):
                    assert np.array_equal(getattr(alone, field), getattr(out, field))
        report = em_fit(series, spec, InitStrategy(n_starts=6, seed=0))
        assert report.loglik == max(o.trace[-1] for o in outcomes if o.error is None)

    def test_underflowing_start_leaves_batch_mates_unchanged(self):
        # Start 1 gives the two far outliers no weight, so its first fit has sd ~1e-3 and
        # both component densities of t=50 underflow; the other starts absorb the outliers.
        y = np.random.default_rng(3).normal(scale=1e-3, size=200)
        y[50], y[150] = 1e152, 2e152
        series, spec = SeriesMatrix(y[:, None]), ModelSpec(2, 1, (0, 0))
        design = _Design(series, spec)
        tau0 = dirichlet_starts(spec, series.n, 1, 4)
        tau0[1][:, [50, 150]] = 0.0
        together = _lockstep_em(design, tau0, 500, 1e-8)
        assert isinstance(together[1].error, DensityUnderflowError) and together[1].error.t == 50
        for j in (0, 2, 3):
            alone = _lockstep_em(design, tau0[j:j + 1], 500, 1e-8)[0]
            assert together[j].error is None and together[j].converged
            assert alone.trace == together[j].trace
            for field in ("pi", "coef", "omega", "tau"):
                assert np.array_equal(getattr(alone, field), getattr(together[j], field))

    def test_tied_starts_resolve_to_the_lowest_index(self, ref_params, ref_data):
        # seed 3: both starts reach one mode, start 1 ends 2.3e-9 above start 0
        spec = ref_params.spec
        outcomes = _lockstep_em(_Design(ref_data, spec),
                                dirichlet_starts(spec, ref_data.n - spec.p, 3, 2), 500, 1e-8)
        low, high = (out.trace[-1] for out in outcomes)
        assert low < high and high - low <= 1e-8
        report = em_fit(ref_data, spec, InitStrategy(n_starts=2, seed=3))
        assert report.loglik_trace.tolist() == outcomes[0].trace

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


def _one_row_tau(params):
    return Responsibilities(np.full((1, params.spec.g), 1.0 / params.spec.g))


def _residuals(params, series):
    design = _Design(series, params.spec)
    return stacked_residuals(stacked_coefficients(params), design.xt, design.yt)


# Every entry point that puts a model on a series, as (params, series) -> result.
SERIES_ENTRY_POINTS = {
    "log_likelihood": log_likelihood,
    "component_log_densities": component_log_densities,
    "e_step": e_step,
    "m_step": lambda params, series: m_step(series, _one_row_tau(params), params.spec),
    "em_fit": lambda params, series: em_fit(series, params.spec, InitStrategy(1, 0), max_iter=1),
    "stacked_residuals": _residuals,
}


class TestSeriesCheck:
    @pytest.mark.parametrize("entry", sorted(SERIES_ENTRY_POINTS))
    def test_wrong_width_is_one_dimension_error(self, entry, ref_params, ref_data):
        with pytest.raises(DimensionError) as err:
            SERIES_ENTRY_POINTS[entry](ref_params, SeriesMatrix(ref_data.values[:, :2]))
        assert str(err.value) == "series dimension 2 does not match model dimension 3"

    @pytest.mark.parametrize("entry", sorted(SERIES_ENTRY_POINTS))
    def test_short_series_needs_p_plus_one_rows(self, entry, ref_params):
        with pytest.raises(ValueError, match=r"need at least p\+1=2 observations, got 1"):
            SERIES_ENTRY_POINTS[entry](ref_params, SeriesMatrix(np.zeros((1, 3))))


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

    @pytest.mark.parametrize("limits, message", [
        ({"max_iter": -1}, "max_iter must be >= 0"),
        ({"tol": float("nan")}, "tol must be finite and >= 0"),
    ])
    def test_bad_em_limits_raise_once(self, ref_data, limits, message):
        # an argument error is the caller's, not a failure of each candidate
        with pytest.raises(ValueError, match=message):
            select_order(ref_data, [1, 2], [1], n_starts=2, seed=0, **limits)

    def test_bad_n_starts_raises_once_before_any_fit(self, ref_data, monkeypatch):
        # not "n_starts must be >= 1" once per candidate in an all-failed ranking
        fits = []
        monkeypatch.setattr(estimation, "em_fit", lambda *a, **k: fits.append(a))
        with pytest.raises(ValueError, match="n_starts must be >= 1"):
            select_order(ref_data, [1, 2], [1, 2], n_starts=0, seed=0)
        assert fits == []

    def test_negative_seed_raises_once_before_any_fit(self, ref_data, monkeypatch):
        fits = []
        monkeypatch.setattr(estimation, "em_fit", lambda *a, **k: fits.append(a))
        with pytest.raises(ValueError, match="seed must be >= 0"):
            select_order(ref_data, [1, 2], [1, 2], n_starts=2, seed=-1)
        assert fits == []

    def test_failures_annotated_not_raised(self, ref_data):
        # p too large for the data length: that candidate fails, sweep continues
        tiny = SeriesMatrix(ref_data.values[:8])
        results = select_order(tiny, [1], [1, 20], n_starts=2, seed=0)
        scores = {r.spec.orders[0]: r for r in results}
        assert scores[1].error is None
        assert scores[20].error is not None
        assert scores[20].score == float("inf")


def _collapsing_fit_case():
    """A p=0 fit in which starts 0, 1 and 5 of six collapse (as in TestLockstep)."""
    y = np.concatenate([np.random.default_rng(0).normal(size=200), np.full(25, 2.0)])
    return SeriesMatrix(y[:, None]), ModelSpec(2, 1, (0, 0))


def _fp_em_fit_with_failing_starts(ref_params, ref_data):
    series, spec = _collapsing_fit_case()
    return em_fit(series, spec, InitStrategy(n_starts=6, seed=0))


def _fp_em_fit_all_failing(ref_params, ref_data):
    return em_fit(SeriesMatrix(np.full((60, 1), 0.0)), ModelSpec(2, 1, (1, 1)),
                  InitStrategy(n_starts=3, seed=0))


def _fp_m_step_singular(ref_params, ref_data):
    series = SeriesMatrix(np.random.default_rng(8).normal(size=(40, 1)))
    tau = np.column_stack([np.ones(39), np.zeros(39)])
    return m_step(series, Responsibilities(tau), ModelSpec(2, 1, (1, 1)))


# Entry points that run stacked LAPACK calls or EM arithmetic, with passing and failing inputs.
FP_ENTRY_POINTS = {
    "em_fit": lambda params, series: em_fit(series, params.spec, InitStrategy(3, 0)),
    "em_fit_failing_starts": _fp_em_fit_with_failing_starts,
    "em_fit_all_starts_fail": _fp_em_fit_all_failing,
    "m_step": lambda params, series: m_step(series, e_step(params, series), params.spec),
    "m_step_singular": _fp_m_step_singular,
    "e_step": e_step,
    "e_step_underflow": lambda params, series: e_step(*underflow_case()),
    "log_likelihood": log_likelihood,
    "log_likelihood_underflow": lambda params, series: log_likelihood(*underflow_case()),
    "component_log_densities": component_log_densities,
}


class TestFloatingPointState:
    @pytest.mark.parametrize("outer", [{}, {"all": "raise"},
                                       {"over": "ignore", "invalid": "raise"}])
    @pytest.mark.parametrize("entry", sorted(FP_ENTRY_POINTS))
    def test_caller_state_is_restored(self, entry, outer, ref_params, ref_data):
        # the package changes the floating-point state only inside its own calls, also when
        # a start fails or an error is raised, and failing slices raise no FloatingPointError
        with np.errstate(**outer):
            before = np.geterr()
            try:
                FP_ENTRY_POINTS[entry](ref_params, ref_data)
            except MvarError:
                assert entry.endswith(("_underflow", "_singular", "_fail"))
            after = np.geterr()
        assert after == before
