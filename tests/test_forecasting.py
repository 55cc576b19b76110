import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvarkit import (
    DimensionError,
    ForecastOrigin,
    MixtureNormalMV,
    ModelSpec,
    MomentPair,
    MvarParameters,
    NotPositiveDefiniteError,
    mixture_moments,
    predictive_h_step_mc,
    predictive_mixture,
    predictive_one_step,
    predictive_two_step,
    simulate_forward,
)
from conftest import draw_mixture_mv, make_est_params, make_ref_params, random_stable_params
from oracles import companion_moments, predictive_pairs, predictive_sequences


@pytest.fixture(scope="module")
def ref_params():
    return make_ref_params()


@pytest.fixture(scope="module")
def origin():
    return ForecastOrigin(history=np.array([[0.8, -1.1, 2.0]]), t=497)


def mixed_order_params(seed: int, g: int, m: int, orders: tuple[int, ...]) -> MvarParameters:
    """Random parameters with per-component orders (zero blocks beyond each order)."""
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(g))
    lags = [[rng.normal(0.0, 0.3, size=(m, m)) for _ in range(order)] for order in orders]
    omega = [a @ a.T + 0.5 * np.eye(m) for a in rng.normal(size=(g, m, m))]
    return MvarParameters.from_component_lists(ModelSpec(g, m, orders), pi / pi.sum(),
                                               rng.normal(0.0, 1.0, size=(g, m)), lags, omega)


def scalar_var1(theta0, theta1, omega):
    return MvarParameters.from_component_lists(
        ModelSpec(1, 1, (1,)), [1.0], [[theta0]], [[[[theta1]]]], [[[omega]]]
    )


class TestOneStep:
    def test_zero_theta_means_are_intercepts(self):
        params = MvarParameters.from_component_lists(
            ModelSpec(2, 2, (1, 1)), [0.4, 0.6], [[1.0, 2.0], [-1.0, 0.5]],
            [[np.zeros((2, 2))], [np.zeros((2, 2))]], [np.eye(2), np.eye(2)]
        )
        mix = predictive_one_step(params, ForecastOrigin(history=[[7.0, -7.0]], t=0))
        assert np.allclose(mix.means, params.theta0)
        assert np.allclose(mix.weights, [0.4, 0.6])

    @pytest.mark.parametrize("seed,g,m,orders", [(1, 1, 1, (0,)), (2, 2, 3, (2, 1)),
                                                 (3, 3, 2, (0, 1, 3)), (4, 1, 4, (2,))])
    def test_model_weights_and_covariances_bit_for_bit(self, seed, g, m, orders):
        # the origin's state is known, so h=1 adds nothing to pi and omega
        params = mixed_order_params(seed, g, m, orders)
        history = np.random.default_rng(seed).normal(size=(params.spec.p, m))
        mix = predictive_mixture(params, ForecastOrigin(history=history, t=5), 1)
        assert mix.weights.tobytes() == params.pi.tobytes()
        assert mix.covs.tobytes() == params.omega.tobytes()

    def test_g1_var_one_step(self):
        params = scalar_var1(0.3, 0.5, 2.0)
        mix = predictive_one_step(params, ForecastOrigin(history=[[4.0]], t=0))
        assert mix.n_components == 1
        assert mix.means[0, 0] == pytest.approx(0.3 + 0.5 * 4.0)
        assert mix.covs[0, 0, 0] == pytest.approx(2.0)

    def test_estimated_params_match_direct_moment_oracle(self, origin):
        params = make_est_params()
        mix = predictive_one_step(params, origin)
        mom = mixture_moments(mix)
        y = origin.history[0]
        mu_k = [params.theta0[k] + params.theta[k, 0] @ y for k in range(2)]
        mean = params.pi[0] * mu_k[0] + params.pi[1] * mu_k[1]
        cov = sum(params.pi[k] * (params.omega[k] + np.outer(mu_k[k], mu_k[k]))
                  for k in range(2)) - np.outer(mean, mean)
        assert np.allclose(mix.means, mu_k, atol=1e-14)
        assert np.allclose(mom.mean, mean, atol=1e-10)
        assert np.allclose(mom.cov, cov, atol=1e-10)

    def test_history_dimension_checked(self, ref_params):
        with pytest.raises(Exception, match="history"):
            predictive_one_step(ref_params, ForecastOrigin(history=np.zeros((2, 3)), t=5))


class TestMixtureMoments:
    def test_single_component_identity(self):
        mix = MixtureNormalMV(weights=[1.0], means=[[1.0, 2.0]],
                              covs=[[[2.0, 0.3], [0.3, 1.0]]], horizon=1, origin_time=0)
        mom = mixture_moments(mix)
        assert np.allclose(mom.mean, [1.0, 2.0])
        assert np.allclose(mom.cov, [[2.0, 0.3], [0.3, 1.0]])

    def test_symmetric_two_point_mixture(self):
        a = np.array([1.5, -0.5])
        sigma = np.array([[1.0, 0.2], [0.2, 0.8]])
        mix = MixtureNormalMV(weights=[0.5, 0.5], means=[a, -a],
                              covs=[sigma, sigma], horizon=1, origin_time=0)
        mom = mixture_moments(mix)
        assert np.allclose(mom.mean, 0.0, atol=1e-15)
        assert np.allclose(mom.cov, sigma + np.outer(a, a), atol=1e-14)

    def test_matches_sampling_oracle(self, ref_params, origin):
        mix = predictive_one_step(ref_params, origin)
        mom = mixture_moments(mix)
        rng = np.random.default_rng(123)
        draws = draw_mixture_mv(rng, mix, 1_000_000)
        se_mean = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - mom.mean) < 3 * se_mean)
        emp_cov = np.cov(draws.T)
        centered = draws - draws.mean(axis=0)
        fourth = (centered[:, :, None] ** 2 * centered[:, None, :] ** 2).mean(axis=0)
        se_cov = np.sqrt((fourth - emp_cov ** 2) / len(draws))
        assert np.all(np.abs(emp_cov - mom.cov) < 3 * se_cov)

    def test_means_far_from_zero(self):
        mix = MixtureNormalMV(weights=[0.5, 0.5], means=[[1e8, 1e8], [1e8 + 1.0, 1e8 - 1.0]],
                              covs=[0.01 * np.eye(2)] * 2, horizon=1, origin_time=0)
        mom = mixture_moments(mix)
        assert np.array_equal(mom.mean, [1e8 + 0.5, 1e8 - 0.5])
        assert np.linalg.eigvalsh(mom.cov)[0] == pytest.approx(0.01, rel=1e-12)

    @given(seed=st.integers(0, 2 ** 32 - 1), c=st.integers(1, 12), m=st.integers(1, 5),
           log_scale=st.floats(-6.0, 6.0), log_spread=st.floats(-4.0, 1.0),
           log_offset=st.one_of(st.none(), st.floats(2.0, 8.0)))
    @settings(deadline=None, derandomize=True, max_examples=200)
    def test_covariance_is_psd(self, seed, c, m, log_scale, log_spread, log_offset):
        # covariances at (10**log_scale)**2 times 10**log_spread..1, means at 10**log_scale
        # around 0 or around a common point 10**log_offset times the scale away
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        offset = 0.0 if log_offset is None else scale * 10.0 ** log_offset
        a = rng.normal(size=(c, m, m))
        covs = scale ** 2 * (a @ a.transpose(0, 2, 1) + 10.0 ** log_spread * np.eye(m))
        weights = rng.dirichlet(np.ones(c))
        mix = MixtureNormalMV(weights=weights / weights.sum(),
                              means=offset + rng.normal(0.0, scale, (c, m)),
                              covs=covs, horizon=1, origin_time=0)
        cov = mixture_moments(mix).cov
        assert np.array_equal(cov, cov.T)
        # within-component covariance bounds the smallest eigenvalue from below
        floor = float(mix.weights @ np.linalg.eigvalsh(mix.covs)[:, 0])
        assert np.linalg.eigvalsh(cov)[0] >= floor - 1e-12 * float(np.max(np.abs(cov)))

    def test_law_of_total_variance(self, ref_params, origin):
        mix = predictive_two_step(ref_params, origin)
        mom = mixture_moments(mix)
        within = np.einsum("j,jab->ab", mix.weights, mix.covs)
        between = mom.cov - within
        assert np.min(np.linalg.eigvalsh(0.5 * (between + between.T))) > -1e-10


class TestTwoStep:
    def test_scalar_var1_closed_form(self):
        th0, th1, om = 0.3, 0.6, 1.5
        params = scalar_var1(th0, th1, om)
        y_t = 2.0
        mix = predictive_two_step(params, ForecastOrigin(history=[[y_t]], t=0))
        assert mix.n_components == 1
        assert mix.means[0, 0] == pytest.approx(th0 + th1 * th0 + th1 ** 2 * y_t, abs=1e-14)
        assert mix.covs[0, 0, 0] == pytest.approx(om + th1 ** 2 * om, abs=1e-14)

    def test_zero_theta_reduces_to_static_mixture(self):
        params = MvarParameters.from_component_lists(
            ModelSpec(2, 2, (1, 1)), [0.3, 0.7], [[1.0, 0.0], [0.0, 1.0]],
            [[np.zeros((2, 2))], [np.zeros((2, 2))]],
            [np.eye(2), 2.0 * np.eye(2)]
        )
        origin = ForecastOrigin(history=[[5.0, -5.0]], t=0)
        mix2 = predictive_two_step(params, origin)
        assert mix2.n_components == 4
        # every (k, l) pair keeps component k's intercept and covariance
        for k in range(2):
            for l in range(2):
                j = k * 2 + l
                assert np.allclose(mix2.means[j], params.theta0[k])
                assert np.allclose(mix2.covs[j], params.omega[k])
        mom1 = mixture_moments(predictive_one_step(params, origin))
        mom2 = mixture_moments(mix2)
        assert np.allclose(mom1.mean, mom2.mean, atol=1e-14)
        assert np.allclose(mom1.cov, mom2.cov, atol=1e-14)

    def test_pair_ordering_not_symmetric(self, ref_params, origin):
        mix = predictive_two_step(ref_params, origin)
        assert not np.allclose(mix.means[1], mix.means[2])
        assert not np.allclose(mix.covs[1], mix.covs[2])

    def test_pair_covariance_structure(self, ref_params, origin):
        mix = predictive_two_step(ref_params, origin)
        th = ref_params.theta
        om = ref_params.omega
        for k in range(2):
            for l in range(2):
                expected = om[k] + th[k, 0] @ om[l] @ th[k, 0].T
                assert np.allclose(mix.covs[k * 2 + l], expected, atol=1e-14)

    def test_g1_p2_matches_one_step_composition(self):
        rng = np.random.default_rng(30)
        params = random_stable_params(rng, g=1, m=2, p=2)
        hist = rng.normal(size=(2, 2))
        origin = ForecastOrigin(history=hist, t=9)
        mix2 = predictive_two_step(params, origin)
        # compose one-step forecasts: mu_{t+2} = th0 + Th1 mu_{t+1} + Th2 y_t
        mu1 = (params.theta0[0] + params.theta[0, 0] @ hist[1]
               + params.theta[0, 1] @ hist[0])
        mu2 = params.theta0[0] + params.theta[0, 0] @ mu1 + params.theta[0, 1] @ hist[1]
        assert np.allclose(mix2.means[0], mu2, atol=1e-13)
        expected_cov = params.omega[0] + params.theta[0, 0] @ params.omega[0] @ params.theta[0, 0].T
        assert np.allclose(mix2.covs[0], expected_cov, atol=1e-13)

    def test_moments_match_two_step_monte_carlo(self, ref_params, origin):
        mom = mixture_moments(predictive_two_step(ref_params, origin))
        draws, emp = predictive_h_step_mc(ref_params, origin, 2, 400_000, seed=17)
        se_mean = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(emp.mean - mom.mean) < 3.5 * se_mean)
        centered = draws - emp.mean
        fourth = (centered[:, :, None] ** 2 * centered[:, None, :] ** 2).mean(axis=0)
        se_cov = np.sqrt((fourth - emp.cov ** 2) / len(draws))
        assert np.all(np.abs(emp.cov - mom.cov) < 3.5 * se_cov)


@pytest.mark.parametrize("g, m, orders", [
    (3, 4, (2, 1, 1)),   # MVAR(3;2,1,1): zero blocks at lag 2
    (2, 3, (2, 1)),
    (2, 2, (0, 1)),
    (2, 2, (0, 0)),
    (1, 3, (3,)),
])
def test_predictives_match_per_pair_oracle(g, m, orders):
    params = mixed_order_params(60 + g + m, g, m, orders)
    hist = np.random.default_rng(61).normal(0.0, 2.0, size=(params.spec.p, m))
    origin = ForecastOrigin(history=hist, t=12)
    args = (params.pi, params.theta0, params.theta, params.omega, hist)
    # h=1, 2 against the per-pair formulas, h=3 (and h=4 for g <= 2) per label sequence
    cases = list(zip((predictive_one_step(params, origin), predictive_two_step(params, origin)),
                     predictive_pairs(*args)))
    cases += [(predictive_mixture(params, origin, h), predictive_sequences(*args, h))
              for h in ((3, 4) if g <= 2 else (3,))]
    for mix, (weights, means, covs) in cases:
        for got, want in ((mix.weights, weights), (mix.means, means), (mix.covs, covs)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
    mom = mixture_moments(predictive_mixture(params, origin, 6))
    for got, want in zip((mom.mean, mom.cov), companion_moments(*args, 6)):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


class TestMonteCarloForecast:
    def test_h1_consistent_with_analytic(self, ref_params, origin):
        mom = mixture_moments(predictive_one_step(ref_params, origin))
        draws, emp = predictive_h_step_mc(ref_params, origin, 1, 1_000_000, seed=19)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(emp.mean - mom.mean) < 3 * se)

    def test_h6_moments_match_companion_recursion(self, ref_params, origin):
        mean, cov = companion_moments(ref_params.pi, ref_params.theta0, ref_params.theta,
                                      ref_params.omega, origin.history, 6)
        draws, emp = predictive_h_step_mc(ref_params, origin, 6, 200_000, seed=23)
        se_mean = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(emp.mean - mean) < 4 * se_mean)
        centered = draws - emp.mean
        fourth = (centered[:, :, None] ** 2 * centered[:, None, :] ** 2).mean(axis=0)
        se_cov = np.sqrt((fourth - emp.cov ** 2) / len(draws))
        assert np.all(np.abs(emp.cov - cov) < 4 * se_cov)

    def test_endpoints_own_their_data(self, ref_params, origin):
        draws, _ = predictive_h_step_mc(ref_params, origin, 4, 300, seed=29)
        assert draws.base is None and draws.flags.owndata
        paths = simulate_forward(ref_params, origin.history, 4, 300, np.random.default_rng(29))
        assert np.array_equal(draws, paths[:, -1, :])

    def test_deterministic_given_seed(self, ref_params, origin):
        a, _ = predictive_h_step_mc(ref_params, origin, 3, 50, seed=7)
        b, _ = predictive_h_step_mc(ref_params, origin, 3, 50, seed=7)
        assert np.array_equal(a, b)


class TestMixtureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixtureNormalMV(weights=[0.6, 0.6], means=np.zeros((2, 1)),
                            covs=np.ones((2, 1, 1)), horizon=1, origin_time=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_covs_must_be_finite(self, bad):
        covs = np.stack([np.eye(2), np.eye(2)])
        covs[1, 0, 0] = bad
        with pytest.raises(ValueError):
            MixtureNormalMV(weights=[0.5, 0.5], means=np.zeros((2, 2)), covs=covs,
                            horizon=1, origin_time=0)

    @pytest.mark.parametrize("field", ["weights", "means"])
    def test_weights_and_means_must_be_finite(self, field):
        fields = {"weights": np.array([0.5, 0.5]), "means": np.zeros((2, 2))}
        fields[field].flat[1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            MixtureNormalMV(**fields, covs=np.stack([np.eye(2)] * 2), horizon=1, origin_time=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_moment_cov_must_be_finite(self, bad):
        with pytest.raises(ValueError):
            MomentPair(mean=np.zeros(2), cov=[[1.0, 0.0], [0.0, bad]])

    def test_failing_component_is_named(self):
        covs = [np.eye(2), np.eye(2), [[1.0, 2.0], [2.0, 1.0]]]
        with pytest.raises(NotPositiveDefiniteError, match="component 2"):
            MixtureNormalMV(weights=[0.2, 0.3, 0.5], means=np.zeros((3, 2)), covs=covs,
                            horizon=1, origin_time=0)

    def test_covs_must_be_spd(self):
        with pytest.raises(NotPositiveDefiniteError):
            MixtureNormalMV(weights=[1.0], means=np.zeros((1, 2)),
                            covs=[[[1.0, 2.0], [2.0, 1.0]]], horizon=1, origin_time=0)

    def test_covs_must_be_symmetric(self):
        # cholesky reads only the lower triangle, which here is the identity
        covs = [np.eye(2), [[1.0, 5.0], [0.0, 1.0]]]
        with pytest.raises(NotPositiveDefiniteError, match="component 1 covariance is not symmetric"):
            MixtureNormalMV(weights=[0.5, 0.5], means=np.zeros((2, 2)), covs=covs,
                            horizon=1, origin_time=0)

    @pytest.mark.parametrize("shapes", [
        ((2,), (2, 2), (2, 3, 3)),     # covariances wider than the means
        ((2,), (2,), (2, 1, 1)),       # one-dimensional means
        ((2, 1), (2, 2), (2, 2, 2)),   # two-dimensional weights
        ((2,), (2, 2), (2, 2, 3)),     # non-square covariances
    ])
    def test_shapes_must_agree(self, shapes):
        w, mu, cov = shapes
        with pytest.raises(DimensionError):
            MixtureNormalMV(weights=np.full(w, 0.5), means=np.zeros(mu),
                            covs=np.broadcast_to(np.eye(*cov[1:]), cov),
                            horizon=1, origin_time=0)

    def test_moment_pair_shapes_must_agree(self):
        with pytest.raises(DimensionError):
            MomentPair(mean=np.zeros(3), cov=np.eye(2))
        with pytest.raises(DimensionError):
            MomentPair(mean=np.zeros(2), cov=np.ones((2, 3)))
        with pytest.raises(DimensionError):
            MomentPair(mean=np.zeros((2, 1)), cov=np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_moment_mean_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="mean has non-finite"):
            MomentPair(mean=[0.0, bad], cov=np.eye(2))

    def test_gross_asymmetry_rejected_at_small_scale(self):
        # the lower triangle is positive definite; the upper one is far off
        cov = np.array([[4e-12, 1.1e-11], [1e-12, 4e-12]])
        with pytest.raises(NotPositiveDefiniteError, match="component 1 covariance is not symmetric"):
            MixtureNormalMV(weights=[0.5, 0.5], means=np.zeros((2, 2)),
                            covs=[4e-12 * np.eye(2), cov], horizon=1, origin_time=0)
        with pytest.raises(NotPositiveDefiniteError, match="not symmetric"):
            MomentPair(mean=np.zeros(2), cov=cov)

    def test_zero_moment_pair_accepted(self, ref_params, origin):
        MomentPair(mean=np.zeros(2), cov=np.zeros((2, 2)))
        _, mom = predictive_h_step_mc(ref_params, origin, 2, n_paths=1, seed=3)
        assert np.array_equal(mom.cov, np.zeros((3, 3)))

    @pytest.mark.parametrize("scale", [1e6, 1e-6], ids=["1e6", "1e-6"])
    def test_moment_psd_test_is_relative(self, scale):
        # smallest eigenvalue -1e-11 against a largest entry of 1e-11: no floor lets it pass
        with pytest.raises(NotPositiveDefiniteError, match="not positive semidefinite"):
            MomentPair(mean=np.zeros(2), cov=[[1e-12, 0.0], [0.0, -1e-11]])
        MomentPair(mean=np.zeros(2), cov=np.zeros((2, 2)))
        rng = np.random.default_rng(11)
        params = random_stable_params(rng, g=3, m=4, p=2)
        scaled = MvarParameters(spec=params.spec, pi=params.pi, theta0=params.theta0 * scale,
                                theta=params.theta, omega=params.omega * scale ** 2)
        origin = ForecastOrigin(history=rng.normal(size=(2, 4)) * scale, t=1)
        mom = mixture_moments(predictive_mixture(scaled, origin, 3))
        assert np.abs(mom.cov).max() < 1e3 * scale ** 2
        # two paths in four dimensions: a rank-one sample covariance, whose zero
        # eigenvalues come out as rounding of either sign
        _, mc = predictive_h_step_mc(scaled, origin, 2, n_paths=2, seed=5)
        assert np.linalg.matrix_rank(mc.cov, tol=1e-8 * np.abs(mc.cov).max()) == 1

    @pytest.mark.parametrize("scale", [1e6, 1e-6], ids=["1e6", "1e-6"])
    @pytest.mark.parametrize("horizon", [2, 3])
    def test_kernel_output_accepted_at_scale(self, horizon, scale):
        # at data scale 1e6 the kernel's A S A' covariances differ from their
        # transposes by ~1e-3 in absolute terms, ~1e-16 relative to their size;
        # at 1e-6 the same relative rounding must pass without an absolute floor
        rng = np.random.default_rng(7)
        params = random_stable_params(rng, g=3, m=4, p=2)
        scaled = MvarParameters(spec=params.spec, pi=params.pi, theta0=params.theta0 * scale,
                                theta=params.theta, omega=params.omega * scale ** 2)
        origin = ForecastOrigin(history=rng.normal(size=(2, 4)) * scale, t=1)
        mix = predictive_mixture(scaled, origin, horizon)
        assert mix.n_components == 3 ** horizon
        assert (mix.covs != mix.covs.transpose(0, 2, 1)).any()   # rounding asymmetry is there
