from fractions import Fraction

import numpy as np
import pytest

from mvarkit import (
    DegenerateFrontierError,
    DimensionError,
    ForecastOrigin,
    MixtureNormal1D,
    NotPositiveDefiniteError,
    PortfolioSolution,
    efficient_weights,
    horizon_portfolio,
    markowitz_coefficients,
    mixture_cdf,
    mixture_moments,
    mvp_weights,
    predictive_one_step,
    predictive_two_step,
    project,
    scalar_mixture_moments,
    simulate_forward,
)
from mvarkit.forecasting import MAX_COMPONENTS
from conftest import (
    draw_mixture1d,
    draw_mixture_mv,
    make_portfolio_mixture,
    make_ref_params,
    random_spd,
    random_stable_params,
    regime_style_params,
    stationary_origin,
    variance_routes,
)
from oracles import companion_moments, markowitz_explicit


@pytest.fixture(scope="module")
def ref_params():
    return make_ref_params()


@pytest.fixture(scope="module")
def origin():
    return ForecastOrigin(history=np.array([[0.5, -0.8, 1.2]]), t=497)


def ks_distance(sample, mix):
    """Kolmogorov distance between an empirical sample and a mixture CDF."""
    x = np.sort(sample)
    n = len(x)
    cdf = mixture_cdf(mix, x)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return max(np.max(np.abs(cdf - ecdf_hi)), np.max(np.abs(cdf - ecdf_lo)))


class TestProject:
    def test_identity_on_scalar_mixture(self, ref_params, origin):
        mix = predictive_one_step(ref_params, origin)
        single = project(mix, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(single.means, mix.means[:, 0])
        assert np.allclose(single.sds, np.sqrt(mix.covs[:, 0, 0]))
        assert np.allclose(single.weights, mix.weights)

    def test_unit_vector_extracts_marginal(self, ref_params, origin):
        mix = predictive_one_step(ref_params, origin)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            marg = project(mix, e)
            assert np.allclose(marg.means, mix.means[:, i])
            assert np.allclose(marg.sds, np.sqrt(mix.covs[:, i, i]))

    def test_projection_matches_sampled_portfolio_returns(self, ref_params, origin):
        mix = predictive_one_step(ref_params, origin)
        w = np.array([0.5, 0.3, 0.2])
        projected = project(mix, w)
        rng = np.random.default_rng(2024)
        draws = draw_mixture_mv(rng, mix, 1_000_000) @ w
        assert ks_distance(draws, projected) < 0.005

    def test_linearity_in_weights(self, ref_params, origin):
        mix = predictive_one_step(ref_params, origin)
        w1 = np.array([1.0, 0.0, 0.0])
        w2 = np.array([0.0, 1.0, 1.0])
        combo = project(mix, 2.0 * w1 + 0.5 * w2)
        assert np.allclose(combo.means,
                           2.0 * project(mix, w1).means + 0.5 * project(mix, w2).means,
                           atol=1e-12)

    def test_length_checked(self, ref_params, origin):
        mix = predictive_one_step(ref_params, origin)
        with pytest.raises(Exception, match="length"):
            project(mix, np.ones(4))


class TestScalarMoments:
    def test_single_component(self):
        mix = MixtureNormal1D(weights=[1.0], means=[1.3], sds=[0.7], horizon=1, origin_time=0)
        mean, var = scalar_mixture_moments(mix)
        assert mean == pytest.approx(1.3)
        assert var == pytest.approx(0.49)

    def test_reference_portfolio_mixture(self):
        # direct evaluation of the mixture-moment formula on the stated
        # component parameters; the originally reported rounded sd was 1.3173
        mix = make_portfolio_mixture()
        mean, var = scalar_mixture_moments(mix)
        w, mu, sd = mix.weights, mix.means, mix.sds
        direct = w @ (sd ** 2) + w @ (mu ** 2) - (w @ mu) ** 2
        assert abs(mean) < 1e-3
        assert var == pytest.approx(direct, abs=1e-15)
        assert np.sqrt(var) == pytest.approx(1.3173217220830147, abs=1e-12)
        assert np.sqrt(var) == pytest.approx(1.3173, abs=1e-2)

    def test_variance_exact_far_from_zero(self):
        # two close means at a large offset: the raw form w.sd^2 + w.mu^2 - mean^2
        # loses every digit here (negative at 1e6)
        eps = np.finfo(float).eps
        for offset in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
            mix = MixtureNormal1D(weights=[0.5, 0.5], means=[offset, offset + 1e-3],
                                  sds=[1e-3, 1e-3], horizon=1, origin_time=0)
            w, mu, sd = ([Fraction(float(v)) for v in a] for a in (mix.weights, mix.means, mix.sds))
            mean = sum(wi * mi for wi, mi in zip(w, mu))
            var = float(sum(wi * (si * si + (mi - mean) ** 2) for wi, mi, si in zip(w, mu, sd)))
            got_mean, got_var = scalar_mixture_moments(mix)
            assert got_mean == pytest.approx(float(mean), rel=2 * eps, abs=0.0)
            # the weighted deviations sum to zero, so the rounded mean's error
            # (<= eps*|mean|) enters the variance only squared
            assert abs(got_var - var) <= (eps * offset) ** 2 + 8 * eps * var

    def test_variance_matches_sampling_oracle(self):
        mix = make_portfolio_mixture()
        _, var = scalar_mixture_moments(mix)
        rng = np.random.default_rng(11)
        draws = draw_mixture1d(rng, mix, 1_000_000)
        emp = draws.var(ddof=1)
        centered = draws - draws.mean()
        se = np.sqrt(((centered ** 2 - emp) ** 2).mean() / len(draws))
        assert abs(emp - var) < 3 * se


class TestMarkowitzCoefficients:
    def test_identity_cov_zero_mean(self):
        c = markowitz_coefficients(np.zeros(3), np.eye(3))
        assert (c.a, c.b, c.c, c.d) == (0.0, 0.0, 3.0, 0.0)

    def test_hand_computed_case(self):
        c = markowitz_coefficients(np.array([1.0, 0.0]), np.eye(2))
        assert (c.a, c.b, c.c, c.d) == pytest.approx((1.0, 1.0, 2.0, 1.0))

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            cov = random_spd(rng, 4)
            mean = rng.normal(size=4)
            c = markowitz_coefficients(mean, cov)
            a, b, cc, d, _, _ = markowitz_explicit(mean, cov)
            assert c.a == pytest.approx(a, abs=1e-10)
            assert c.b == pytest.approx(b, abs=1e-10)
            assert c.c == pytest.approx(cc, abs=1e-10)
            assert c.d == pytest.approx(d, abs=1e-10)


FRONTIER_CALLS = {
    "markowitz_coefficients": markowitz_coefficients,
    "mvp_weights": mvp_weights,
    "efficient_weights": lambda mean, cov: efficient_weights(mean, cov, target=0.3),
}


@pytest.mark.parametrize("call", FRONTIER_CALLS.values(), ids=FRONTIER_CALLS.keys())
class TestFrontierErrors:
    MEAN = np.array([0.1, -0.2, 0.3])
    COV = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 1.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["mean", "cov"])
    def test_non_finite_input(self, call, where, bad):
        mean, cov = self.MEAN.copy(), self.COV.copy()
        if where == "mean":
            mean[1] = bad
        else:
            cov[0, 2] = cov[2, 0] = bad
        with pytest.raises(ValueError) as info:
            call(mean, cov)
        assert info.type is ValueError

    def test_indefinite_cov(self, call):
        cov = self.COV.copy()
        cov[0, 1] = cov[1, 0] = 3.0
        with pytest.raises(NotPositiveDefiniteError):
            call(self.MEAN, cov)

    def test_asymmetric_cov(self, call):
        # a Cholesky factorisation reads one triangle; the other must not be ignored
        cov = self.COV.copy()
        cov[0, 1] += 0.5
        with pytest.raises(NotPositiveDefiniteError, match="not symmetric"):
            call(self.MEAN, cov)

    def test_empty_cov(self, call):
        with pytest.raises(NotPositiveDefiniteError):
            call(np.zeros(0), np.zeros((0, 0)))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (4, 4)])
    def test_shape_mismatch(self, call, shape):
        with pytest.raises(DimensionError):
            call(self.MEAN, np.eye(*shape))

    def test_mean_not_a_vector(self, call):
        with pytest.raises(DimensionError):
            call(np.zeros((2, 1)), np.eye(2))


class TestPortfolioSolution:
    FIELDS = dict(expected_return=0.0, sd=1.0, kind="mvp", horizon=1)

    def test_weights_must_be_a_finite_vector(self):
        # NaN fails no comparison, so the budget test alone lets it through
        with pytest.raises(ValueError, match="weights has non-finite"):
            PortfolioSolution(weights=[np.nan, 1.0], **self.FIELDS)
        with pytest.raises(DimensionError):
            PortfolioSolution(weights=[[0.5], [0.5]], **self.FIELDS)
        assert not PortfolioSolution(weights=[0.25, 0.75], **self.FIELDS).weights.flags.writeable


class TestMvp:
    def test_isotropic_equal_weights(self):
        sol = mvp_weights(np.array([0.5, -0.2, 0.1]), np.eye(3))
        assert np.allclose(sol.weights, 1.0 / 3.0)
        assert sol.kind == "mvp"

    def test_inverse_variance_weighting(self):
        sol = mvp_weights(np.zeros(2), np.diag([1.0, 4.0]))
        assert np.allclose(sol.weights, [0.8, 0.2])

    def test_beats_random_budget_portfolios(self):
        rng = np.random.default_rng(22)
        cov = random_spd(rng, 4)
        sol = mvp_weights(rng.normal(size=4), cov)
        base_var = sol.weights @ cov @ sol.weights
        assert sol.sd == pytest.approx(np.sqrt(base_var), abs=1e-12)
        z = rng.normal(size=(100_000, 4))
        keep = np.abs(z.sum(axis=1)) > 0.3
        candidates = z[keep] / z[keep].sum(axis=1, keepdims=True)
        cand_var = np.einsum("ij,jk,ik->i", candidates, cov, candidates)
        assert cand_var.min() >= base_var - 1e-12


class TestEfficient:
    def test_target_at_frontier_bottom_is_mvp(self):
        rng = np.random.default_rng(23)
        cov = random_spd(rng, 4)
        mean = rng.normal(size=4)
        c = markowitz_coefficients(mean, cov)
        eff = efficient_weights(mean, cov, target=c.a / c.c)
        mvp = mvp_weights(mean, cov)
        assert np.allclose(eff.weights, mvp.weights, atol=1e-10)

    def test_budget_and_target_postconditions(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            cov = random_spd(rng, 3)
            mean = rng.normal(size=3)
            target = rng.normal()
            sol = efficient_weights(mean, cov, target)
            assert abs(sol.weights.sum() - 1.0) < 1e-10
            assert sol.weights @ mean == pytest.approx(target, abs=1e-10)

    def test_frontier_variance_formula(self):
        rng = np.random.default_rng(25)
        cov = random_spd(rng, 4)
        mean = rng.normal(size=4)
        c = markowitz_coefficients(mean, cov)
        for target in rng.normal(size=100):
            sol = efficient_weights(mean, cov, target)
            predicted = (c.c * target ** 2 - 2 * c.a * target + c.b) / c.d
            assert sol.sd ** 2 == pytest.approx(predicted, abs=1e-8)

    def test_local_optimality_against_feasible_perturbations(self):
        rng = np.random.default_rng(26)
        cov = random_spd(rng, 4)
        mean = rng.normal(size=4)
        sol = efficient_weights(mean, cov, target=0.25)
        base = sol.weights @ cov @ sol.weights
        ones = np.ones(4)
        basis = np.linalg.svd(np.vstack([ones, mean]))[2][2:]   # null space of constraints
        for _ in range(200):
            delta = basis.T @ rng.normal(size=2)
            delta *= 1e-3 / np.linalg.norm(delta)
            w = sol.weights + delta
            assert w @ cov @ w >= base - 1e-15

    def test_short_selling_appears(self):
        # strongly heterogeneous means force negative weights at high targets
        sol = efficient_weights(np.array([0.1, 0.0]), np.eye(2), target=0.5)
        assert np.any(sol.weights < 0.0)
        assert abs(sol.weights.sum() - 1.0) < 1e-12

    def test_degenerate_frontier_raises(self):
        with pytest.raises(DegenerateFrontierError, match="proportional to ones"):
            efficient_weights(np.full(3, 0.2), np.eye(3), target=0.5)


class TestVarianceIdentity:
    def test_single_component_exact(self, origin):
        rng = np.random.default_rng(27)
        params = random_stable_params(rng, g=1, m=3, p=1)
        o = ForecastOrigin(history=rng.normal(size=(1, 3)), t=0)
        lhs, rhs, gap = variance_routes(params, o, rng.normal(size=3))
        assert gap < 1e-12

    def test_reference_model(self, ref_params, origin):
        _, _, gap = variance_routes(ref_params, origin,
                                    np.array([0.9, -0.4, 0.5]))
        assert gap < 1e-10

    def test_random_sweep(self):
        rng = np.random.default_rng(28)
        worst = 0.0
        for _ in range(100):
            params = random_stable_params(rng, g=int(rng.integers(1, 4)),
                                          m=int(rng.integers(1, 4)), p=1)
            m = params.spec.m
            o = ForecastOrigin(history=rng.normal(size=(1, m)), t=0)
            w = rng.normal(size=m)
            _, _, gap = variance_routes(params, o, w)
            worst = max(worst, gap)
        assert worst < 1e-8


class TestTwoStepPortfolio:
    def test_g1_reduces_to_var_markowitz(self):
        rng = np.random.default_rng(29)
        params = random_stable_params(rng, g=1, m=3, p=1)
        o = ForecastOrigin(history=rng.normal(size=(1, 3)), t=0)
        sol, rmix = horizon_portfolio(params, o, 2, target=0.1)
        mom = mixture_moments(predictive_two_step(params, o))
        direct = efficient_weights(mom.mean, mom.cov, 0.1, horizon=2)
        assert np.allclose(sol.weights, direct.weights, atol=1e-12)
        assert rmix.n_components == 1
        assert sol.horizon == 2

    def test_horizons_within_component_budget(self, ref_params, origin):
        for horizon in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                horizon_portfolio(ref_params, origin, horizon)
        # the reference model has g=2: 2^12 components fit the budget, 2^13 do not,
        # and a huge horizon is refused as fast as 13
        assert horizon_portfolio(ref_params, origin, 12)[1].n_components == MAX_COMPONENTS
        for horizon in (13, 10 ** 9):
            with pytest.raises(ValueError, match="predictive_h_step_mc"):
                horizon_portfolio(ref_params, origin, horizon)
        sol, rmix = horizon_portfolio(ref_params, origin, 3)
        mean, cov = companion_moments(ref_params.pi, ref_params.theta0, ref_params.theta,
                                      ref_params.omega, origin.history, 3)
        want = mvp_weights(mean, cov, horizon=3)
        assert rmix.n_components == 8 and sol.horizon == 3
        assert np.max(np.abs(sol.weights - want.weights)) <= 1e-12
        assert sol.sd == pytest.approx(want.sd, rel=1e-12)

    def test_mvp_flag_default(self, ref_params, origin):
        sol, rmix = horizon_portfolio(ref_params, origin, 2)
        assert sol.kind == "mvp"
        assert rmix.n_components == 4
        mean, var = scalar_mixture_moments(rmix)
        assert sol.sd == pytest.approx(np.sqrt(var), abs=1e-10)
        assert sol.expected_return == pytest.approx(mean, abs=1e-10)

    def test_projected_mixture_matches_simulated_two_step_returns(self, ref_params, origin):
        sol, rmix = horizon_portfolio(ref_params, origin, 2)
        rng = np.random.default_rng(31)
        paths = simulate_forward(ref_params, origin.history, 2, 1_000_000, rng)
        returns = paths[:, -1, :] @ sol.weights
        assert ks_distance(returns, rmix) < 0.005

    def test_uncertainty_grows_with_horizon(self):
        # regime ensembles started from their own stationary states; extreme
        # histories under wildly different AR matrices can reverse the ordering,
        # which is why the check is a 95% rate, not a theorem
        rng = np.random.default_rng(32)
        grew = 0
        for _ in range(100):
            params = regime_style_params(rng)
            o = stationary_origin(rng, params)
            mom1 = mixture_moments(predictive_one_step(params, o))
            sd1 = mvp_weights(mom1.mean, mom1.cov, horizon=1).sd
            sd2 = horizon_portfolio(params, o, 2)[0].sd
            grew += sd2 > sd1
        assert grew >= 95
