import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvarkit import (
    DimensionError,
    ModelSpec,
    MvarParameters,
    NotPositiveDefiniteError,
    SeriesMatrix,
    TimeIndexError,
    companion_matrix,
    component_residual,
    is_stable,
    log_likelihood,
)
from conftest import REF_THETA1, make_ref_params, random_stable_params
from oracles import kron_spectral_radius, naive_log_likelihood, naive_residual


def scalar_params(theta0=0.0, theta1=0.5, omega=1.0):
    return MvarParameters.from_component_lists(
        ModelSpec(1, 1, (1,)), [1.0], [[theta0]], [[[[theta1]]]], [[[omega]]]
    )


class TestValidation:
    def test_spec_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ModelSpec(0, 1, ())
        with pytest.raises(ValueError):
            ModelSpec(1, 0, (1,))
        with pytest.raises(DimensionError):
            ModelSpec(2, 1, (1,))
        with pytest.raises(ValueError):
            ModelSpec(1, 1, (-1,))

    def test_weights_must_sum_to_one(self):
        spec = ModelSpec(2, 1, (0, 0))
        with pytest.raises(ValueError, match="sum to 1"):
            MvarParameters(spec=spec, pi=[0.6, 0.5], theta0=[[0.0], [0.0]],
                           theta=np.zeros((2, 0, 1, 1)), omega=np.ones((2, 1, 1)))
        with pytest.raises(ValueError, match="positive"):
            MvarParameters(spec=spec, pi=[1.0, 0.0], theta0=[[0.0], [0.0]],
                           theta=np.zeros((2, 0, 1, 1)), omega=np.ones((2, 1, 1)))

    @pytest.mark.parametrize("field", ["pi", "theta0", "theta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, field, bad):
        spec = ModelSpec(2, 1, (1, 1))
        fields = dict(pi=np.array([0.5, 0.5]), theta0=np.zeros((2, 1)),
                      theta=np.full((2, 1, 1, 1), 0.2), omega=np.ones((2, 1, 1)))
        fields[field].flat[0] = bad
        with pytest.raises(ValueError, match=f"{field} has non-finite"):
            MvarParameters(spec=spec, **fields)

    def test_omega_must_be_spd(self):
        spec = ModelSpec(1, 2, (0,))
        with pytest.raises(NotPositiveDefiniteError):
            MvarParameters(spec=spec, pi=[1.0], theta0=[[0.0, 0.0]],
                           theta=np.zeros((1, 0, 2, 2)),
                           omega=[[[1.0, 2.0], [2.0, 1.0]]])     # eigenvalues -1, 3
        with pytest.raises(NotPositiveDefiniteError, match="symmetric"):
            MvarParameters(spec=spec, pi=[1.0], theta0=[[0.0, 0.0]],
                           theta=np.zeros((1, 0, 2, 2)),
                           omega=[[[1.0, 0.5], [0.2, 1.0]]])

    def test_padding_beyond_component_order_must_be_zero(self):
        spec = ModelSpec(2, 1, (1, 0))       # component 2 has order 0, p = 1
        theta = np.zeros((2, 1, 1, 1))
        theta[1, 0, 0, 0] = 0.3              # illegal: beyond p_2
        with pytest.raises(ValueError, match="zero block"):
            MvarParameters(spec=spec, pi=[0.5, 0.5], theta0=[[0.0], [0.0]],
                           theta=theta, omega=np.ones((2, 1, 1)))

    def test_series_requires_finite_2d(self):
        with pytest.raises(ValueError):
            SeriesMatrix([[np.nan], [1.0]])
        with pytest.raises(DimensionError):
            SeriesMatrix([1.0, 2.0])

    def test_values_are_read_only(self, ref_params):
        with pytest.raises(ValueError):
            ref_params.pi[0] = 0.5
        s = SeriesMatrix([[1.0], [2.0]])
        with pytest.raises(ValueError):
            s.values[0, 0] = 9.0


class TestResidual:
    def test_zero_theta_returns_observation(self):
        params = MvarParameters.from_component_lists(
            ModelSpec(1, 2, (1,)), [1.0], [[0.0, 0.0]],
            [[np.zeros((2, 2))]], [np.eye(2)]
        )
        series = SeriesMatrix([[0.0, 0.0], [1.0, 2.0]])
        assert np.allclose(component_residual(params, series, 1, 0), [1.0, 2.0])

    def test_scalar_ar_case(self):
        series = SeriesMatrix([[2.0], [3.0]])
        e = component_residual(scalar_params(), series, 1, 0)
        assert e.shape == (1,)
        assert e[0] == pytest.approx(2.0, abs=1e-15)   # 3 - 0.5 * 2

    def test_matches_brute_force_oracle(self, ref_params, ref_path):
        y = ref_path.values
        mats = {0: [np.asarray(ref_params.theta[0, 0])], 1: [np.asarray(ref_params.theta[1, 0])]}
        for t in (1, 7, 123, 499):
            for k in (0, 1):
                expected = naive_residual(ref_params.theta0[k], mats[k], y, t)
                got = component_residual(ref_params, ref_path, t, k)
                assert np.allclose(got, expected, atol=1e-14)

    def test_index_and_dimension_errors(self, ref_params, ref_path):
        with pytest.raises(TimeIndexError):
            component_residual(ref_params, ref_path, 0, 0)      # t < p
        with pytest.raises(TimeIndexError):
            component_residual(ref_params, ref_path, ref_path.n, 0)
        with pytest.raises(TimeIndexError):
            component_residual(ref_params, ref_path, 5, 2)      # no such component
        short = SeriesMatrix(np.zeros((10, 2)))
        with pytest.raises(DimensionError):
            component_residual(ref_params, short, 5, 0)

    @given(delta=st.floats(-50, 50))
    @settings(deadline=None, derandomize=True)
    def test_linear_in_current_observation(self, delta):
        base = SeriesMatrix([[2.0], [3.0]])
        shifted = SeriesMatrix([[2.0], [3.0 + delta]])
        params = scalar_params()
        e0 = component_residual(params, base, 1, 0)
        e1 = component_residual(params, shifted, 1, 0)
        assert e1[0] - e0[0] == pytest.approx(delta, abs=1e-9)


class TestLogLikelihood:
    def test_two_standard_normal_points(self):
        # p=0 scores both points; each contributes -log(2 pi)/2
        params = MvarParameters(spec=ModelSpec(1, 1, (0,)), pi=[1.0], theta0=[[0.0]],
                                theta=np.zeros((1, 0, 1, 1)), omega=[[[1.0]]])
        series = SeriesMatrix([[0.0], [0.0]])
        assert log_likelihood(params, series) == pytest.approx(-1.8378770664093453, abs=1e-12)

    def test_identical_components_collapse_to_single(self, ref_path):
        single = MvarParameters.from_component_lists(
            ModelSpec(1, 3, (1,)), [1.0], [np.zeros(3)], [[REF_THETA1]], [np.eye(3)]
        )
        double = MvarParameters.from_component_lists(
            ModelSpec(2, 3, (1, 1)), [0.3, 0.7], np.zeros((2, 3)),
            [[REF_THETA1], [REF_THETA1]], [np.eye(3), np.eye(3)]
        )
        assert log_likelihood(double, ref_path) == pytest.approx(
            log_likelihood(single, ref_path), abs=1e-9
        )

    def test_matches_naive_double_loop(self, ref_params, ref_path):
        expected = naive_log_likelihood(
            ref_params.pi, ref_params.theta0, ref_params.theta, ref_params.omega,
            ref_path.values, ref_params.spec.p,
        )
        assert log_likelihood(ref_params, ref_path) == pytest.approx(expected, abs=1e-8)

    def test_requires_enough_observations(self, ref_params):
        with pytest.raises(ValueError, match="p\\+1"):
            log_likelihood(ref_params, SeriesMatrix(np.zeros((1, 3))))

    def test_permutation_invariance(self, ref_params, ref_path):
        flipped = ref_params.permuted([1, 0])
        assert log_likelihood(flipped, ref_path) == pytest.approx(
            log_likelihood(ref_params, ref_path), abs=1e-10
        )


class TestCompanion:
    def test_scalar(self):
        assert companion_matrix(scalar_params(), 0) == pytest.approx(np.array([[0.5]]))

    def test_block_structure_p2(self):
        params = MvarParameters.from_component_lists(
            ModelSpec(1, 2, (2,)), [1.0], [np.zeros(2)],
            [[0.2 * np.eye(2), 0.1 * np.eye(2)]], [np.eye(2)]
        )
        a = companion_matrix(params, 0)
        assert a.shape == (4, 4)
        assert np.array_equal(a[2:, :2], np.eye(2))      # identity on the subdiagonal
        assert np.array_equal(a[2:, 2:], np.zeros((2, 2)))
        assert np.array_equal(a[:2, :2], 0.2 * np.eye(2))
        assert np.array_equal(a[:2, 2:], 0.1 * np.eye(2))

    def test_reference_p1_is_first_lag_matrix(self, ref_params):
        assert np.array_equal(companion_matrix(ref_params, 0), REF_THETA1)

    def test_p0_has_no_companion(self):
        params = MvarParameters(spec=ModelSpec(1, 1, (0,)), pi=[1.0], theta0=[[0.0]],
                                theta=np.zeros((1, 0, 1, 1)), omega=[[[1.0]]])
        with pytest.raises(ValueError):
            companion_matrix(params, 0)


class TestStability:
    def test_zero_theta_is_nilpotent(self):
        params = scalar_params(theta1=0.0)
        stable, rho = is_stable(params)
        assert stable and rho == pytest.approx(0.0, abs=1e-14)

    def test_unit_root_not_stable(self):
        stable, rho = is_stable(scalar_params(theta1=1.0))
        assert not stable
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_reference_matches_kron_oracle(self, ref_params):
        stable, rho = is_stable(ref_params)
        oracle = kron_spectral_radius(
            ref_params.pi,
            [companion_matrix(ref_params, 0), companion_matrix(ref_params, 1)],
        )
        assert stable
        assert rho == pytest.approx(oracle, abs=1e-10)

    @given(theta=st.floats(-1.4, 1.4))
    @settings(deadline=None, derandomize=True)
    def test_scalar_radius_is_theta_squared(self, theta):
        _, rho = is_stable(scalar_params(theta1=theta))
        assert rho == pytest.approx(theta * theta, abs=1e-12)

    def test_random_models_match_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            params = random_stable_params(rng, g=2, m=2, p=2)
            comps = [companion_matrix(params, k) for k in range(2)]
            _, rho = is_stable(params)
            assert rho == pytest.approx(kron_spectral_radius(params.pi, comps), abs=1e-10)
