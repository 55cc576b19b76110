import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvarkit import (
    DimensionError,
    ForecastOrigin,
    ModelSpec,
    MvarParameters,
    NotPositiveDefiniteError,
    SeriesMatrix,
    TimeIndexError,
    companion_matrices,
    component_residual,
    is_stable,
    log_likelihood,
)
from mvarkit.model import _lapack
from conftest import REF_THETA1, make_ref_params, permuted, random_spd, random_stable_params
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

    def test_omega_symmetry_is_relative_to_scale(self):
        # at data scale 1e6 an estimated omega is ~1e12: rounding leaves an
        # absolute asymmetry far above 1e-10 that is ~1e-15 relative to its size
        rng = np.random.default_rng(11)
        spec = ModelSpec(2, 3, (0, 0))
        omega = np.stack([random_spd(rng, 3), random_spd(rng, 3)]) * 1e12
        size = float(np.abs(omega[1]).max())
        omega[1, 0, 2] += 1e-15 * size
        fields = dict(spec=spec, pi=[0.5, 0.5], theta0=np.zeros((2, 3)), theta=np.zeros((2, 0, 3, 3)))
        params = MvarParameters(**fields, omega=omega)
        assert params.omega[1, 0, 2] != params.omega[1, 2, 0]
        omega[1, 0, 2] += 1e-9 * size
        with pytest.raises(NotPositiveDefiniteError, match=r"omega\[1\] is not symmetric"):
            MvarParameters(**fields, omega=omega)

    def test_omega_symmetry_is_relative_below_scale_one(self):
        # off-diagonals 1.1e-11 and 1e-12 on a 4e-12 diagonal: the lower triangle
        # is positive definite, the asymmetry is ~0.9 of the matrix's size
        spec = ModelSpec(1, 2, (0,))
        fields = dict(spec=spec, pi=[1.0], theta0=np.zeros((1, 2)), theta=np.zeros((1, 0, 2, 2)))
        with pytest.raises(NotPositiveDefiniteError, match=r"omega\[0\] is not symmetric"):
            MvarParameters(**fields, omega=[[[4e-12, 1.1e-11], [1e-12, 4e-12]]])
        params = MvarParameters(**fields, omega=[[[4e-12, 1e-12 * (1 + 1e-15)], [1e-12, 4e-12]]])
        assert params.omega[0, 0, 1] != params.omega[0, 1, 0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_omega_is_a_value_error(self, bad):
        spec = ModelSpec(2, 1, (0, 0))
        omega = np.ones((2, 1, 1))
        omega[1, 0, 0] = bad
        with pytest.raises(ValueError, match="omega has non-finite") as info:
            MvarParameters(spec=spec, pi=[0.5, 0.5], theta0=np.zeros((2, 1)),
                           theta=np.zeros((2, 0, 1, 1)), omega=omega)
        assert info.type is ValueError

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

    def test_forecast_origin_requires_finite_history(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                ForecastOrigin(history=[[bad, 0.0, 0.0]], t=0)

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
        rng = np.random.default_rng(31)
        cases = [(ref_params, ref_path, (1, 7, 123, 499))]
        for orders in ((2, 1, 0), (0, 0)):   # mixed orders; p = 0
            g, m = len(orders), 2
            mats = [[rng.normal(0.0, 0.3, size=(m, m)) for _ in range(order)] for order in orders]
            params = MvarParameters.from_component_lists(
                ModelSpec(g, m, orders), np.full(g, 1.0 / g), rng.normal(size=(g, m)), mats,
                [random_spd(rng, m) for _ in range(g)])
            cases.append((params, SeriesMatrix(rng.normal(size=(40, m))), (params.spec.p, 17, 39)))
        for params, series, times in cases:
            for t in times:
                for k, order in enumerate(params.spec.orders):
                    mats = [np.asarray(params.theta[k, i]) for i in range(order)]
                    expected = naive_residual(params.theta0[k], mats, series.values, t)
                    got = component_residual(params, series, t, k)
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
        flipped = permuted(ref_params, [1, 0])
        assert log_likelihood(flipped, ref_path) == pytest.approx(
            log_likelihood(ref_params, ref_path), abs=1e-10
        )


class TestCompanion:
    def test_scalar(self):
        assert companion_matrices(scalar_params()) == pytest.approx(np.array([[[0.5]]]))

    def test_block_structure_p2(self):
        params = MvarParameters.from_component_lists(
            ModelSpec(1, 2, (2,)), [1.0], [np.zeros(2)],
            [[0.2 * np.eye(2), 0.1 * np.eye(2)]], [np.eye(2)]
        )
        (a,) = companion_matrices(params)
        assert a.shape == (4, 4)
        assert np.array_equal(a[2:, :2], np.eye(2))      # identity on the subdiagonal
        assert np.array_equal(a[2:, 2:], np.zeros((2, 2)))
        assert np.array_equal(a[:2, :2], 0.2 * np.eye(2))
        assert np.array_equal(a[:2, 2:], 0.1 * np.eye(2))

    def test_reference_p1_is_first_lag_matrix(self, ref_params):
        assert np.array_equal(companion_matrices(ref_params)[0], REF_THETA1)

    def test_mixed_orders_pad_with_zero_blocks(self):
        params = MvarParameters.from_component_lists(
            ModelSpec(2, 1, (2, 0)), [0.5, 0.5], [[0.0], [0.0]],
            [[[[0.3]], [[0.2]]], []], [[[1.0]], [[1.0]]]
        )
        assert np.array_equal(companion_matrices(params),
                              [[[0.3, 0.2], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])

    def test_p0_has_no_companion(self):
        params = MvarParameters(spec=ModelSpec(2, 2, (0, 0)), pi=[0.5, 0.5], theta0=np.zeros((2, 2)),
                                theta=np.zeros((2, 0, 2, 2)), omega=[np.eye(2), np.eye(2)])
        assert np.array_equal(companion_matrices(params), np.zeros((2, 2, 2)))
        assert is_stable(params) == (True, 0.0)


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
        oracle = kron_spectral_radius(ref_params.pi, ref_params.theta)
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
            _, rho = is_stable(params)
            assert rho == pytest.approx(kron_spectral_radius(params.pi, params.theta), abs=1e-10)


def _stack_with_failing_slice(bad_slice):
    """A stack of four SPD (3, 3) matrices with ``bad_slice`` at index 2."""
    stack = np.stack([random_spd(np.random.default_rng(i), 3) for i in range(4)])
    stack[2] = bad_slice
    return stack


SINGULAR = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])   # rank 2
INDEFINITE = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
NAN_MATRIX = np.full((3, 3), np.nan)                                     # eigvalsh: no convergence


class TestLapackGufuncs:
    """The numpy behaviour EM and the mixture check rely on when they call ``model._lapack``.

    Under ``errstate(invalid="ignore")`` a stacked gufunc does not raise when
    one slice fails: that slice comes back all NaN and sets the "invalid"
    flag, and every other slice is bit-equal to ``np.linalg``'s result.
    """

    CASES = {   # name: (failing slice, stacked gufunc call, np.linalg on one matrix)
        "solve": (SINGULAR, lambda a: _lapack.solve(a, np.ones((4, 3, 2))),
                  lambda a: np.linalg.solve(a, np.ones((3, 2)))),
        "inv": (SINGULAR, _lapack.inv, np.linalg.inv),
        "cholesky_lo": (INDEFINITE, _lapack.cholesky_lo, np.linalg.cholesky),
        "eigvalsh_lo": (NAN_MATRIX, _lapack.eigvalsh_lo, np.linalg.eigvalsh),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_failing_slice_is_nan_and_the_rest_match_np_linalg(self, name):
        bad, stacked, one = self.CASES[name]
        stack = _stack_with_failing_slice(bad)
        with pytest.raises(np.linalg.LinAlgError):
            one(bad)
        with np.errstate(invalid="ignore"):
            out = stacked(stack)
        assert np.isnan(out[2]).all()
        for i in (0, 1, 3):
            assert np.array_equal(out[i], one(stack[i]))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_failing_slice_sets_the_invalid_flag(self, name):
        # outside an errstate that ignores "invalid" the call warns, and the suite turns
        # that RuntimeWarning into an error: a misplaced errstate fails tier-1
        bad, stacked, _ = self.CASES[name]
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            stacked(_stack_with_failing_slice(bad))
