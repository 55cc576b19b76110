"""The benchmark's moment recursion against the package's h=1 and h=2 mixtures.

Run with ``python -m pytest bench/test_moments.py`` from the root of the
repository. The recursion is the reference the ``mc_forecast`` gate uses at
h=10, so it must reproduce the exact analytic moments where the package has
them.
"""

from __future__ import annotations

import numpy as np
import pytest

from mvarkit import ForecastOrigin, mixture_moments, predictive_one_step, predictive_two_step

from moments import exact_moments
from workloads import random_stable_params, reference_params

TOL = 1e-12


def _cases():
    for orders, m in (((1, 1), 3), ((2, 1, 1), 4)):
        for seed in range(3):
            yield orders, m, seed


@pytest.mark.parametrize("orders,m,seed", list(_cases()))
def test_recursion_matches_analytic_mixtures(orders, m, seed):
    rng = np.random.default_rng(seed)
    params = random_stable_params(rng, m, orders)
    origin = ForecastOrigin(history=rng.normal(size=(params.spec.p, m)), t=10)
    args = (params.pi, params.theta0, params.theta, params.omega, origin.history)
    for horizon, predictive in ((1, predictive_one_step), (2, predictive_two_step)):
        mean, cov = exact_moments(*args, horizon)
        expected = mixture_moments(predictive(params, origin))
        assert np.max(np.abs(mean - expected.mean)) <= TOL
        assert np.max(np.abs(cov - expected.cov)) <= TOL


def test_recursion_on_reference_model():
    params = reference_params()
    origin = ForecastOrigin(history=[[0.3, -1.2, 2.0]], t=0)
    args = (params.pi, params.theta0, params.theta, params.omega, origin.history)
    for horizon, predictive in ((1, predictive_one_step), (2, predictive_two_step)):
        mean, cov = exact_moments(*args, horizon)
        expected = mixture_moments(predictive(params, origin))
        assert np.max(np.abs(mean - expected.mean)) <= TOL
        assert np.max(np.abs(cov - expected.cov)) <= TOL


def test_recursion_reaches_the_stationary_moments():
    # far from the origin the moments forget the history
    params = reference_params()
    args = (params.pi, params.theta0, params.theta, params.omega)
    mean_a, cov_a = exact_moments(*args, [[5.0, -5.0, 5.0]], 400)
    mean_b, cov_b = exact_moments(*args, [[-3.0, 1.0, 0.0]], 400)
    assert np.allclose(mean_a, mean_b, atol=1e-9)
    assert np.allclose(cov_a, cov_b, atol=1e-9)
