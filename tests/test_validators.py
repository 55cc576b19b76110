"""The value-type validators against plain predicates, on random values with one injected fault.

Each predicate below restates a class's contract with Python loops and no
package code. A constructor must raise exactly the class the predicate names,
and accept every value the predicate accepts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvarkit import (MixtureNormal1D, MixtureNormalMV, ModelSpec, MomentPair, MvarParameters,
                     NotPositiveDefiniteError)

SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12

WEIGHT_FAULTS = ["zero_weight", "negative_weight", "weight_sum"]
COV_FAULTS = ["asymmetric", "indefinite"]
NON_FINITE = [np.nan, np.inf, -np.inf]


def all_finite(a) -> bool:
    return all(np.isfinite(v) for v in np.ravel(a))


def weights_fault(w) -> bool:
    return not all_finite(w) or any(v <= 0.0 for v in w) or abs(sum(w) - 1.0) > WEIGHT_SUM_TOL


def asymmetric(cov) -> bool:
    m = len(cov)
    gap = max((abs(cov[i][j] - cov[j][i]) for i in range(m) for j in range(m)), default=0.0)
    size = max((abs(cov[i][j]) for i in range(m) for j in range(m)), default=0.0)
    return gap > SYMMETRY_TOL * size


def lower_eigenvalues(cov) -> np.ndarray:
    """Eigenvalues of the symmetric matrix that the lower triangle of ``cov`` defines."""
    low = np.tril(cov)
    return np.linalg.eigvalsh(low + np.tril(low, -1).T)


def expected_mv(weights, means, covs):
    if not (all_finite(weights) and all_finite(means)) or weights_fault(weights):
        return ValueError
    if not all_finite(covs):
        return ValueError
    if any(asymmetric(c) for c in covs) or any(lower_eigenvalues(c)[0] <= 0.0 for c in covs):
        return NotPositiveDefiniteError
    return None


def expected_params(pi, theta0, theta, omega):
    if weights_fault(pi) or not (all_finite(theta0) and all_finite(theta) and all_finite(omega)):
        return ValueError
    if any(asymmetric(c) for c in omega) or any(lower_eigenvalues(c)[0] <= 0.0 for c in omega):
        return NotPositiveDefiniteError
    return None


def expected_moment_pair(mean, cov):
    if not (all_finite(mean) and all_finite(cov)):
        return ValueError
    size = float(np.abs(cov).max())
    if asymmetric(cov) or lower_eigenvalues(cov)[0] < -PSD_TOL * size:
        return NotPositiveDefiniteError
    return None


def expected_1d(weights, means, sds):
    if not (all_finite(weights) and all_finite(means) and all_finite(sds)):
        return ValueError
    if weights_fault(weights) or any(v <= 0.0 for v in sds):
        return ValueError
    return None


def clean_covs(rng, c, m, scale):
    a = rng.normal(size=(c, m, m))
    covs = a @ a.transpose(0, 2, 1) + 0.3 * np.eye(m)
    return scale * 0.5 * (covs + covs.transpose(0, 2, 1))


def inject_weights(rng, w, fault):
    k = int(rng.integers(len(w)))
    if fault == "zero_weight":
        w[k] = 0.0
    elif fault == "negative_weight":
        w[k] = -rng.uniform(1e-9, 0.5)
    else:   # the sum off by far more than rounding
        w *= 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11.0, -0.5)
    if fault != "weight_sum" and len(w) > 1:
        rest = np.arange(len(w)) != k
        w[rest] *= (1.0 - w[k]) / w[rest].sum()


def inject_cov(rng, cov, fault, scale):
    m = cov.shape[0]
    if fault == "asymmetric":
        # upper triangle only: a Cholesky factorisation sees the clean lower one
        i, j = sorted(rng.choice(m, size=2, replace=False))
        cov[i, j] += rng.choice([-1.0, 1.0]) * scale * 10.0 ** rng.uniform(-9.0, 0.0)
    else:
        cov -= 2.0 * np.linalg.eigvalsh(cov)[-1] * np.eye(m)


def check(expected, build):
    if expected is None:
        build()
        return
    with pytest.raises(Exception) as info:
        build()
    assert info.type is expected, f"raised {info.type.__name__}, predicate says {expected.__name__}"


common = dict(seed=st.integers(0, 2 ** 32 - 1), c=st.integers(1, 5), m=st.integers(1, 4),
              log_scale=st.integers(-4, 12))


@given(**common, fault=st.sampled_from([None, "non_finite"] + WEIGHT_FAULTS + COV_FAULTS),
       field=st.sampled_from(["weights", "means", "covs"]))
@settings(deadline=None, derandomize=True, max_examples=400)
def test_mixture_normal_mv(seed, c, m, log_scale, fault, field):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    if fault == "asymmetric":
        m = max(m, 2)
    w = rng.dirichlet(np.ones(c))
    fields = {"weights": w / w.sum(), "means": rng.normal(0.0, scale ** 0.5, (c, m)),
              "covs": clean_covs(rng, c, m, scale)}
    if fault == "non_finite":
        fields[field].flat[int(rng.integers(fields[field].size))] = rng.choice(NON_FINITE)
    elif fault in WEIGHT_FAULTS:
        inject_weights(rng, fields["weights"], fault)
    elif fault in COV_FAULTS:
        inject_cov(rng, fields["covs"][int(rng.integers(c))], fault, scale)
    check(expected_mv(**fields),
          lambda: MixtureNormalMV(**fields, horizon=1, origin_time=0))


@given(**common, p=st.integers(0, 2),
       fault=st.sampled_from([None, "non_finite"] + WEIGHT_FAULTS + COV_FAULTS),
       field=st.sampled_from(["pi", "theta0", "theta", "omega"]))
@settings(deadline=None, derandomize=True, max_examples=400)
def test_mvar_parameters(seed, c, m, log_scale, p, fault, field):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    if fault == "asymmetric":
        m = max(m, 2)
    if fault == "non_finite" and field == "theta":
        p = max(p, 1)      # a p=0 theta has no entry to corrupt
    w = rng.dirichlet(np.ones(c))
    fields = {"pi": w / w.sum(), "theta0": rng.normal(0.0, scale ** 0.5, (c, m)),
              "theta": rng.normal(0.0, 0.3, (c, p, m, m)), "omega": clean_covs(rng, c, m, scale)}
    if fault == "non_finite":
        fields[field].flat[int(rng.integers(fields[field].size))] = rng.choice(NON_FINITE)
    elif fault in WEIGHT_FAULTS:
        inject_weights(rng, fields["pi"], fault)
    elif fault in COV_FAULTS:
        inject_cov(rng, fields["omega"][int(rng.integers(c))], fault, scale)
    check(expected_params(**fields),
          lambda: MvarParameters(spec=ModelSpec(c, m, (p,) * c), **fields))


@given(**common, fault=st.sampled_from([None, "non_finite"] + COV_FAULTS),
       field=st.sampled_from(["mean", "cov"]))
@settings(deadline=None, derandomize=True, max_examples=300)
def test_moment_pair(seed, c, m, log_scale, fault, field):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    if fault == "asymmetric":
        m = max(m, 2)
    fields = {"mean": rng.normal(0.0, scale ** 0.5, m), "cov": clean_covs(rng, 1, m, scale)[0]}
    if fault == "non_finite":
        fields[field].flat[int(rng.integers(fields[field].size))] = rng.choice(NON_FINITE)
    elif fault in COV_FAULTS:
        inject_cov(rng, fields["cov"], fault, scale)
    check(expected_moment_pair(**fields), lambda: MomentPair(**fields))


@given(**common, fault=st.sampled_from([None, "non_finite", "nonpositive_sd"] + WEIGHT_FAULTS),
       field=st.sampled_from(["weights", "means", "sds"]))
@settings(deadline=None, derandomize=True, max_examples=400)
def test_mixture_normal_1d(seed, c, m, log_scale, fault, field):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** (log_scale / 2)
    w = rng.dirichlet(np.ones(c))
    fields = {"weights": w / w.sum(), "means": rng.normal(0.0, scale, c),
              "sds": scale * rng.uniform(0.1, 2.0, c)}
    if fault == "non_finite":
        fields[field][int(rng.integers(c))] = rng.choice(NON_FINITE)
    elif fault == "nonpositive_sd":
        fields["sds"][int(rng.integers(c))] *= -rng.uniform(0.0, 1.0)
    elif fault in WEIGHT_FAULTS:
        inject_weights(rng, fields["weights"], fault)
    check(expected_1d(**fields), lambda: MixtureNormal1D(**fields, horizon=1, origin_time=0))
