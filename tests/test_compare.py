import numpy as np
import pytest

from mvarkit import (
    InitStrategy,
    ModelSpec,
    SeriesMatrix,
    SimulationConfig,
    evaluate_holdout,
    rolling_origin_crps,
    simulate,
)
from conftest import make_ref_params, params_allclose


@pytest.fixture(scope="module")
def series():
    return simulate(SimulationConfig(params=make_ref_params(), n=300, seed=70)).series


def test_identical_specs_produce_identical_rows(series):
    specs = [ModelSpec(2, 3, (1, 1)), ModelSpec(2, 3, (1, 1))]
    report, _ = evaluate_holdout(series, specs, model_ids=["a", "b"],
                                 init=InitStrategy(n_starts=3, seed=1))
    by_model = {}
    for row in report.rows:
        by_model.setdefault(row.model_id, []).append(row)
    for ra, rb in zip(by_model["a"], by_model["b"]):
        assert (ra.mean, ra.sd, ra.var, ra.es, ra.crps, ra.realized) == \
               (rb.mean, rb.sd, rb.var, rb.es, rb.crps, rb.realized)


def test_rows_cover_each_model_and_horizon(series):
    specs = [ModelSpec(2, 3, (1, 1)), ModelSpec(1, 3, (1,))]
    report, fits = evaluate_holdout(series, specs, init=InitStrategy(n_starts=2, seed=2))
    assert [(r.model_id, r.horizon) for r in report.rows] == [
        ("MVAR(2;1,1)", 1), ("MVAR(2;1,1)", 2), ("MVAR(1;1)", 1), ("MVAR(1;1)", 2),
    ]
    assert all(f is not None for f in fits)
    assert all(r.crps >= 0.0 for r in report.rows)


def test_holdout_never_leaks_into_training(series):
    specs = [ModelSpec(1, 3, (1,))]
    init = InitStrategy(n_starts=2, seed=3)
    _, fits = evaluate_holdout(series, specs, init=init)
    perturbed = series.values.copy()
    perturbed[-2:] += 123.0              # sentinel: only holdout rows move
    _, fits_perturbed = evaluate_holdout(SeriesMatrix(perturbed), specs, init=init)
    assert params_allclose(fits[0].params, fits_perturbed[0].params, atol=0.0)


def test_holdout_targets_are_last_two_rows(series):
    specs = [ModelSpec(1, 3, (1,))]
    report, fits = evaluate_holdout(series, specs, init=InitStrategy(n_starts=1, seed=4))
    assert report.origin_time == series.n - 3
    # the realized h=1 return must be the model's own MVP weights applied to
    # the first held-out row
    from mvarkit import ForecastOrigin, mixture_moments, mvp_weights, predictive_one_step

    train = SeriesMatrix(series.values[:-2])
    mix = predictive_one_step(fits[0].params, ForecastOrigin.from_series(train, 1))
    mom = mixture_moments(mix)
    sol = mvp_weights(mom.mean, mom.cov)
    assert report.rows[0].realized == pytest.approx(float(sol.weights @ series.values[-2]))
    assert report.rows[1].realized != report.rows[0].realized


def test_failed_model_annotated_run_continues(series):
    specs = [ModelSpec(1, 3, (250,)), ModelSpec(1, 3, (1,))]
    report, fits = evaluate_holdout(series, specs, init=InitStrategy(n_starts=1, seed=5))
    assert fits[0] is None and fits[1] is not None
    failed = [r for r in report.rows if r.model_id == "MVAR(1;250)"]
    assert len(failed) == 2 and all(r.error for r in failed)
    ok = [r for r in report.rows if r.model_id == "MVAR(1;1)"]
    assert all(r.error is None for r in ok)


def test_rolling_origin_crps_shape_and_determinism(series):
    specs = [ModelSpec(1, 3, (1,))]
    a = rolling_origin_crps(series, specs, n_origins=5, train_length=200,
                            init=InitStrategy(n_starts=1, seed=6), refit_interval=2)
    b = rolling_origin_crps(series, specs, n_origins=5, train_length=200,
                            init=InitStrategy(n_starts=1, seed=6), refit_interval=2)
    assert a.shape == (5, 1, 2)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0)


def test_holdout_needs_a_spec(series):
    with pytest.raises(ValueError, match="specs must be nonempty"):
        evaluate_holdout(series, [])


BAD_LIMITS = [({"max_iter": -1}, "max_iter must be >= 0"),
              ({"tol": float("nan")}, "tol must be finite and >= 0"),
              ({"tol": -1.0}, "tol must be finite and >= 0")]


@pytest.mark.parametrize("limits, message", BAD_LIMITS)
def test_holdout_rejects_bad_em_limits(series, limits, message):
    # an argument error is the caller's, not a failed row per model
    with pytest.raises(ValueError, match=message):
        evaluate_holdout(series, [ModelSpec(1, 3, (1,)), ModelSpec(2, 3, (1, 1))], **limits)


@pytest.mark.parametrize("alpha", [1.5, 0.0, 1.0, float("nan")])
def test_holdout_rejects_bad_alpha_before_any_fit(series, alpha, monkeypatch):
    # not NaN rows after fitting every model
    import mvarkit.compare

    fits = []
    monkeypatch.setattr(mvarkit.compare, "em_fit", lambda *a, **k: fits.append(a))
    with pytest.raises(ValueError) as err:
        evaluate_holdout(series, [ModelSpec(1, 3, (1,))], alpha=alpha)
    assert str(err.value) == f"alpha must be in (0,1), got {alpha}" and fits == []


@pytest.mark.parametrize("limits, message", BAD_LIMITS)
def test_rolling_origin_rejects_bad_em_limits(series, limits, message):
    # not an all-NaN array with no message
    with pytest.raises(ValueError, match=message):
        rolling_origin_crps(series, [ModelSpec(1, 3, (1,))], n_origins=2, train_length=100,
                            **limits)


@pytest.mark.parametrize("counts, message", [
    ({"n_origins": 0}, "n_origins must be >= 1, got 0"),
    ({"n_origins": -1}, "n_origins must be >= 1, got -1"),
    ({"train_length": 0}, "train_length must be >= 1, got 0"),
    ({"train_length": -5}, "train_length must be >= 1, got -5"),
])
def test_rolling_origin_rejects_bad_counts_before_any_fit(series, counts, message, monkeypatch):
    # not an all-NaN array with no message, nor numpy's "negative dimensions" error
    import mvarkit.compare

    fits = []
    monkeypatch.setattr(mvarkit.compare, "em_fit", lambda *a, **k: fits.append(a))
    kwargs = {"n_origins": 2, "train_length": 100, **counts}
    with pytest.raises(ValueError) as err:
        rolling_origin_crps(series, [ModelSpec(1, 3, (1,))], **kwargs)
    assert str(err.value) == message and fits == []


def test_rolling_origin_needs_enough_data(series):
    with pytest.raises(ValueError, match="too short"):
        rolling_origin_crps(series, [ModelSpec(1, 3, (1,))], n_origins=200,
                            train_length=200)


def test_rolling_sweep_records_nan_for_a_failed_refit():
    # one training window is constant, so the Gaussian fit collapses there only
    train, n_origins = 30, 5
    values = np.random.default_rng(71).normal(size=(train + n_origins + 2, 1))
    bad_origin = 2
    t_bad = values.shape[0] - 2 - n_origins + bad_origin
    values[t_bad - train + 1: t_bad + 1] = 0.25
    out = rolling_origin_crps(SeriesMatrix(values), [ModelSpec(1, 1, (0,))],
                              n_origins=n_origins, train_length=train,
                              init=InitStrategy(n_starts=1, seed=0))
    assert np.all(np.isnan(out[bad_origin]))
    others = np.delete(out, bad_origin, axis=0)
    assert np.all(np.isfinite(others)) and np.all(others >= 0.0)
