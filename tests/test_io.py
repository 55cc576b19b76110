import csv
import io as stdio
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvarkit import (DataFormatError, ModelFileError, ModelSpec, MvarParameters, SeriesMatrix,
                     returns_from_prices)
from mvarkit import io as mio
from conftest import make_portfolio_mixture, make_ref_params


class TestReturns:
    def test_single_step_return(self):
        table = mio.PriceTable(dates=("2020-01-01", "2020-01-02"), names=("a",),
                               prices=[[100.0], [110.0]])
        series = returns_from_prices(table)
        assert series.n == 1
        assert series.values[0, 0] == pytest.approx(0.10)

    def test_constant_prices_give_zero_returns(self):
        table = mio.PriceTable(dates=("2020-01-01", "2020-01-02", "2020-01-03"),
                               names=("a", "b"), prices=np.full((3, 2), 42.0))
        assert np.all(returns_from_prices(table).values == 0.0)

    def test_compounding_recovers_prices(self):
        rng = np.random.default_rng(50)
        prices = np.exp(rng.normal(0, 0.02, size=(40, 3)).cumsum(axis=0)) * 50.0
        table = mio.PriceTable(dates=tuple(mio.synthetic_dates(40)), names=("a", "b", "c"),
                               prices=prices)
        rets = returns_from_prices(table).values
        rebuilt = np.cumprod(1.0 + rets, axis=0)
        assert np.allclose(rebuilt, prices[1:] / prices[0], rtol=1e-12)

    def test_nonpositive_prices_rejected(self):
        with pytest.raises(DataFormatError, match="positive"):
            mio.PriceTable(dates=("2020-01-01", "2020-01-02"), names=("a",),
                           prices=[[100.0], [0.0]])

    def test_non_ascending_dates_rejected(self):
        with pytest.raises(DataFormatError, match="increasing"):
            mio.PriceTable(dates=("2020-01-02", "2020-01-01"), names=("a",),
                           prices=[[1.0], [2.0]])


class TestCsvReader:
    def read(self, text):
        return mio._read_csv_stream(stdio.StringIO(text))

    def test_parses_values_exactly(self):
        text = "date,a,b\n2020-01-01,0.1,-0.25\n2020-01-02,0.3,0.125\n"
        dates, names, values, dropped = self.read(text)
        assert names == ["a", "b"]
        assert dropped == 0
        assert np.array_equal(values, [[0.1, -0.25], [0.3, 0.125]])

    def test_missing_cells_dropped_and_counted(self):
        text = ("date,a\n2020-01-01,1.0\n2020-01-02,\n2020-01-03,nan\n"
                "2020-01-04,2.0\n")
        dates, _, values, dropped = self.read(text)
        assert dropped == 2
        assert dates == ["2020-01-01", "2020-01-04"]
        assert values.shape == (2, 1)

    @pytest.mark.parametrize("token", ["NA", " null ", "None", "NaN"])
    def test_missing_tokens_drop_the_row(self, token):
        dates, _, values, dropped = self.read(f"date,a,b\n2020-01-01,1.0,{token}\n2020-01-02,2.0,3.0\n")
        assert dropped == 1
        assert dates == ["2020-01-02"]
        assert np.array_equal(values, [[2.0, 3.0]])

    def test_infinite_rows_dropped_and_counted(self):
        text = "date,a\n2020-01-01,inf\n2020-01-02,1.5\n2020-01-03,-inf\n"
        dates, _, values, dropped = self.read(text)
        assert dropped == 2
        assert dates == ["2020-01-02"]
        assert np.array_equal(values, [[1.5]])

    def test_missing_token_beats_non_numeric_cell(self):
        dates, _, _, dropped = self.read("date,a,b\n2020-01-01,abc,NA\n2020-01-02,1.0,2.0\n")
        assert dropped == 1
        assert dates == ["2020-01-02"]

    def test_wrong_cell_count_names_the_line(self):
        with pytest.raises(DataFormatError, match="line 3: expected 3 cells, got 2"):
            self.read("date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,1.0\n")

    def test_blank_lines_skipped(self):
        text = "date,a\n\n2020-01-01,1.0\n,\n  ,  \n2020-01-02,2.0\n"
        dates, _, values, dropped = self.read(text)
        assert dropped == 0
        assert dates == ["2020-01-01", "2020-01-02"]
        assert np.array_equal(values, [[1.0], [2.0]])

    @pytest.mark.parametrize("body", ["2020-01-01,NA\n2020-01-02,inf\n", "\n"])
    def test_no_complete_rows_raises(self, body):
        with pytest.raises(DataFormatError, match="no complete data rows"):
            self.read("date,a\n" + body)

    def test_requires_date_header(self):
        with pytest.raises(DataFormatError, match="date"):
            self.read("time,a\n2020-01-01,1.0\n")

    def test_non_numeric_cell_raises(self):
        with pytest.raises(DataFormatError, match="non-numeric"):
            self.read("date,a\n2020-01-01,abc\n")

    def test_bad_date_raises(self):
        with pytest.raises(DataFormatError, match="ISO-8601"):
            self.read("date,a\n01/02/2020,1.0\n")

    def test_series_csv_roundtrip_is_exact(self):
        rng = np.random.default_rng(51)
        series = SeriesMatrix(rng.normal(size=(25, 2)))
        text = mio.format_series_csv(series)
        _, _, values, _ = self.read(text)
        assert np.array_equal(values, series.values)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 9])
    def test_series_csv_bytes_equal_csv_writer(self, m, n):
        """The joined rows equal ``csv.writer`` with ``repr(float(v))`` cells, byte for byte."""
        special = [-0.0, 5e-324, 0.1, 1e16, 1e300, -1e300, 1e-300]
        rng = np.random.default_rng(100 * m + n)
        cells = np.concatenate([special, rng.normal(size=n * m)])
        values = rng.permutation(np.resize(cells, n * m)).reshape(n, m)
        if n == 1:   # one row cannot hold every special value; cycle them over the columns
            values[0] = np.resize(special, m)
        buf = stdio.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["date", *(f"y{i + 1}" for i in range(m))])
        for date, row in zip(mio.synthetic_dates(n), values):
            writer.writerow([date, *(repr(float(v)) for v in row)])
        assert mio.format_series_csv(SeriesMatrix(values)) == buf.getvalue()


class TestModelFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = make_ref_params()
        provenance = {"seed": 3, "data_sha256": "ab" * 32, "created_at": "2024-01-01T00:00:00+00:00"}
        path = tmp_path / "model.json"
        mio.save_model(path, mio.ModelFile(params=params, provenance=provenance))
        loaded = mio.load_model(path)
        assert loaded.format_version == 1
        assert loaded.provenance == provenance
        assert loaded.params.spec == params.spec
        for field in ("pi", "theta0", "theta", "omega"):
            assert np.array_equal(getattr(loaded.params, field), getattr(params, field))
        # saving the loaded model reproduces the file byte-for-byte
        second = tmp_path / "model2.json"
        mio.save_model(second, loaded)
        assert path.read_bytes() == second.read_bytes()

    def test_unknown_version_rejected(self, tmp_path):
        params = make_ref_params()
        path = tmp_path / "model.json"
        mio.save_model(path, mio.ModelFile(params=params, provenance={}))
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match="version"):
            mio.load_model(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        mio.save_model(path, mio.ModelFile(params=make_ref_params(), provenance={}))
        doc = json.loads(path.read_text())
        doc["parameters"]["theta"][1][0][2][0] = float("nan")
        path.write_text(json.dumps(doc))            # Python's json writes and reads NaN
        assert "NaN" in path.read_text()
        with pytest.raises(ValueError, match="theta has non-finite"):
            mio.load_model(path)

    def test_invalid_schema_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 1, "spec": {"g": 1}}))
        with pytest.raises(ModelFileError):
            mio.load_model(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json at all")
        with pytest.raises(ModelFileError, match="JSON"):
            mio.load_model(path)


def assert_same_model_file(got: mio.ModelFile, want: mio.ModelFile) -> None:
    assert got.params.spec == want.params.spec
    assert got.provenance == want.provenance
    for field in ("pi", "theta0", "theta", "omega"):
        a, b = getattr(got.params, field), getattr(want.params, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


@given(seed=st.integers(0, 2 ** 32 - 1), g=st.integers(1, 3), m=st.integers(1, 3),
       orders=st.lists(st.integers(0, 3), min_size=3, max_size=3),
       log_scale=st.floats(-6.0, 6.0))
@settings(deadline=None, derandomize=True, max_examples=150)
def test_model_file_round_trip_is_bit_exact(seed, g, m, orders, log_scale):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    spec = ModelSpec(g, m, tuple(orders[:g]))
    theta = rng.normal(0.0, 0.3, (g, spec.p, m, m))
    for k, order in enumerate(spec.orders):
        theta[k, order:] = 0.0
    a = rng.normal(size=(g, m, m))
    omega = scale ** 2 * (a @ a.transpose(0, 2, 1) + 0.3 * np.eye(m))
    params = MvarParameters(spec=spec, pi=rng.dirichlet(np.ones(g)),
                            theta0=rng.normal(0.0, scale, (g, m)), theta=theta,
                            omega=0.5 * (omega + omega.transpose(0, 2, 1)))
    provenance = {"seed": seed, "scale": scale, "data_sha256": "ab" * 32,
                  "fit": {"orders": orders[:g], "tol": 1e-8}}
    mf = mio.ModelFile(params=params, provenance=provenance)
    assert_same_model_file(mio.model_from_dict(json.loads(json.dumps(mio.model_to_dict(mf)))), mf)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        mio.save_model(path, mf)
        assert_same_model_file(mio.load_model(path), mf)


class TestMixtureJson:
    def test_roundtrip(self):
        mix = make_portfolio_mixture()
        again = mio.mixture1d_from_dict(mio.mixture1d_to_dict(mix))
        assert np.array_equal(again.weights, mix.weights)
        assert np.array_equal(again.means, mix.means)
        assert np.array_equal(again.sds, mix.sds)
        assert again.horizon == mix.horizon
        assert again.origin_time == mix.origin_time


class TestDensityGrid:
    def test_grid_spans_six_sigma_and_integrates_to_one(self):
        from mvarkit import scalar_mixture_moments

        mix = make_portfolio_mixture()
        x, dens = mio.density_grid(mix)
        mean, var = scalar_mixture_moments(mix)
        sd = np.sqrt(var)
        assert len(x) == 512 and len(dens) == 512
        assert x[0] == pytest.approx(mean - 6 * sd)
        assert x[-1] == pytest.approx(mean + 6 * sd)
        integral = float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(x)))
        assert integral == pytest.approx(1.0, abs=1e-4)

    def test_csv_has_header_and_512_rows(self):
        text = mio.format_density_csv(make_portfolio_mixture())
        lines = text.strip().split("\n")
        assert lines[0] == "x,density"
        assert len(lines) == 513


class TestAtomicWrite:
    def test_writes_and_cleans_up(self, tmp_path):
        target = tmp_path / "out.txt"
        mio.atomic_write_text(target, "payload")
        assert target.read_text() == "payload"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.txt"]
        assert leftovers == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                             ids=["umask022", "umask077", "umask002"])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        """Written files get ``0o666 & ~umask``, as ``open(path, "w")`` gives, not a temp file's 0600."""
        series = SeriesMatrix(np.ones((3, 2)))
        writers = {"text": lambda path: mio.atomic_write_text(path, "payload"),
                   "series": lambda path: mio.write_series_csv(path, series),
                   "model": lambda path: mio.save_model(path, mio.ModelFile(make_ref_params(), {}))}
        old = os.umask(umask)
        try:
            for name, write in writers.items():
                write(tmp_path / name)
        finally:
            os.umask(old)
        assert {name: (tmp_path / name).stat().st_mode & 0o777 for name in writers} == \
            dict.fromkeys(writers, mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)

    def test_timestamp_honors_pinned_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        assert mio.timestamp_utc() == "2023-11-14T22:13:20+00:00"
