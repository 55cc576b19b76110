import csv
import json

import numpy as np
import pytest

from mvarkit import ForecastOrigin, cli, horizon_portfolio
from mvarkit import io as mio
from conftest import make_ref_params


@pytest.fixture(autouse=True)
def pinned_clock(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "true.json"
    mio.save_model(path, mio.ModelFile(params=make_ref_params(), provenance={"note": "test"}))
    return path


@pytest.fixture()
def sim_csv(tmp_path, model_path):
    out = tmp_path / "sim.csv"
    rc = cli.main(["simulate", "--model", str(model_path), "--n", "400",
                   "--seed", "9", "--out", str(out), "--quiet"])
    assert rc == 0
    return out


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestSimulate:
    def test_writes_csv_and_config(self, tmp_path, model_path):
        out = tmp_path / "path.csv"
        rc = cli.main(["simulate", "--model", str(model_path), "--n", "50",
                       "--seed", "1", "--out", str(out), "--quiet"])
        assert rc == 0
        sidecar = read_json(tmp_path / "path.json")
        assert sidecar["rng"] == "pcg64"
        assert sidecar["seed"] == 1 and sidecar["n"] == 50
        series, names, _, dropped = mio.load_series(out, "returns")
        assert series.n == 50 and series.m == 3 and dropped == 0
        assert names == ["y1", "y2", "y3"]

    def test_byte_identical_reruns(self, tmp_path, model_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            cli.main(["simulate", "--model", str(model_path), "--n", "30",
                      "--seed", "5", "--out", str(out), "--quiet"])
        assert a.read_bytes() == b.read_bytes()


class TestFit:
    def test_fit_writes_deterministic_model(self, tmp_path, sim_csv):
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        argv = ["fit", "--data", str(sim_csv), "--components", "2", "--orders", "1,1",
                "--starts", "4", "--seed", "2", "--quiet"]
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        model = mio.load_model(out1)
        assert model.params.spec.g == 2
        assert model.provenance["fit"]["n_starts"] == 4
        assert model.provenance["result"]["converged"] is True

    def test_nonconvergence_exit_code_two_but_model_written(self, tmp_path, sim_csv):
        out = tmp_path / "m.json"
        rc = cli.main(["fit", "--data", str(sim_csv), "--components", "2",
                       "--orders", "1,1", "--starts", "1", "--seed", "2",
                       "--max-iter", "1", "--out", str(out), "--quiet"])
        assert rc == 2
        assert out.exists()

    def test_sweep_ranks_candidates(self, tmp_path, sim_csv, capsys):
        out = tmp_path / "best.json"
        rc = cli.main(["fit", "--data", str(sim_csv), "--sweep",
                       "--g-values", "1,2", "--p-values", "1,2",
                       "--starts", "2", "--seed", "0", "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        table = [l for l in lines if l.strip().startswith(("1", "2", "3", "4"))]
        assert len(table) == 4
        assert out.exists()

    def test_missing_spec_flags_error(self, tmp_path, sim_csv):
        rc = cli.main(["fit", "--data", str(sim_csv), "--out", str(tmp_path / "x.json"),
                       "--quiet"])
        assert rc == 1


    def test_negative_max_iter_is_an_error(self, tmp_path, sim_csv, capsys):
        rc = cli.main(["fit", "--data", str(sim_csv), "--components", "2", "--orders", "1,1",
                       "--max-iter", "-1", "--out", str(tmp_path / "x.json"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["error: max_iter must be >= 0"]
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tol_is_an_error(self, tmp_path, sim_csv, capsys, tol):
        rc = cli.main(["fit", "--data", str(sim_csv), "--components", "2", "--orders", "1,1",
                       "--tol", tol, "--out", str(tmp_path / "x.json"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["error: tol must be finite and >= 0"]
        assert not (tmp_path / "x.json").exists()

    def test_negative_seed_is_an_error(self, tmp_path, sim_csv, capsys):
        rc = cli.main(["fit", "--data", str(sim_csv), "--components", "2", "--orders", "1,1",
                       "--seed", "-1", "--out", str(tmp_path / "x.json"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0"]
        assert not (tmp_path / "x.json").exists()


class TestForecast:
    def test_analytic_two_step(self, tmp_path, model_path, sim_csv):
        out = tmp_path / "mix.json"
        rc = cli.main(["forecast", "--model", str(model_path), "--data", str(sim_csv),
                       "--horizon", "2", "--out", str(out), "--quiet"])
        assert rc == 0
        payload = read_json(out)
        assert payload["method"] == "analytic"
        assert len(payload["weights"]) == 4
        assert abs(sum(payload["weights"]) - 1.0) < 1e-12

    def test_monte_carlo_horizon(self, tmp_path, model_path, sim_csv):
        out = tmp_path / "mc.json"
        rc = cli.main(["forecast", "--model", str(model_path), "--data", str(sim_csv),
                       "--horizon", "5", "--mc-paths", "2000", "--seed", "3",
                       "--out", str(out), "--quiet"])
        assert rc == 0
        payload = read_json(out)
        assert payload["method"] == "monte-carlo"
        assert payload["n_paths"] == 2000
        assert len(payload["mean"]) == 3

    def test_grid_rejected_before_simulating(self, tmp_path, model_path, sim_csv, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before rejecting --grid-out")

        monkeypatch.setattr(cli, "predictive_h_step_mc", no_simulation)
        rc = cli.main(["forecast", "--model", str(model_path), "--data", str(sim_csv),
                       "--horizon", "10", "--out", str(tmp_path / "m.json"),
                       "--grid-out", str(tmp_path / "g.csv"), "--quiet"])
        assert rc == 1
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "g.csv").exists()

    def test_grid_needs_univariate(self, tmp_path, model_path, sim_csv):
        rc = cli.main(["forecast", "--model", str(model_path), "--data", str(sim_csv),
                       "--horizon", "1", "--out", str(tmp_path / "m.json"),
                       "--grid-out", str(tmp_path / "g.csv"), "--quiet"])
        assert rc == 1


class TestPortfolioAndRisk:
    def test_portfolio_target_then_risk(self, tmp_path, model_path, sim_csv):
        port = tmp_path / "port.json"
        grid = tmp_path / "grid.csv"
        rc = cli.main(["portfolio", "--model", str(model_path), "--data", str(sim_csv),
                       "--horizon", "1", "--target", "0.0", "--out", str(port),
                       "--grid-out", str(grid), "--quiet"])
        assert rc == 0
        payload = read_json(port)
        assert payload["kind"] == "efficient"
        assert abs(sum(payload["weights"]) - 1.0) < 1e-10
        assert abs(payload["expected_return"]) < 1e-10
        with open(grid, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x", "density"] and len(rows) == 513

        risk_out = tmp_path / "risk.json"
        rc = cli.main(["risk", "--mixture", str(port), "--alpha", "0.95",
                       "--out", str(risk_out), "--quiet"])
        assert rc == 0
        risk = read_json(risk_out)
        assert risk["es"] <= risk["var"] <= 0.0 or risk["var"] >= 0.0
        assert risk["loss_var"] == -risk["var"]

    def test_portfolio_mvp_two_step(self, tmp_path, model_path, sim_csv):
        port = tmp_path / "p2.json"
        rc = cli.main(["portfolio", "--model", str(model_path), "--data", str(sim_csv),
                       "--horizon", "2", "--mvp", "--out", str(port), "--quiet"])
        assert rc == 0
        payload = read_json(port)
        assert payload["kind"] == "mvp" and payload["horizon"] == 2
        assert len(payload["mixture"]["weights"]) == 4

    def test_portfolio_mvp_three_step(self, tmp_path, model_path, sim_csv):
        port = tmp_path / "p3.json"
        rc = cli.main(["portfolio", "--model", str(model_path), "--data", str(sim_csv),
                       "--horizon", "3", "--mvp", "--out", str(port), "--quiet"])
        assert rc == 0
        payload = read_json(port)
        model = mio.load_model(model_path)
        series, _, _, _ = mio.load_series(sim_csv, "returns")
        origin = ForecastOrigin.from_series(series, model.params.spec.p)
        sol, rmix = horizon_portfolio(model.params, origin, 3)
        assert payload["kind"] == "mvp" and payload["horizon"] == 3
        assert payload["weights"] == sol.weights.tolist()
        assert payload["mixture"] == mio.mixture1d_to_dict(rmix)
        assert len(payload["mixture"]["weights"]) == 8

    def test_portfolio_horizon_over_budget(self, tmp_path, model_path, sim_csv, capsys):
        rc = cli.main(["portfolio", "--model", str(model_path), "--data", str(sim_csv),
                       "--horizon", "13", "--mvp", "--out", str(tmp_path / "p.json"),
                       "--quiet"])
        assert rc == 1
        assert "predictive_h_step_mc" in capsys.readouterr().err

    def test_risk_accepts_bare_mixture(self, tmp_path):
        mix_path = tmp_path / "mix.json"
        mix_path.write_text(json.dumps({"weights": [1.0], "means": [0.0], "sds": [1.0]}))
        out = tmp_path / "risk.json"
        assert cli.main(["risk", "--mixture", str(mix_path), "--out", str(out),
                         "--quiet"]) == 0
        risk = read_json(out)
        assert risk["var"] == pytest.approx(-1.6449, abs=1e-3)


class TestCompareAndAcf:
    def test_compare_writes_all_rows(self, tmp_path, sim_csv):
        out = tmp_path / "cmp.json"
        rc = cli.main(["compare", "--data", str(sim_csv), "--spec", "2:1,1",
                       "--spec", "1:1", "--starts", "2", "--seed", "1",
                       "--out", str(out), "--quiet"])
        assert rc == 0
        payload = read_json(out)
        assert len(payload["rows"]) == 4
        assert {r["horizon"] for r in payload["rows"]} == {1, 2}

    def test_compare_negative_max_iter_is_one_error(self, tmp_path, sim_csv, capsys):
        out = tmp_path / "cmp.json"
        rc = cli.main(["compare", "--data", str(sim_csv), "--spec", "2:1,1", "--spec", "1:1",
                       "--max-iter", "-1", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: max_iter must be >= 0"]
        assert "failed" not in captured.out
        assert not out.exists()

    def test_compare_bad_alpha_is_one_error(self, tmp_path, sim_csv, capsys):
        out = tmp_path / "cmp.json"
        rc = cli.main(["compare", "--data", str(sim_csv), "--spec", "2:1,1", "--spec", "1:1",
                       "--alpha", "1.5", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: alpha must be in (0,1), got 1.5"]
        assert "failed" not in captured.out
        assert not out.exists()

    def test_acf_row_count(self, tmp_path, sim_csv):
        out = tmp_path / "acf.csv"
        rc = cli.main(["acf", "--data", str(sim_csv), "--max-lag", "3",
                       "--out", str(out), "--quiet"])
        assert rc == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["lag", "series_i", "series_j", "correlation", "band"]
        assert len(rows) == 1 + 4 * 9


class TestErrors:
    def test_missing_file_exit_one(self, tmp_path):
        rc = cli.main(["fit", "--data", str(tmp_path / "nope.csv"), "--components", "1",
                       "--orders", "1", "--out", str(tmp_path / "m.json"), "--quiet"])
        assert rc == 1

    def test_bad_spec_flag_rejected(self, capsys):
        rc = cli.main(["compare", "--data", "x.csv", "--spec", "nonsense",
                       "--out", "r.json"])
        assert rc == 1
        assert "g:p1,p2" in capsys.readouterr().err

    def test_spec_flag_parses_heterogeneous_orders(self):
        spec = cli.parse_spec_flag("3:3,2,1", m=4)
        assert spec.g == 3 and spec.orders == (3, 2, 1) and spec.p == 3
