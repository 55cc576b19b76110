"""Command-line workflows: simulate, fit, forecast, portfolio, risk, compare, acf.

Every run with the same inputs and seed produces identical output files;
wall-clock time enters only the provenance timestamp (pin SOURCE_DATE_EPOCH
to make even that reproducible). Exit codes: 0 success, 1 error, 2 fit did
not converge (output still written).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io as mio
from .compare import evaluate_holdout
from .diagnostics import acf_ccf
from .estimation import InitStrategy, em_fit, select_order
from .exceptions import MvarError
from .forecasting import mixture_moments, predictive_h_step_mc, predictive_mixture
from .model import ForecastOrigin, ModelSpec, SeriesMatrix, is_stable
from .portfolio import horizon_portfolio, project
from .risk import var_es
from .simulation import RNG_ALGORITHM, SimulationConfig, simulate


def _say(args, *parts) -> None:
    if not args.quiet:
        print(*parts)


def parse_spec_flag(text: str, m: int) -> ModelSpec:
    """Parse 'g:p1,p2,...' (one order per component) into a ModelSpec."""
    try:
        g_text, orders_text = text.split(":", 1)
        g = int(g_text)
        orders = tuple(int(o) for o in orders_text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"spec {text!r} is not of the form 'g:p1,p2,...'"
        ) from exc
    return ModelSpec(g=g, m=m, orders=orders)


def _load_series(args) -> SeriesMatrix:
    series, names, dates, dropped = mio.load_series(args.data, args.input_kind)
    if dropped:
        _say(args, f"note: dropped {dropped} rows with missing cells")
    return series


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    model = mio.load_model(args.model)
    config = SimulationConfig(params=model.params, n=args.n, burn_in=args.burn_in,
                              seed=args.seed)
    result = simulate(config)
    mio.write_series_csv(args.out, result.series)
    sidecar = {
        "burn_in": config.burn_in,
        "created_at": mio.timestamp_utc(),
        "model_file": str(args.model),
        "model_sha256": mio.sha256_of_file(args.model),
        "n": config.n,
        "rng": RNG_ALGORITHM,
        "seed": config.seed,
        "spec": mio._spec_to_dict(model.params.spec),
    }
    config_path = str(args.out)
    config_path = config_path[: -len(".csv")] + ".json" if config_path.endswith(".csv") \
        else config_path + ".json"
    mio.atomic_write_text(config_path, mio.format_json(sidecar))
    _say(args, f"wrote {result.series.n} x {result.series.m} path to {args.out}")
    _say(args, f"wrote simulation config to {config_path}")
    return 0


# ---------------------------------------------------------------- fit

def _fit_provenance(args, series, report, spec) -> dict:
    return {
        "created_at": mio.timestamp_utc(),
        "data": str(args.data),
        "data_sha256": mio.sha256_of_file(args.data),
        "input_kind": args.input_kind,
        "n_observations": series.n,
        "rng": RNG_ALGORITHM,
        "seed": args.seed,
        "fit": {
            "g": spec.g,
            "orders": list(spec.orders),
            "n_starts": args.starts,
            "max_iter": args.max_iter,
            "tol": args.tol,
        },
        "result": {
            "loglik": report.loglik,
            "aic": report.aic,
            "bic": report.bic,
            "iterations": report.iterations,
            "converged": report.converged,
        },
    }


def _print_fit_summary(args, report) -> None:
    stable, rho = is_stable(report.params)
    verdict = "stable" if stable else "NOT stable"
    _say(args, f"log-likelihood: {report.loglik:.6f}")
    _say(args, f"AIC: {report.aic:.6f}   BIC: {report.bic:.6f}")
    _say(args, f"spectral radius: {rho:.6f} ({verdict})")
    _say(args, f"iterations: {report.iterations}   converged: {report.converged}")


def cmd_fit(args) -> int:
    series = _load_series(args)
    init = InitStrategy(n_starts=args.starts, seed=args.seed)
    if args.sweep:
        g_values = [int(v) for v in args.g_values.split(",")]
        p_values = [int(v) for v in args.p_values.split(",")]
        results = select_order(series, g_values, p_values, criterion=args.criterion,
                               n_starts=args.starts, seed=args.seed,
                               max_iter=args.max_iter, tol=args.tol)
        _say(args, f"rank  {'model':<18} {args.criterion.upper():>12}")
        for rank, cand in enumerate(results, start=1):
            label = str(cand.spec)
            if cand.error is None:
                _say(args, f"{rank:>4}  {label:<18} {cand.score:12.4f}")
            else:
                _say(args, f"{rank:>4}  {label:<18} failed: {cand.error}")
        best = results[0]
        if best.report is None:
            print("error: every candidate failed", file=sys.stderr)
            return 1
        report, spec = best.report, best.spec
    else:
        if args.components is None:
            print("error: provide --components/--orders or --sweep", file=sys.stderr)
            return 1
        orders = tuple(int(o) for o in args.orders.split(",")) if args.orders \
            else (1,) * args.components
        spec = ModelSpec(g=args.components, m=series.m, orders=orders)
        report = em_fit(series, spec, init=init, max_iter=args.max_iter, tol=args.tol)
    _print_fit_summary(args, report)
    mio.save_model(args.out, mio.ModelFile(params=report.params,
                                           provenance=_fit_provenance(args, series, report, spec)))
    _say(args, f"wrote model to {args.out}")
    return 0 if report.converged else 2


# ---------------------------------------------------------------- forecast

def cmd_forecast(args) -> int:
    model = mio.load_model(args.model)
    series = _load_series(args)
    origin = ForecastOrigin.from_series(series, model.params.spec.p)
    analytic = args.horizon <= 2
    if args.grid_out and not analytic:
        print("error: --grid-out requires an analytic horizon (1 or 2)", file=sys.stderr)
        return 1
    if args.grid_out and series.m != 1:
        print("error: --grid-out needs a univariate series; "
              "use the portfolio command for a portfolio density", file=sys.stderr)
        return 1
    if analytic:
        mix = predictive_mixture(model.params, origin, args.horizon)
        mom = mixture_moments(mix)
        payload = {
            "method": "analytic",
            "horizon": args.horizon,
            "origin_time": origin.t,
            "weights": mix.weights.tolist(),
            "means": mix.means.tolist(),
            "covs": mix.covs.tolist(),
            "mean": mom.mean.tolist(),
            "cov": mom.cov.tolist(),
        }
        if args.grid_out:
            scalar = project(mix, np.ones(1))
            mio.atomic_write_text(args.grid_out, mio.format_density_csv(scalar))
            _say(args, f"wrote density grid to {args.grid_out}")
    else:
        endpoints, mom = predictive_h_step_mc(model.params, origin, args.horizon,
                                              args.mc_paths, seed=args.seed)
        payload = {
            "method": "monte-carlo",
            "horizon": args.horizon,
            "origin_time": origin.t,
            "n_paths": args.mc_paths,
            "seed": args.seed,
            "rng": RNG_ALGORITHM,
            "mean": mom.mean.tolist(),
            "cov": mom.cov.tolist(),
        }
    mio.atomic_write_text(args.out, mio.format_json(payload))
    _say(args, f"horizon {args.horizon} conditional mean: "
               f"{np.round(np.asarray(payload['mean']), 6).tolist()}")
    _say(args, f"wrote forecast to {args.out}")
    return 0


# ---------------------------------------------------------------- portfolio

def cmd_portfolio(args) -> int:
    model = mio.load_model(args.model)
    series = _load_series(args)
    origin = ForecastOrigin.from_series(series, model.params.spec.p)
    sol, return_mix = horizon_portfolio(model.params, origin, args.horizon, args.target)
    payload = {
        "kind": sol.kind,
        "horizon": sol.horizon,
        "origin_time": origin.t,
        "weights": sol.weights.tolist(),
        "expected_return": sol.expected_return,
        "sd": sol.sd,
        "mixture": mio.mixture1d_to_dict(return_mix),
    }
    mio.atomic_write_text(args.out, mio.format_json(payload))
    if args.grid_out:
        mio.atomic_write_text(args.grid_out, mio.format_density_csv(return_mix))
        _say(args, f"wrote density grid to {args.grid_out}")
    _say(args, f"{sol.kind} weights: {np.round(sol.weights, 6).tolist()}")
    _say(args, f"expected return: {sol.expected_return:.6f}   sd: {sol.sd:.6f}")
    _say(args, f"wrote portfolio to {args.out}")
    return 0


# ---------------------------------------------------------------- risk

def cmd_risk(args) -> int:
    with open(args.mixture, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if "mixture" in payload:          # portfolio output embeds the mixture
        payload = payload["mixture"]
    mix = mio.mixture1d_from_dict(payload)
    report = var_es(mix, args.alpha)
    out = {
        "alpha": report.alpha,
        "var": report.var,
        "es": report.es,
        "loss_var": report.loss_var,
        "loss_es": report.loss_es,
    }
    mio.atomic_write_text(args.out, mio.format_json(out))
    _say(args, f"VaR at {args.alpha:.0%}: {report.var:.6f} "
               f"(loss magnitude {report.loss_var:.6f})")
    _say(args, f"ES  at {args.alpha:.0%}: {report.es:.6f} "
               f"(loss magnitude {report.loss_es:.6f})")
    _say(args, f"wrote risk report to {args.out}")
    return 0


# ---------------------------------------------------------------- compare

def cmd_compare(args) -> int:
    for text in args.spec:
        if ":" not in text:
            print(f"error: spec {text!r} is not of the form 'g:p1,p2,...'", file=sys.stderr)
            return 1
    series = _load_series(args)
    specs = [parse_spec_flag(s, series.m) for s in args.spec]
    init = InitStrategy(n_starts=args.starts, seed=args.seed)
    report, _fits = evaluate_holdout(series, specs, alpha=args.alpha, init=init,
                                     max_iter=args.max_iter, tol=args.tol)
    payload = {
        "alpha": report.alpha,
        "origin_time": report.origin_time,
        "rows": [vars(r) for r in report.rows],
    }
    mio.atomic_write_text(args.out, mio.format_json(payload))
    _say(args, f"{'model':<18} {'h':>2} {'mean':>10} {'sd':>10} {'VaR':>10} "
               f"{'ES':>10} {'CRPS':>10} {'realized':>10}")
    failed = 0
    for r in report.rows:
        if r.error is None:
            _say(args, f"{r.model_id:<18} {r.horizon:>2} {r.mean:>10.4f} {r.sd:>10.4f} "
                       f"{r.var:>10.4f} {r.es:>10.4f} {r.crps:>10.4f} {r.realized:>10.4f}")
        else:
            failed += 1
            _say(args, f"{r.model_id:<18} {r.horizon:>2} failed: {r.error}")
    _say(args, f"wrote comparison report to {args.out}")
    return 0 if failed < len(report.rows) else 1


# ---------------------------------------------------------------- acf

def cmd_acf(args) -> int:
    series = _load_series(args)
    table = acf_ccf(series, args.max_lag)
    header = ["lag", "series_i", "series_j", "correlation", "band"]
    rows = ([str(int(lag)), str(i + 1), str(j + 1), repr(float(table.values[lag, i, j])),
             repr(table.band)]
            for lag in table.lags for i in range(series.m) for j in range(series.m))
    mio.atomic_write_text(args.out, mio.format_csv(header, rows))
    _say(args, f"wrote correlations up to lag {args.max_lag} to {args.out} "
               f"(white-noise band +/-{table.band:.4f})")
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvarkit",
        description="Mixture vector autoregression: simulate, fit, forecast, "
                    "optimize portfolios, and score risk.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument("--quiet", action="store_true", help="suppress console output")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True, help="input CSV")
    data.add_argument("--input-kind", choices=["returns", "prices"], default="returns")
    em = argparse.ArgumentParser(add_help=False)
    em.add_argument("--starts", type=int, default=10, help="EM random starts")
    em.add_argument("--max-iter", type=int, default=500, dest="max_iter")
    em.add_argument("--tol", type=float, default=1e-8)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="generate a synthetic path")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--n", type=int, required=True, help="output path length")
    p.add_argument("--burn-in", type=int, default=200, dest="burn_in")
    p.add_argument("--out", required=True, help="output CSV (config JSON written alongside)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", parents=[common, data, em], help="fit a model by EM")
    p.add_argument("--components", type=int, help="number of mixture components g")
    p.add_argument("--orders", help="comma-separated AR orders, one per component")
    p.add_argument("--sweep", action="store_true", help="rank candidates instead of fitting one")
    p.add_argument("--g-values", default="1,2", dest="g_values")
    p.add_argument("--p-values", default="1,2", dest="p_values")
    p.add_argument("--criterion", choices=["aic", "bic"], default="bic")
    p.add_argument("--out", required=True, help="output model JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", parents=[common, data],
                       help="predictive mixture (h<=2 analytic, else Monte Carlo)")
    p.add_argument("--model", required=True)
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--mc-paths", type=int, default=100_000, dest="mc_paths")
    p.add_argument("--out", required=True, help="output mixture JSON")
    p.add_argument("--grid-out", dest="grid_out", help="density grid CSV (univariate series)")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("portfolio", parents=[common, data],
                       help="minimum-variance or efficient portfolio from conditional moments")
    p.add_argument("--model", required=True)
    p.add_argument("--horizon", type=int, default=1)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", type=float, help="target expected return")
    group.add_argument("--mvp", action="store_true", help="minimum variance portfolio")
    p.add_argument("--out", required=True, help="output portfolio JSON")
    p.add_argument("--grid-out", dest="grid_out", help="density grid CSV of the return mixture")
    p.set_defaults(func=cmd_portfolio)

    p = sub.add_parser("risk", parents=[common], help="VaR and expected shortfall of a return mixture")
    p.add_argument("--mixture", required=True,
                   help="mixture JSON (or portfolio JSON embedding one)")
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument("--out", required=True, help="output risk JSON")
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("compare", parents=[common, data, em],
                       help="fit several specs, hold out the last two observations, score each")
    p.add_argument("--spec", action="append", required=True,
                   help="candidate as 'g:p1,p2,...' (repeatable); g=1 gives a plain VAR")
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument("--out", required=True, help="output report JSON")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("acf", parents=[common, data], help="auto/cross-correlation table")
    p.add_argument("--max-lag", type=int, default=20, dest="max_lag")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_acf)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MvarError, OSError, json.JSONDecodeError, ValueError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
