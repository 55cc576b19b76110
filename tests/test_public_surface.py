"""The public surface: names exported from ``mvarkit`` and the CLI's flags with their defaults.

A change here is a change to what users call; it should be deliberate.
"""

import argparse

import mvarkit
from mvarkit.cli import build_parser

EXPORTS = [
    "BracketError", "CandidateResult", "ComparisonReport", "ComparisonRow", "ComponentCollapseError",
    "CorrelationTable", "DataFormatError", "DegenerateFrontierError", "DensityUnderflowError",
    "DimensionError", "EigenSolverError", "FitReport", "ForecastOrigin", "InitStrategy",
    "MarkowitzCoefficients", "MixtureNormal1D", "MixtureNormalMV", "ModelFile", "ModelFileError",
    "ModelSpec", "MomentPair", "MvarError", "MvarParameters", "NotPositiveDefiniteError",
    "PortfolioSolution", "PriceTable", "RNG_ALGORITHM", "Responsibilities", "RiskReport",
    "SeriesMatrix", "SimulationConfig", "SimulationResult", "SingularComponentError",
    "TimeIndexError", "acf_ccf", "companion_matrices", "compare", "component_log_densities",
    "crps_mixture", "diagnostics", "e_step", "efficient_weights", "em_fit",
    "estimation", "evaluate_holdout", "exceptions", "forecasting", "horizon_portfolio", "io",
    "is_stable", "load_model", "log_likelihood", "m_step", "markowitz_coefficients", "mixture_cdf",
    "mixture_moments", "mixture_pdf", "mixture_quantile", "model", "mvp_weights", "portfolio",
    "predictive_h_step_mc", "predictive_mixture", "predictive_one_step", "predictive_two_step",
    "project", "regressor_matrix", "returns_from_prices", "risk", "rolling_origin_crps",
    "save_model", "scalar_mixture_moments", "select_order", "simulate", "simulate_forward",
    "simulation", "var_es",
]

REQUIRED = "<required>"
HELP = ("-h", "--help")

# every option of every subcommand: its default, or REQUIRED
COMMANDS = {
    "simulate": {"--seed": 0, "--quiet": False, "--model": REQUIRED, "--n": REQUIRED,
                 "--burn-in": 200, "--out": REQUIRED},
    "fit": {"--seed": 0, "--quiet": False, "--data": REQUIRED, "--input-kind": "returns",
            "--components": None, "--orders": None, "--sweep": False, "--g-values": "1,2",
            "--p-values": "1,2", "--criterion": "bic", "--starts": 10, "--max-iter": 500,
            "--tol": 1e-8, "--out": REQUIRED},
    "forecast": {"--seed": 0, "--quiet": False, "--model": REQUIRED, "--data": REQUIRED,
                 "--input-kind": "returns", "--horizon": 1, "--mc-paths": 100_000,
                 "--out": REQUIRED, "--grid-out": None},
    "portfolio": {"--seed": 0, "--quiet": False, "--model": REQUIRED, "--data": REQUIRED,
                  "--input-kind": "returns", "--horizon": 1, "--target": None, "--mvp": False,
                  "--out": REQUIRED, "--grid-out": None},
    "risk": {"--seed": 0, "--quiet": False, "--mixture": REQUIRED, "--alpha": 0.95,
             "--out": REQUIRED},
    "compare": {"--seed": 0, "--quiet": False, "--data": REQUIRED, "--input-kind": "returns",
                "--spec": REQUIRED, "--alpha": 0.95, "--starts": 10, "--max-iter": 500,
                "--tol": 1e-8, "--out": REQUIRED},
    "acf": {"--seed": 0, "--quiet": False, "--data": REQUIRED, "--input-kind": "returns",
            "--max-lag": 20, "--out": REQUIRED},
}


def _subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_exports():
    assert sorted(mvarkit.__all__) == EXPORTS


def test_cli_options_and_defaults():
    found = {}
    for name, sub in _subcommands().items():
        options = {}
        for action in sub._actions:
            if tuple(action.option_strings) == HELP:
                continue
            (flag,) = action.option_strings
            options[flag] = REQUIRED if action.required else action.default
        found[name] = options
    assert found == COMMANDS


def test_input_kind_choices():
    for name, sub in _subcommands().items():
        for action in sub._actions:
            if action.option_strings == ["--input-kind"]:
                assert action.choices == ["returns", "prices"], name
