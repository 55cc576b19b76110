#!/usr/bin/env python3
"""End-to-end workflow on synthetic data: simulate a two-component trivariate
process, fit it by EM holding out the last two observations, then build
minimum-variance and zero-target efficient portfolios from the one- and
two-step predictive mixtures and report their risk measures.

Usage:
  python scripts/simulation_study.py [--n 500] [--seed 1] [--starts 10]
"""

import argparse
import sys
from pathlib import Path

try:
    import mvarkit  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from mvarkit import (
    ForecastOrigin,
    InitStrategy,
    ModelSpec,
    MvarParameters,
    SeriesMatrix,
    SimulationConfig,
    crps_mixture,
    efficient_weights,
    em_fit,
    horizon_portfolio,
    is_stable,
    mixture_moments,
    mvp_weights,
    predictive_one_step,
    project,
    simulate,
    var_es,
)


def generating_process() -> MvarParameters:
    spec = ModelSpec(g=2, m=3, orders=(1, 1))
    theta1 = [[0.5, 0.0, 0.4], [-0.3, 0.0, 0.5], [-0.6, 0.5, -0.3]]
    theta2 = [[-0.5, 1.0, -0.4], [0.3, 0.0, -0.2], [0.0, -0.5, 0.5]]
    omega1 = [[1.0, 0.5, -0.4], [0.5, 2.0, 0.8], [-0.4, 0.8, 4.0]]
    omega2 = [[1.0, 0.2, 0.0], [0.2, 2.0, -0.55], [0.0, -0.55, 4.0]]
    return MvarParameters.from_component_lists(
        spec, [0.75, 0.25], np.zeros((2, 3)), [[theta1], [theta2]], [omega1, omega2]
    )


def show_matrix(label, mat):
    rows = np.array2string(np.asarray(mat), precision=4, suppress_small=True)
    print(f"{label} =\n{rows}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--starts", type=int, default=10)
    parser.add_argument("--target", type=float, default=0.0,
                        help="efficient-portfolio target return")
    args = parser.parse_args()

    truth = generating_process()
    result = simulate(SimulationConfig(params=truth, n=args.n, seed=args.seed))
    series = result.series
    train = SeriesMatrix(series.values[:-2])
    print(f"simulated n={args.n} (train {train.n}, holdout 2), "
          f"component-1 frequency {np.mean(result.labels == 0):.3f}")

    report = em_fit(train, truth.spec, InitStrategy(n_starts=args.starts, seed=args.seed))
    stable, rho = is_stable(report.params)
    print(f"\nEM: loglik {report.loglik:.4f}, BIC {report.bic:.2f}, "
          f"{report.iterations} iterations, converged={report.converged}, "
          f"rho={rho:.4f} ({'stable' if stable else 'NOT stable'})")
    print(f"mixing weights: {np.round(report.params.pi, 4).tolist()}")
    for k in range(2):
        show_matrix(f"theta0[{k}]", report.params.theta0[k])
        show_matrix(f"theta1[{k}]", report.params.theta[k, 0])
        show_matrix(f"omega[{k}]", report.params.omega[k])

    origin = ForecastOrigin.from_series(train, truth.spec.p)
    mix1 = predictive_one_step(report.params, origin)
    mom1 = mixture_moments(mix1)
    print("\none-step conditional mean:", np.round(mom1.mean, 4).tolist())
    show_matrix("one-step conditional covariance", mom1.cov)

    mvp = mvp_weights(mom1.mean, mom1.cov)
    print(f"\nh=1 minimum variance portfolio: weights {np.round(mvp.weights, 4).tolist()}, "
          f"return {mvp.expected_return:.4f}, sd {mvp.sd:.4f}")

    eff = efficient_weights(mom1.mean, mom1.cov, args.target)
    rmix1 = project(mix1, eff.weights)
    risk1 = var_es(rmix1, alpha=0.95)
    realized1 = float(eff.weights @ series.values[-2])
    print(f"h=1 efficient portfolio (target {args.target}): "
          f"weights {np.round(eff.weights, 4).tolist()}, sd {eff.sd:.4f}")
    print(f"  VaR95 {risk1.var:.4f}  ES95 {risk1.es:.4f}  "
          f"realized {realized1:.4f}  CRPS {crps_mixture(rmix1, realized1):.4f}")

    sol2, rmix2 = horizon_portfolio(report.params, origin, 2)
    risk2 = var_es(rmix2, alpha=0.95)
    realized2 = float(sol2.weights @ series.values[-1])
    print(f"\nh=2 minimum variance portfolio: weights {np.round(sol2.weights, 4).tolist()}, "
          f"return {sol2.expected_return:.4f}, sd {sol2.sd:.4f} "
          f"(vs h=1 sd {mvp.sd:.4f}: uncertainty grows with horizon)")
    print(f"  VaR95 {risk2.var:.4f}  ES95 {risk2.es:.4f}  "
          f"realized {realized2:.4f}  CRPS {crps_mixture(rmix2, realized2):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
