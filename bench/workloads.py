"""The four benchmark workloads: inputs, one job, and the correctness gate.

Each workload builds its inputs from the workload seed alone, then runs jobs
from a fixed cycle of ``cycle`` jobs, one after another in one process. A job
calls only public mvarkit functions. ``check`` runs outside the job's timer and
returns a list of gate failures (empty when the job's outputs are correct).
When a job index comes round again, its outputs must repeat bit for bit.
Quality metrics (``loglik_per_obs``, ``crps_mean``) are taken over one full
cycle, so they depend on the seed only.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

import mvarkit.compare as compare
import mvarkit.estimation as estimation
import mvarkit.forecasting as forecasting
import mvarkit.io as mio
import mvarkit.model as model
import mvarkit.portfolio as portfolio
import mvarkit.risk as risk
import mvarkit.simulation as simulation
from mvarkit.model import ForecastOrigin, ModelSpec, MvarParameters, SeriesMatrix

from moments import exact_moments


def derived_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for one purpose, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def reference_params() -> MvarParameters:
    """The reference MVAR(2;1,1), m=3, of the test suite."""
    spec = ModelSpec(g=2, m=3, orders=(1, 1))
    return MvarParameters.from_component_lists(
        spec, [0.75, 0.25], np.zeros((2, 3)),
        [[[[0.5, 0.0, 0.4], [-0.3, 0.0, 0.5], [-0.6, 0.5, -0.3]]],
         [[[-0.5, 1.0, -0.4], [0.3, 0.0, -0.2], [0.0, -0.5, 0.5]]]],
        [[[1.0, 0.5, -0.4], [0.5, 2.0, 0.8], [-0.4, 0.8, 4.0]],
         [[1.0, 0.2, 0.0], [0.2, 2.0, -0.55], [0.0, -0.55, 4.0]]],
    )


def regime_params() -> MvarParameters:
    """The two-regime m=2 process of acceptance criterion 8."""
    spec = ModelSpec(2, 2, (1, 1))
    return MvarParameters.from_component_lists(
        spec, [0.6, 0.4],
        [[1.2, 1.2], [-1.8, -1.8]],
        [[[[0.3, 0.0], [0.1, 0.2]]],
         [[[-0.2, 0.1], [0.0, 0.3]]]],
        [[[0.30, 0.10], [0.10, 0.40]], [[0.8, -0.15], [-0.15, 0.6]]],
    )


def random_stable_params(rng: np.random.Generator, m: int, orders: tuple[int, ...]) -> MvarParameters:
    """Random parameters with the given component orders, AR blocks shrunk until stable."""
    g, p = len(orders), max(orders)
    spec = ModelSpec(g=g, m=m, orders=orders)
    pi = rng.dirichlet(np.ones(g)) * 0.8 + 0.2 / g
    pi = pi / pi.sum()
    theta0 = rng.normal(0.0, 0.5, size=(g, m))
    theta = rng.normal(0.0, 0.4, size=(g, p, m, m))
    for k, order in enumerate(orders):
        theta[k, order:] = 0.0
    omega = np.empty((g, m, m))
    for k in range(g):
        a = rng.normal(size=(m, m))
        omega[k] = a @ a.T + (0.3 + rng.uniform(0.0, 0.5)) * np.eye(m)
    for _ in range(60):
        params = MvarParameters(spec=spec, pi=pi, theta0=theta0, theta=theta, omega=omega)
        if model.is_stable(params)[0]:
            return params
        theta = theta * 0.7
    raise RuntimeError("could not draw a stable model")


def origin_at(values: np.ndarray, p: int, t: int) -> ForecastOrigin:
    return ForecastOrigin(history=values[t - p + 1: t + 1], t=t)


class Workload:
    """Base class: subclasses set the class attributes and the four methods."""

    name = ""
    cycle = 1          # distinct jobs; the job list repeats after this many
    trace_jobs = 1     # jobs in one traced pass (the first ones of the cycle)

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._digests: dict[int, str] = {}
        self._crps: dict[int, list[float]] = {}

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_job(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def loglik_per_obs(self) -> float:
        raise NotImplementedError

    def _repeat_gate(self, i: int, key: str) -> list[str]:
        j = i % self.cycle
        if j not in self._digests:
            self._digests[j] = key
            return []
        if self._digests[j] != key:
            return [f"job {i}: outputs differ from the earlier run of input {j}"]
        return []

    def crps_mean(self) -> float:
        values = [v for j in sorted(self._crps) for v in self._crps[j]]
        return float(np.mean(values))


class Fit(Workload):
    """The `mvarkit fit` path: estimation and model do nearly all the work."""

    name = "fit"
    cycle = 12
    trace_jobs = 3
    N_OBS = 2000
    HOLDOUT = 50
    N_STARTS = 10

    def __init__(self, seed: int, workdir: str):
        super().__init__(workdir)
        self.params = reference_params()
        self.spec = self.params.spec
        self.csv_paths, self.model_paths, self.full, self.fit_seeds = [], [], [], []
        for d in range(self.cycle):
            config = simulation.SimulationConfig(params=self.params, n=self.N_OBS + self.HOLDOUT,
                                                 seed=derived_seed(seed, 1, d))
            values = simulation.simulate(config).series.values
            csv = os.path.join(workdir, f"series-{d}.csv")
            mio.write_series_csv(csv, SeriesMatrix(values[:self.N_OBS]))
            self.csv_paths.append(csv)
            self.model_paths.append(os.path.join(workdir, f"model-{d}.json"))
            self.full.append(values)
            self.fit_seeds.append(derived_seed(seed, 2, d))
        self._loglik: dict[int, float] = {}
        self._fitted: dict[int, MvarParameters] = {}

    def warm_up(self) -> None:
        series, *_ = mio.load_series(self.csv_paths[0])
        short = SeriesMatrix(series.values[:200])
        report = estimation.em_fit(short, self.spec, init=estimation.InitStrategy(2, 0), max_iter=5)
        model.is_stable(report.params)
        path = os.path.join(self.workdir, "warm-up.json")
        mio.save_model(path, mio.ModelFile(params=report.params, provenance={}))
        mio.load_model(path)

    def run_job(self, i: int):
        d = i % self.cycle
        series, _names, _dates, _dropped = mio.load_series(self.csv_paths[d])
        init = estimation.InitStrategy(n_starts=self.N_STARTS, seed=self.fit_seeds[d])
        report = estimation.em_fit(series, self.spec, init=init, max_iter=500, tol=1e-8)
        stable, rho = model.is_stable(report.params)
        provenance = {"fit": {"n_starts": self.N_STARTS, "seed": self.fit_seeds[d], "max_iter": 500,
                              "tol": 1e-8, "loglik": report.loglik, "iterations": report.iterations,
                              "converged": report.converged, "stable": stable, "spectral_radius": rho}}
        mio.save_model(self.model_paths[d], mio.ModelFile(params=report.params, provenance=provenance))
        return series, report

    def check(self, i: int, out) -> list[str]:
        series, report = out
        d = i % self.cycle
        errors = []
        truth = model.log_likelihood(self.params, series)
        if not report.loglik >= truth:
            errors.append(f"job {i}: best loglik {report.loglik!r} below the true parameters' {truth!r}")
        loaded = mio.load_model(self.model_paths[d]).params
        fitted = report.params
        if loaded.spec != fitted.spec or not all(
            np.array_equal(getattr(loaded, a), getattr(fitted, a))
            for a in ("pi", "theta0", "theta", "omega")
        ):
            errors.append(f"job {i}: saved model does not reload bit-exactly")
        if d not in self._loglik:
            self._loglik[d] = report.loglik / (series.n - self.spec.p)
            self._fitted[d] = fitted
        errors += self._repeat_gate(i, digest([report.loglik], fitted.pi, fitted.theta0,
                                               fitted.theta, fitted.omega))
        return errors

    def crps_mean(self) -> float:
        """Mean CRPS of the fitted models' h=1 and h=2 MVP forecasts over the held-out rows."""
        p = self.spec.p
        scores = []
        for d, fitted in sorted(self._fitted.items()):
            values = self.full[d]
            for t in range(self.N_OBS - 1, self.N_OBS + self.HOLDOUT - 2):
                (sol1, rmix1), (sol2, rmix2) = compare.mvp_forecast_mixtures(fitted, origin_at(values, p, t))
                scores.append(risk.crps_mixture(rmix1, float(sol1.weights @ values[t + 1])))
                scores.append(risk.crps_mixture(rmix2, float(sol2.weights @ values[t + 2])))
        return float(np.mean(scores))

    def loglik_per_obs(self) -> float:
        return float(np.mean([self._loglik[d] for d in sorted(self._loglik)]))


class Rolling(Workload):
    """Criterion-8 backtest, one origin per job: many small EM refits."""

    name = "rolling"
    N_PATHS = 50
    ORIGINS_PER_PATH = 2
    cycle = N_PATHS * ORIGINS_PER_PATH
    trace_jobs = 20
    TRAIN = 400
    SPECS = (ModelSpec(2, 2, (1, 1)), ModelSpec(1, 2, (1,)))
    LOGLIK_PATHS = 10

    def __init__(self, seed: int, workdir: str):
        super().__init__(workdir)
        # Several independent paths, a few consecutive origins on each: EM cost
        # depends on the path, so one path per seed would make the seed set the speed.
        self.init = estimation.InitStrategy(n_starts=4, seed=0)
        self.paths, self.prefixes = [], []
        first = self.TRAIN - 1
        for s in range(self.N_PATHS):
            config = simulation.SimulationConfig(params=regime_params(),
                                                 n=self.TRAIN + self.ORIGINS_PER_PATH + 2,
                                                 seed=derived_seed(seed, 3, s))
            values = simulation.simulate(config).series.values
            self.paths.append(values)
            self.prefixes += [SeriesMatrix(values[:t + 3])
                              for t in range(first, first + self.ORIGINS_PER_PATH)]

    def warm_up(self) -> None:
        compare.rolling_origin_crps(self.prefixes[0], list(self.SPECS), n_origins=1,
                                    train_length=self.TRAIN, init=estimation.InitStrategy(2, 0),
                                    max_iter=5)

    def run_job(self, i: int):
        return compare.rolling_origin_crps(self.prefixes[i % self.cycle], list(self.SPECS),
                                           n_origins=1, train_length=self.TRAIN, init=self.init,
                                           refit_interval=1)

    def check(self, i: int, out) -> list[str]:
        errors = []
        if not (np.all(np.isfinite(out)) and np.all(out >= 0.0)):
            errors.append(f"job {i}: CRPS not finite and nonnegative: {out.ravel().tolist()}")
        self._crps.setdefault(i % self.cycle, [float(v) for v in out.ravel()])
        return errors + self._repeat_gate(i, digest(out))

    def loglik_per_obs(self) -> float:
        """Best final loglik per scored row of the MVAR refits at the first origin of some paths.

        These are the same em_fit calls the jobs make inside rolling_origin_crps,
        repeated outside the timed phase because that function returns CRPS only.
        """
        spec = self.SPECS[0]
        values = []
        for path in self.paths[:self.LOGLIK_PATHS]:
            window = SeriesMatrix(path[:self.TRAIN])
            report = estimation.em_fit(window, spec, init=self.init)
            values.append(report.loglik / (window.n - spec.p))
        return float(np.mean(values))


class Score(Workload):
    """Fixed MVAR(3;2,1,1), m=4, nothing fitted: forecasting, portfolio and risk do the work."""

    name = "score"
    cycle = 1000
    trace_jobs = 100
    ALPHAS = (0.95, 0.99)
    MODEL_SEED = 20200528   # one model for every workload seed; a drawn model sets the CRPS scale
    PATH_LENGTH = 4000

    def __init__(self, seed: int, workdir: str):
        super().__init__(workdir)
        self.params = random_stable_params(np.random.default_rng(self.MODEL_SEED), 4, (2, 1, 1))
        p = self.params.spec.p
        config = simulation.SimulationConfig(params=self.params, n=self.PATH_LENGTH,
                                             seed=derived_seed(seed, 5))
        self.path = simulation.simulate(config).series
        self.values = self.path.values
        # origins spread along the path: neighbouring origins score nearly the same returns
        step = (self.PATH_LENGTH - 2) // self.cycle
        self.origins = [origin_at(self.values, p, step * (j + 1) - 1) for j in range(self.cycle)]

    def warm_up(self) -> None:
        self.run_job(0)

    def run_job(self, i: int):
        origin = self.origins[i % self.cycle]
        rows = []
        for h, predictive in ((1, forecasting.predictive_one_step), (2, forecasting.predictive_two_step)):
            mix = predictive(self.params, origin)
            mom = forecasting.mixture_moments(mix)
            mvp = portfolio.mvp_weights(mom.mean, mom.cov, horizon=h)
            target = mvp.expected_return + 0.5 * mvp.sd
            eff = portfolio.efficient_weights(mom.mean, mom.cov, target, horizon=h)
            for sol in (mvp, eff):
                rmix = portfolio.project(mix, sol.weights)
                reports = [risk.var_es(rmix, alpha) for alpha in self.ALPHAS]
                realized = float(sol.weights @ self.values[origin.t + h])
                rows.append((sol, rmix, reports, risk.crps_mixture(rmix, realized)))
        return rows

    def check(self, i: int, out) -> list[str]:
        errors = []
        for sol, rmix, reports, crps in out:
            if abs(float(sol.weights.sum()) - 1.0) > 1e-10:
                errors.append(f"job {i}: {sol.kind} weights sum to {sol.weights.sum()!r}")
            for rep in reports:
                if not rep.es <= rep.var:
                    errors.append(f"job {i}: ES {rep.es!r} above VaR {rep.var!r}")
                gap = abs(risk.mixture_cdf(rmix, rep.var) - (1.0 - rep.alpha))
                if not gap <= 1e-10:
                    errors.append(f"job {i}: cdf(VaR) misses 1-alpha={1 - rep.alpha:g} by {gap:.3e}")
            if not (math.isfinite(crps) and crps >= 0.0):
                errors.append(f"job {i}: CRPS {crps!r} not finite and nonnegative")
        self._crps.setdefault(i % self.cycle, [float(row[3]) for row in out])
        key = digest(*[np.concatenate([row[0].weights, [r.var for r in row[2]], [r.es for r in row[2]],
                                       [row[3]]]) for row in out])
        return errors + self._repeat_gate(i, key)

    def loglik_per_obs(self) -> float:
        """Log-likelihood per scored row of the fixed model on the scored path."""
        return model.log_likelihood(self.params, self.path) / (self.path.n - self.params.spec.p)


class McForecast(Workload):
    """Monte Carlo forecast at h=10 with 1e5 paths: simulate_forward does the work."""

    name = "mc_forecast"
    cycle = 40
    trace_jobs = 8
    PATH_LENGTH = 2000
    HORIZON = 10
    N_PATHS = 100_000
    Z_BOUND = 6.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(workdir)
        self.params = reference_params()
        # origins spread along a long path, which also scores the loglik
        config = simulation.SimulationConfig(params=self.params, n=self.PATH_LENGTH,
                                             seed=derived_seed(seed, 6))
        self.path = simulation.simulate(config).series
        step = self.PATH_LENGTH // self.cycle
        self.origins = [origin_at(self.path.values, self.params.spec.p, step * (j + 1) - 1)
                        for j in range(self.cycle)]
        self.mc_seeds = [derived_seed(seed, 7, j) for j in range(self.cycle)]
        self.weights = np.full(self.params.spec.m, 1.0 / self.params.spec.m)

    def warm_up(self) -> None:
        forecasting.predictive_h_step_mc(self.params, self.origins[0], self.HORIZON, 1000, seed=0)

    def run_job(self, i: int):
        j = i % self.cycle
        return forecasting.predictive_h_step_mc(self.params, self.origins[j], self.HORIZON,
                                                self.N_PATHS, seed=self.mc_seeds[j])

    def check(self, i: int, out) -> list[str]:
        endpoints, mom = out
        j = i % self.cycle
        prm = self.params
        mean, cov = exact_moments(prm.pi, prm.theta0, prm.theta, prm.omega,
                                  self.origins[j].history, self.HORIZON)
        n = endpoints.shape[0]
        errors = []
        z_mean = np.abs(mom.mean - mean) / np.sqrt(np.diag(cov) / n)
        centred = endpoints - mom.mean
        products = centred[:, :, None] * centred[:, None, :]
        se_cov = products.std(axis=0) / math.sqrt(n)
        z_cov = np.abs(mom.cov - cov) / se_cov
        worst = max(float(z_mean.max()), float(z_cov.max()))
        if not worst <= self.Z_BOUND:
            errors.append(f"job {i}: MC moments {worst:.2f} standard errors from the exact moments")
        if j not in self._crps:
            # CRPS the MC predictive of the equal-weight portfolio expects of itself:
            # E|X - X'| / 2 = sum_i (2i - n - 1) x_(i) / n^2 over the sorted sample
            x = np.sort(endpoints @ self.weights)
            ranks = 2.0 * np.arange(1, n + 1) - n - 1.0
            self._crps[j] = [float(ranks @ x) / (n * n)]
        return errors + self._repeat_gate(i, digest(mom.mean, mom.cov))

    def loglik_per_obs(self) -> float:
        """Log-likelihood per scored row of the reference model on the path of the origins."""
        return model.log_likelihood(self.params, self.path) / (self.path.n - self.params.spec.p)


WORKLOADS = {cls.name: cls for cls in (Fit, Rolling, Score, McForecast)}
