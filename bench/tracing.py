"""Span tracing for the benchmark's traced run.

The tracer wraps public mvarkit functions at their module attributes, so every
call made through a module global (including calls between package modules)
opens a span. A span records its name, start, end, parent span and the job it
belongs to. Spans stay in memory in flat arrays and are written once, when the
benchmark ends. Nothing under ``src/`` is changed: the wrappers are installed
for a traced pass and removed after it.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

import mvarkit.compare
import mvarkit.estimation
import mvarkit.forecasting
import mvarkit.io
import mvarkit.model
import mvarkit.portfolio
import mvarkit.risk
import mvarkit.simulation

# (defining module, attribute, span name). Each function is patched in every
# mvarkit module that holds it, so inner calls are seen wherever they come from.
FUNCTIONS = [
    (mvarkit.estimation, "em_fit", "estimation.em_fit"),
    (mvarkit.estimation, "m_step", "estimation.m_step"),
    (mvarkit.model, "component_log_densities", "model.component_log_densities"),
    (mvarkit.compare, "rolling_origin_crps", "compare.rolling_origin_crps"),
    (mvarkit.compare, "mvp_forecast_mixtures", "compare.mvp_forecast_mixtures"),
    (mvarkit.forecasting, "predictive_one_step", "forecasting.predictive_one_step"),
    (mvarkit.forecasting, "predictive_two_step", "forecasting.predictive_two_step"),
    (mvarkit.forecasting, "mixture_moments", "forecasting.mixture_moments"),
    (mvarkit.forecasting, "predictive_h_step_mc", "forecasting.predictive_h_step_mc"),
    (mvarkit.portfolio, "mvp_weights", "portfolio.mvp_weights"),
    (mvarkit.portfolio, "efficient_weights", "portfolio.efficient_weights"),
    (mvarkit.portfolio, "project", "portfolio.project"),
    (mvarkit.portfolio, "markowitz_coefficients", "portfolio.markowitz_coefficients"),
    (mvarkit.risk, "var_es", "risk.var_es"),
    (mvarkit.risk, "crps_mixture", "risk.crps_mixture"),
    (mvarkit.risk, "mixture_quantile", "risk.mixture_quantile"),
    (mvarkit.risk, "mixture_cdf", "risk.mixture_cdf"),
    (mvarkit.simulation, "simulate_forward", "simulation.simulate_forward"),
    (mvarkit.io, "load_series", "io.load_series"),
    (mvarkit.io, "save_model", "io.save_model"),
]

# Names bound in one module only: the E-step's trace normaliser (scipy's
# logsumexp as imported by estimation) and em_fit as called by compare, which
# nests around the estimation.em_fit span.
CALL_SITES = [
    (mvarkit.estimation, "logsumexp", "estimation.logsumexp"),
    (mvarkit.compare, "em_fit", "compare.em_fit"),
]

# Per-layer metrics: name -> unit. Times are seconds per job, counts are
# totals over one traced pass (a fixed, seed-determined list of jobs).
PER_LAYER = {
    "estimation.em_fit.calls": "count",
    "estimation.em_fit.busy_s": "s/job",
    "estimation.m_step.calls": "count",
    "estimation.m_step.self_s": "s/job",
    "estimation.m_step.errors": "count",
    "estimation.iterations_per_fit": "count",
    "estimation.useful_iter_frac": "ratio",
    "estimation.logsumexp.calls": "count",
    "estimation.logsumexp.busy_s": "s/job",
    "model.validate.calls": "count",
    "model.validate.busy_s": "s/job",
    "model.component_log_densities.calls": "count",
    "model.component_log_densities.busy_s": "s/job",
    "compare.em_fit.busy_s": "s/job",
    "compare.mvp_forecast_mixtures.busy_s": "s/job",
    "compare.rolling_origin_crps.self_s": "s/job",
    "forecasting.predictive_one_step.busy_s": "s/job",
    "forecasting.predictive_two_step.busy_s": "s/job",
    "forecasting.mixture_moments.busy_s": "s/job",
    "forecasting.components": "count",
    "forecasting.predictive_h_step_mc.self_s": "s/job",
    "portfolio.mvp_weights.busy_s": "s/job",
    "portfolio.efficient_weights.busy_s": "s/job",
    "portfolio.project.busy_s": "s/job",
    "portfolio.markowitz_coefficients.calls": "count",
    "risk.var_es.busy_s": "s/job",
    "risk.crps_mixture.busy_s": "s/job",
    "risk.mixture_quantile.self_s": "s/job",
    "risk.mixture_cdf.calls": "count",
    "simulation.simulate_forward.busy_s": "s/job",
    "simulation.path_steps_per_s": "1/s",
    "simulation.bytes_out": "B",
    "io.load_series.busy_s": "s/job",
    "io.save_model.busy_s": "s/job",
    "io.model_bytes": "B",
    "trace.overhead_ratio": "ratio",
}

COUNT_METRICS = [name for name, unit in PER_LAYER.items() if unit in ("count", "B")]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.job_id = -1
        self.active = False
        self.counts: Counter = Counter()

    def _span_wrapper(self, name: str, fn, after=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.job.append(self.job_id)
            self.end.append(math.nan)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function in every mvarkit module that binds it."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if (name == "mvarkit" or name.startswith("mvarkit.")) and mod is not None]
        hooks = {
            "estimation.em_fit": self._after_em_fit,
            "forecasting.predictive_one_step": self._after_predictive,
            "forecasting.predictive_two_step": self._after_predictive,
            "simulation.simulate_forward": self._after_simulate_forward,
            "io.save_model": self._after_save_model,
        }
        for owner, attr, name in FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self._span_wrapper(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for owner, attr, name in CALL_SITES:
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        params_cls = mvarkit.model.MvarParameters
        self._patch(params_cls, "__post_init__",
                    self._span_wrapper("model.validate", params_cls.__post_init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- count hooks ---------------------------------------------------------

    def _after_em_fit(self, report, args, kwargs) -> None:
        self.counts["estimation.winning_iterations"] += int(report.iterations)

    def _after_predictive(self, mix, args, kwargs) -> None:
        self.counts["forecasting.components"] += int(mix.n_components)

    def _after_simulate_forward(self, paths, args, kwargs) -> None:
        n_paths, horizon, m = paths.shape
        self.counts["simulation.path_steps"] += n_paths * horizon
        self.counts["simulation.bytes_out"] += n_paths * horizon * m * 8   # as computed, float64

    def _after_save_model(self, _out, args, kwargs) -> None:
        path = args[0] if args else kwargs["path"]
        self.counts["io.model_bytes"] += os.path.getsize(path)

    # -- reduction -----------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, to delimit one pass."""
        return len(self.start)

    def truncate(self, length: int) -> None:
        """Drop every span recorded after the first ``length``."""
        for column in (self.name_id, self.start, self.end, self.parent, self.job):
            del column[length:]

    def summarize(self, first: int, last: int) -> tuple[Counter, Counter, Counter]:
        """Calls, busy seconds and self seconds per span name over spans [first, last).

        Busy time is the summed span duration; no traced function calls itself.
        """
        names = np.frombuffer(self.name_id, dtype=np.int32)[first:last]
        start = np.frombuffer(self.start, dtype=np.float64)[first:last]
        end = np.frombuffer(self.end, dtype=np.float64)[first:last]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last]
        dur = end - start
        child_time = np.zeros(len(dur))
        has_parent = parent >= first
        np.add.at(child_time, parent[has_parent] - first, dur[has_parent])
        calls, busy, self_time = Counter(), Counter(), Counter()
        for nid, name in enumerate(self.names):
            sel = names == nid
            if not sel.any():
                continue
            calls[name] = int(sel.sum())
            busy[name] = float(dur[sel].sum())
            self_time[name] = float((dur[sel] - child_time[sel]).sum())
        return calls, busy, self_time

    def write(self, path: str, meta: dict) -> None:
        """Write every recorded span to ``path`` (.npz) with the name table and ``meta``."""
        np.savez_compressed(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            names=np.array(self.names),
            meta=np.array(json.dumps(meta)),
        )


def pass_metrics(calls: Counter, busy: Counter, self_time: Counter, counts: Counter, n_jobs: int) -> dict:
    """Per-layer metrics of one traced pass of ``n_jobs`` jobs (overhead excluded)."""
    per_job = 1.0 / n_jobs
    out = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls[layer]
        elif stat == "errors":
            out[name] = counts[name]
        elif stat == "busy_s":
            out[name] = busy[layer] * per_job
        elif stat == "self_s":
            out[name] = self_time[layer] * per_job
    fits = calls["estimation.em_fit"]
    m_steps = calls["estimation.m_step"]
    out["estimation.iterations_per_fit"] = m_steps / fits if fits else 0.0
    out["estimation.useful_iter_frac"] = (
        counts["estimation.winning_iterations"] / m_steps if m_steps else 0.0
    )
    out["forecasting.components"] = counts["forecasting.components"]
    sim_busy = busy["simulation.simulate_forward"]
    out["simulation.path_steps_per_s"] = counts["simulation.path_steps"] / sim_busy if sim_busy else 0.0
    out["simulation.bytes_out"] = counts["simulation.bytes_out"]
    out["io.model_bytes"] = counts["io.model_bytes"]
    return out
