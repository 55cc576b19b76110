"""Sample-path generation for mixture VAR processes.

Each step draws a component label from the mixing weights, then applies that
component's autoregression plus a Gaussian innovation through the lower
Cholesky factor of its covariance. :func:`simulate` (one path, all labels
drawn before all innovations) and :func:`simulate_forward` (many paths, drawn
step by step) differ only in their draws and run the same step kernel. Paths
are bit-reproducible given the seed; the generator algorithm is a package
constant (``RNG_ALGORITHM``) recorded in simulation metadata.

:func:`simulate_forward` makes each step's draws one step ahead on one helper
thread while the kernel runs the current step. The draws are the same numbers
in the same order as when made inline, so the caller's generator ends in the
same state and the output is bit-identical. The thread is joined before the
call returns or raises, and the caller's generator must not be used from
another thread during the call.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (MvarParameters, SeriesMatrix, _frozen, _regressor_row, _require_finite,
                    _require_shape, stacked_coefficients)

#: numpy's default bit generator; per-start/per-chunk substreams are spawned
#: from a SeedSequence, which is the documented splittable-stream mechanism.
RNG_ALGORITHM = "pcg64"


@dataclass(frozen=True)
class SimulationConfig:
    """Experiment design for one simulated path."""

    params: MvarParameters
    n: int
    burn_in: int = 200
    seed: int = 0
    initial: np.ndarray | None = None   # (p, m) starting values, oldest first

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.initial is not None:
            init = _frozen(self.initial)
            _require_shape(init, (self.params.spec.p, self.params.spec.m), "initial")
            _require_finite(init, "initial")
            object.__setattr__(self, "initial", init)


@dataclass(frozen=True)
class SimulationResult:
    """A simulated path together with the component labels actually drawn."""

    series: SeriesMatrix
    labels: np.ndarray          # (n,) 0-based component indices, post burn-in
    config: SimulationConfig
    rng_algorithm: str = RNG_ALGORITHM


def _draw_labels(rng: np.random.Generator, pi: np.ndarray, rows: np.ndarray,
                 uniforms: np.ndarray) -> None:
    """Add to ``rows`` labels drawn exactly as ``rng.choice(len(pi), len(rows), p=pi)`` draws them.

    ``choice`` takes one uniform ``u`` per label from ``rng.random`` and
    returns the number of normalised cumulative weights, bar the last, that
    are ``<= u``; this does the same without ``choice``'s argument handling and
    binary search. ``uniforms`` is a float buffer of ``len(rows)`` values that
    receives the uniforms.
    """
    cdf = pi.cumsum()
    cdf /= cdf[-1]
    rng.random(out=uniforms)
    for c in cdf[:-1]:
        rows += uniforms >= c


def _run_steps(params: MvarParameters, history: np.ndarray, draws, out: np.ndarray) -> None:
    """Advance ``out.shape[1]`` paths from the (p, m) ``history``, writing step ``s`` to ``out[s]``.

    ``draws`` yields per step the (n_paths,) take-rows ``g * i + label_i`` and
    the (n_paths, m) standard normal innovations. Each step is one matrix
    product: the regressor rows ``x = (1, Y_{t-1}', ..., Y_{t-p}', eps')`` of
    all paths times the block matrix ``W = [W_1 ... W_g]``, where ``W_k`` is
    the stacked coefficients ``B_k`` over ``chol_k'``, so ``x' W_k`` is
    component ``k``'s draw; each path keeps the block of its own label.
    """
    spec = params.spec
    g, m, p = spec.g, spec.m, spec.p
    n_paths = out.shape[1]
    d = 1 + m * p
    blocks = np.concatenate(
        [stacked_coefficients(params), params.cholesky_factors().transpose(0, 2, 1)], axis=1
    )
    w = np.ascontiguousarray(blocks.transpose(1, 0, 2)).reshape(d + m, g * m)
    x = np.empty((n_paths, d + m))
    x[:, :d] = _regressor_row(history)
    # views made once: slicing in the loop costs as much as one path's arithmetic
    x_eps, lag1, older, newer = x[:, d:], x[:, 1:1 + m], x[:, 1 + m:d], x[:, 1:d - m]
    cand = np.empty((n_paths, g * m))
    # row i*g + k of rows_of_cand is path i's draw from component k
    rows_of_cand = cand.reshape(-1, m)
    take = rows_of_cand.take   # the method, not np.take: no fromnumeric wrapper per step
    for step, (rows, eps) in enumerate(draws):
        x_eps[...] = eps
        np.matmul(x, w, out=cand)
        new = out[step]
        take(rows, axis=0, out=new, mode="clip")
        if p > 0:   # the new draw becomes lag 1, the oldest lag drops out
            older[...] = newer
            lag1[...] = new


def _one_step_ahead(helper: ThreadPoolExecutor, draw, n_steps: int):
    """Yield ``draw(s % 2)`` for each ``s < n_steps`` while ``draw`` for ``s + 1`` runs on ``helper``.

    Step ``s + 2`` reuses step ``s``'s buffer set; it is submitted only when the
    consumer asks for step ``s + 1``, that is after it has finished with step ``s``.
    """
    pending = helper.submit(draw, 0)
    for step in range(n_steps):
        ready = pending.result()   # re-raises an error of the helper here
        if step + 1 < n_steps:
            pending = helper.submit(draw, (step + 1) % 2)
        yield ready


def simulate(config: SimulationConfig) -> SimulationResult:
    """Generate a path of length ``config.n`` after discarding ``config.burn_in`` steps.

    Draw order is fixed (all labels first, then all innovations) so outputs are
    reproducible bit-for-bit across runs with the same config. The path starts
    from ``config.initial``, or from zeros.
    """
    params = config.params
    spec = params.spec
    rng = np.random.default_rng(config.seed)
    total = config.burn_in + config.n
    labels = np.zeros(total, dtype=np.intp)   # one path, so a take-row is the label
    _draw_labels(rng, params.pi, labels, np.empty(total))
    eps = rng.standard_normal((total, spec.m))
    history = np.zeros((spec.p, spec.m)) if config.initial is None else config.initial
    ys = np.empty((total, 1, spec.m))
    _run_steps(params, history, zip(labels[:, None], eps[:, None]), ys)
    return SimulationResult(
        series=SeriesMatrix(ys[config.burn_in:, 0]),
        labels=labels[config.burn_in:].copy(),
        config=config,
    )


def simulate_forward(
    params: MvarParameters,
    history: np.ndarray,
    horizon: int,
    n_paths: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized forward simulation from a fixed history, no burn-in.

    ``history`` is (p, m), oldest first, and must be finite. Returns all
    simulated steps with shape (n_paths, horizon, m). Used by Monte Carlo
    forecasting.

    The draw order is fixed: per step, ``rng.choice(g, n_paths, p=pi)`` for
    the labels, then ``rng.standard_normal((n_paths, m))`` for the
    innovations, for exactly ``horizon`` steps. The result is a transposed
    view of a step-major (horizon, n_paths, m) array, so ``paths[:, -1, :]``
    is one contiguous block.

    Each step's draws are made one step ahead on one helper thread while the
    kernel runs the current step. The stream and the output bits are those of
    drawing inline; the thread is joined before the call returns or raises, and
    an error raised while drawing is raised here. ``rng`` must not be used
    from another thread during the call.
    """
    spec = params.spec
    g, m, p = spec.g, spec.m, spec.p
    history = np.asarray(history, dtype=float)
    _require_shape(history, (p, m), "history")
    _require_finite(history, "history")
    if horizon < 1 or n_paths < 1:
        raise ValueError("horizon and n_paths must be >= 1")
    offsets = g * np.arange(n_paths)
    # two buffer sets: the helper fills one while the kernel reads the other
    rows = np.empty((2, n_paths), dtype=np.intp)
    eps = np.empty((2, n_paths, m))

    def draw(b: int):
        np.copyto(rows[b], offsets)
        # the uniforms sit in the innovation buffer until the normals overwrite them
        _draw_labels(rng, params.pi, rows[b], eps[b].reshape(-1)[:n_paths])
        rng.standard_normal(out=eps[b])
        return rows[b], eps[b]

    out = np.empty((horizon, n_paths, m))
    with ThreadPoolExecutor(max_workers=1) as helper:   # leaving the block joins the thread
        _run_steps(params, history, _one_step_ahead(helper, draw, horizon), out)
    return out.transpose(1, 0, 2)
