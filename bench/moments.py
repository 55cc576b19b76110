"""Exact conditional moments of a mixture VAR at any horizon, in companion form.

This is the benchmark's own reference, written from the model definition and
independent of the package's forecasting code: it reads only the parameter
arrays. With the stacked state ``X_t = (Y_t, ..., Y_{t-p+1})`` and a label
``k`` drawn with probability ``pi[k]`` independently of the past,

    X_{t+1} = c_k + A_k X_t + E eps,   eps ~ N(0, omega[k]),

where ``c_k = E theta0[k]``, ``A_k`` is the companion matrix of component
``k`` and ``E = [I, 0, ..., 0]'``. The first and second moments of the state
then follow the linear recursion

    mu <- sum_k pi[k] (c_k + A_k mu)
    M  <- sum_k pi[k] (c_k c_k' + c_k mu' A_k' + A_k mu c_k' + A_k M A_k' + E omega[k] E')

started from the known history (``mu = x0``, ``M = x0 x0'``). The mean and
covariance of ``Y_{t+h}`` are the leading ``m`` block of ``mu`` and
``M - mu mu'`` after ``h`` steps.
"""

from __future__ import annotations

import numpy as np


def exact_moments(pi, theta0, theta, omega, history, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean (m,) and covariance (m, m) of ``Y_{t+horizon}`` given ``history`` (p, m), oldest first."""
    pi = np.asarray(pi, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    theta = np.asarray(theta, dtype=float)
    omega = np.asarray(omega, dtype=float)
    g, p, m = theta.shape[0], theta.shape[1], theta0.shape[1]
    if horizon < 1 or p < 1:
        raise ValueError("need horizon >= 1 and p >= 1")
    d = m * p
    # the stacked state is newest first: (Y_t, Y_{t-1}, ...)
    state0 = np.asarray(history, dtype=float)[::-1].reshape(-1)
    consts = np.zeros((g, d))
    consts[:, :m] = theta0
    comps = np.zeros((g, d, d))
    for k in range(g):
        for i in range(p):
            comps[k, :m, i * m:(i + 1) * m] = theta[k, i]
        comps[k, m:, :-m] = np.eye(d - m)
    noise = np.zeros((g, d, d))
    noise[:, :m, :m] = omega
    mu = state0
    second = np.outer(state0, state0)
    for _ in range(horizon):
        new_mu = np.zeros(d)
        new_second = np.zeros((d, d))
        for k in range(g):
            a, c = comps[k], consts[k]
            a_mu = a @ mu
            cross = np.outer(c, a_mu)
            new_mu += pi[k] * (c + a_mu)
            new_second += pi[k] * (np.outer(c, c) + cross + cross.T + a @ second @ a.T + noise[k])
        mu, second = new_mu, new_second
    cov = second - np.outer(mu, mu)
    cov = 0.5 * (cov + cov.T)
    return mu[:m].copy(), cov[:m, :m].copy()
