"""Independent brute-force oracles.

Everything here recomputes quantities from raw arrays with the most direct
formula available (explicit loops, explicit inverses, quadrature, bisection
on an erf-based CDF), deliberately avoiding the package's code paths so the
two sides of every comparison stay independent.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.integrate
import scipy.linalg
from scipy.stats import multivariate_normal


def naive_residual(theta0_k, theta_mats_k, y, t):
    """Direct evaluation: y[t] - theta0 - sum_i theta_i @ y[t-i]."""
    e = np.array(y[t], dtype=float) - np.asarray(theta0_k, dtype=float)
    for i, mat in enumerate(theta_mats_k, start=1):
        e = e - np.asarray(mat, dtype=float) @ y[t - i]
    return e


def naive_log_likelihood(pi, theta0, theta, omega, y, p):
    """Double loop over time and components with scipy's mvn density."""
    total = 0.0
    n = len(y)
    g = len(pi)
    for t in range(p, n):
        acc = 0.0
        for k in range(g):
            mean = np.array(theta0[k], dtype=float)
            for i in range(1, theta.shape[1] + 1):
                mean = mean + theta[k, i - 1] @ y[t - i]
            acc += pi[k] * multivariate_normal.pdf(y[t], mean=mean, cov=omega[k])
        total += math.log(acc)
    return total


def naive_responsibilities(pi, theta0, theta, omega, y, p):
    """Direct (non-log-space) posterior probabilities; rows may underflow to 0/0."""
    n = len(y)
    g = len(pi)
    tau = np.empty((n - p, g))
    for t in range(p, n):
        dens = np.empty(g)
        for k in range(g):
            mean = np.array(theta0[k], dtype=float)
            for i in range(1, theta.shape[1] + 1):
                mean = mean + theta[k, i - 1] @ y[t - i]
            dens[k] = pi[k] * multivariate_normal.pdf(y[t], mean=mean, cov=omega[k])
        tau[t - p] = dens / dens.sum() if dens.sum() > 0 else np.nan
    return tau


def wls_explicit(x, w, y):
    """Weighted least squares by explicit inverse: (X'WX)^-1 X'WY."""
    xtwx = x.T @ (w[:, None] * x)
    xtwy = x.T @ (w[:, None] * y)
    return np.linalg.inv(xtwx) @ xtwy


def kron_spectral_radius(pi, theta):
    """Spectral radius of sum_k pi_k A_k (x) A_k, companions and Kronecker product built by hand.

    ``theta`` is (g, p, m, m). Each A_k uses the oldest-first layout of
    :func:`companion_moments` (identity blocks above the diagonal, AR blocks
    on the last block row); spectra do not depend on the block order. A p=0
    model gets zero (m, m) blocks.
    """
    theta = np.asarray(theta, dtype=float)
    p, m = theta.shape[1], theta.shape[2]
    q = max(p, 1)
    d = q * m
    big = np.zeros((d * d, d * d))
    for weight, theta_k in zip(pi, theta):
        a = np.zeros((d, d))
        for b in range(q - 1):
            a[b * m:(b + 1) * m, (b + 1) * m:(b + 2) * m] = np.eye(m)
        for i in range(1, p + 1):
            a[d - m:, d - i * m:d - (i - 1) * m] = theta_k[i - 1]
        for i in range(d):
            for j in range(d):
                big[i * d:(i + 1) * d, j * d:(j + 1) * d] += weight * a[i, j] * a
    eigs = scipy.linalg.eigvals(big)
    return float(np.max(np.abs(eigs)))


def erf_cdf(x):
    """Standard normal CDF through math.erf (independent of scipy.special.ndtr)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def mixture_cdf_direct(weights, means, sds, x):
    return sum(w * erf_cdf((x - mu) / sd) for w, mu, sd in zip(weights, means, sds))


def bisect_quantile(weights, means, sds, q, iters: int = 200):
    """Pure bisection on the erf-based mixture CDF."""
    lo = min(m - 12.0 * s for m, s in zip(means, sds))
    hi = max(m + 12.0 * s for m, s in zip(means, sds))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mixture_cdf_direct(weights, means, sds, mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def crps_quadrature(weights, means, sds, x):
    """CRPS as the integral of (F(y) - 1{y >= x})^2 dy, split at the kink."""
    lo = min(m - 12.0 * s for m, s in zip(means, sds))
    hi = max(m + 12.0 * s for m, s in zip(means, sds))
    lo = min(lo, x - 1.0)
    hi = max(hi, x + 1.0)

    def below(y):
        return mixture_cdf_direct(weights, means, sds, y) ** 2

    def above(y):
        return (mixture_cdf_direct(weights, means, sds, y) - 1.0) ** 2

    left, _ = scipy.integrate.quad(below, lo, x, epsabs=1e-11, epsrel=1e-11, limit=300)
    right, _ = scipy.integrate.quad(above, x, hi, epsabs=1e-11, epsrel=1e-11, limit=300)
    return left + right


def es_quadrature(weights, means, sds, alpha):
    """Expected shortfall at level ``alpha`` (tail probability 1 - alpha) as the
    lower-tail mean (1/(1-alpha)) int_{-inf}^{q} y f(y) dy, integrated by quadrature
    on an exp-based density and cut at the bisection quantile q."""
    tail = 1.0 - alpha
    cut = bisect_quantile(weights, means, sds, tail)
    lo = min(min(m - 12.0 * s for m, s in zip(means, sds)), cut - 1.0)

    def density(y):
        return sum(w * math.exp(-0.5 * ((y - mu) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
                   for w, mu, sd in zip(weights, means, sds))

    partial, _ = scipy.integrate.quad(lambda y: y * density(y), lo, cut,
                                      epsabs=1e-12, epsrel=1e-12, limit=300)
    return partial / tail


def predictive_pairs(pi, theta0, theta, omega, history):
    """One- and two-step predictive mixtures, one component or pair at a time.

    ``theta`` is (g, p, m, m) with zero blocks beyond a component's order and
    ``history`` (p, m) oldest first, so Y_{t+1-i} is ``history[p - i]``. Returns
    ``((weights, means, covs), (weights, means, covs))`` for h=1 and h=2. The
    h=2 pair (k, l), stored at k*g + l, has component k generate Y_{t+2} and l
    generate Y_{t+1}, with the hand-expanded mean

        theta0[k] + theta[k,0] @ theta0[l]
        + sum_{i=1..p-1} (theta[k,i] + theta[k,0] @ theta[l,i-1]) @ Y_{t+1-i}
        + theta[k,0] @ theta[l,p-1] @ Y_{t+1-p}

    and covariance omega[k] + theta[k,0] @ omega[l] @ theta[k,0].T.
    """
    pi = np.asarray(pi, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    theta = np.asarray(theta, dtype=float)
    omega = np.asarray(omega, dtype=float)
    g, p, m = theta.shape[0], theta.shape[1], theta0.shape[1]
    y = np.asarray(history, dtype=float).reshape(p, m)
    one = (pi.copy(), np.empty((g, m)), omega.copy())
    for k in range(g):
        mean = theta0[k].copy()
        for i in range(1, p + 1):
            mean = mean + theta[k, i - 1] @ y[p - i]
        one[1][k] = mean
    two = (np.empty(g * g), np.empty((g * g, m)), np.empty((g * g, m, m)))
    for k in range(g):
        first = theta[k, 0] if p >= 1 else np.zeros((m, m))
        for l in range(g):
            j = k * g + l
            two[0][j] = pi[k] * pi[l]
            mean = theta0[k] + first @ theta0[l]
            for i in range(1, p):
                mean = mean + (theta[k, i] + first @ theta[l, i - 1]) @ y[p - i]
            if p >= 1:
                mean = mean + first @ theta[l, p - 1] @ y[0]
            two[1][j] = mean
            two[2][j] = omega[k] + first @ omega[l] @ first.T
    return one, two


def predictive_sequences(pi, theta0, theta, omega, history, horizon):
    """Horizon-h predictive mixture ``(weights, means, covs)``, one label sequence at a time.

    Sequences come from ``itertools.product`` with the newest label leading:
    the tuple (k_h, ..., k_1) has k_s generate Y_{t+s}. Along a sequence,
    Y_{t+s} is tracked as the affine function ``a_s + sum_r b[s][r] @ e_r``
    of the independent innovations e_r ~ N(0, omega[k_r]), r = 1..s, through
    the recursion ``Y_{t+s} = theta0[k_s] + sum_i theta[k_s, i-1] @ Y_{t+s-i}
    + e_s`` written out lag by lag, with ``history`` (p, m, oldest first)
    supplying Y_{t+s-i} for s - i <= 0. The component's mean is a_h and its
    covariance ``sum_r b[h][r] @ omega[k_r] @ b[h][r].T``.
    """
    pi = np.asarray(pi, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    theta = np.asarray(theta, dtype=float)
    omega = np.asarray(omega, dtype=float)
    g, p, m = theta.shape[0], theta.shape[1], theta0.shape[1]
    y = np.asarray(history, dtype=float).reshape(p, m)
    n = g ** horizon
    weights, means, covs = np.empty(n), np.empty((n, m)), np.empty((n, m, m))
    for j, seq in enumerate(itertools.product(range(g), repeat=horizon)):
        labels = seq[::-1]                     # labels[s - 1] generates Y_{t+s}
        level = list(y)                        # a_s for s <= 0, oldest first
        loads = [[np.zeros((m, m))] * horizon for _ in level]   # b[s][r] = 0 for s <= 0
        for s in range(1, horizon + 1):
            k = labels[s - 1]
            a = theta0[k].copy()
            b = [np.zeros((m, m)) for _ in range(horizon)]
            b[s - 1] = np.eye(m)
            for i in range(1, p + 1):
                past = len(level) - i          # index of Y_{t+s-i}
                a = a + theta[k, i - 1] @ level[past]
                for r in range(s - 1):
                    b[r] = b[r] + theta[k, i - 1] @ loads[past][r]
            level.append(a)
            loads.append(b)
        weights[j] = np.prod([pi[k] for k in labels])
        means[j] = level[-1]
        covs[j] = sum(loads[-1][r] @ omega[labels[r]] @ loads[-1][r].T for r in range(horizon))
    return weights, means, covs


def simulate_forward_loop(pi, theta0, theta, omega, history, horizon, n_paths, rng):
    """Forward paths (n_paths, horizon, m) from ``history`` (p, m, oldest first), one path at a time.

    Each step draws every path's label with ``rng.choice`` and then an
    (n_paths, m) block of standard normals; path j applies its component's
    recursion to its own past with a ``np.linalg.cholesky`` factor of omega.
    """
    pi = np.asarray(pi, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    theta = np.asarray(theta, dtype=float)
    g, p, m = theta.shape[0], theta.shape[1], theta0.shape[1]
    chol = [np.linalg.cholesky(np.asarray(omega[k], dtype=float)) for k in range(g)]
    history = np.asarray(history, dtype=float).reshape(p, m)
    out = np.empty((n_paths, horizon, m))
    for step in range(horizon):
        labels = rng.choice(g, size=n_paths, p=pi)
        eps = rng.standard_normal((n_paths, m))
        for j in range(n_paths):
            past = np.vstack([history, out[j, :step]])
            k = labels[j]
            y = theta0[k] + chol[k] @ eps[j]
            for i in range(1, p + 1):
                y = y + theta[k, i - 1] @ past[-i]
            out[j, step] = y
    return out


def simulate_loop(theta0, theta, omega, labels, eps, initial):
    """One path (len(labels), m) from pre-drawn labels and standard normal innovations.

    Step t applies component ``labels[t]``'s recursion
    ``theta0[k] + sum_i theta[k, i-1] @ y[t-i] + chol_k @ eps[t]`` to the
    path so far, which starts from the (p, m) rows of ``initial`` (oldest
    first); ``chol_k`` is a ``np.linalg.cholesky`` factor of ``omega[k]``.
    """
    theta0 = np.asarray(theta0, dtype=float)
    theta = np.asarray(theta, dtype=float)
    g, p, m = theta.shape[0], theta.shape[1], theta0.shape[1]
    chol = [np.linalg.cholesky(np.asarray(omega[k], dtype=float)) for k in range(g)]
    ys = np.vstack([np.asarray(initial, dtype=float).reshape(p, m), np.empty((len(labels), m))])
    for t, k in enumerate(labels):
        y = theta0[k] + chol[k] @ eps[t]
        for i in range(1, p + 1):
            y = y + theta[k, i - 1] @ ys[p + t - i]
        ys[p + t] = y
    return ys[p:]


def companion_moments(pi, theta0, theta, omega, history, horizon):
    """Mean (m,) and covariance (m, m) of Y_{t+horizon} given ``history`` (p, m, oldest first).

    The state s = (Y_{t-q+1}', ..., Y_t')' with q = max(p, 1), oldest block
    first, moves as s <- F_k s + G (theta0[k] + e) with e ~ N(0, omega[k]) and
    label k drawn with probability pi[k]: F_k shifts the blocks up and writes
    the component's recursion into the last block row, G = (0, ..., 0, I)'.
    The first two moments of s follow exactly, step by step.
    """
    pi = np.asarray(pi, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    theta = np.asarray(theta, dtype=float)
    omega = np.asarray(omega, dtype=float)
    g, p, m = theta.shape[0], theta.shape[1], theta0.shape[1]
    q = max(p, 1)
    d = q * m
    shift = np.zeros((d, d))
    for b in range(q - 1):
        shift[b * m:(b + 1) * m, (b + 1) * m:(b + 2) * m] = np.eye(m)
    big_f = []
    for k in range(g):
        f = shift.copy()
        for i in range(1, p + 1):
            f[d - m:, d - i * m:d - (i - 1) * m] = theta[k, i - 1]
        big_f.append(f)
    lift = np.zeros((d, m))
    lift[d - m:] = np.eye(m)
    mean = np.zeros(d)
    mean[d - p * m:] = np.asarray(history, dtype=float).reshape(-1)
    second = np.outer(mean, mean)
    for _ in range(horizon):
        new_mean = np.zeros(d)
        new_second = np.zeros((d, d))
        for k in range(g):
            f, c = big_f[k], lift @ theta0[k]
            fm = f @ mean
            new_mean += pi[k] * (fm + c)
            new_second += pi[k] * (f @ second @ f.T + np.outer(fm, c) + np.outer(c, fm)
                                   + lift @ (np.outer(theta0[k], theta0[k]) + omega[k]) @ lift.T)
        mean, second = new_mean, new_second
    cov = second[d - m:, d - m:] - np.outer(mean[d - m:], mean[d - m:])
    return mean[d - m:], 0.5 * (cov + cov.T)


def markowitz_explicit(mean, cov):
    """Frontier scalars and weights with an explicit matrix inverse."""
    inv = np.linalg.inv(cov)
    ones = np.ones(len(mean))
    a = ones @ inv @ mean
    b = mean @ inv @ mean
    c = ones @ inv @ ones
    d = c * b - a * a
    w_mvp = inv @ ones / c

    def w_eff(target):
        return (b * inv @ ones - a * inv @ mean + target * (c * inv @ mean - a * inv @ ones)) / d

    return a, b, c, d, w_mvp, w_eff
