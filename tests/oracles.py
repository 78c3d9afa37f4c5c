"""Independent reference implementations used to cross-check the library.

Everything here is written from the model definitions directly -- plain
formulas, exhaustive enumeration, dictionary counting, normal equations --
and deliberately shares no code with the implementations under test.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

DENSITY_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# Emission densities (linear space), written from the model definition.

def gbm_density(y_t: float, y_prev: float, mu0: float, sigma0: float) -> float:
    z = (y_t - y_prev - mu0) / sigma0
    return math.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * sigma0)


def bubble_density(y_t: float, y_prev: float, mu1: float, sigma1: float, n: float) -> float:
    u_t = math.exp(-n * y_t)
    u_prev = math.exp(-n * y_prev)
    z = (u_t - u_prev + n * mu1) / (n * sigma1)
    jac = n * u_t
    return jac * math.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * n * sigma1)


def switch_density(y_t: float, y_prev: float, i: int, j: int, mu0, mu1, kappa) -> float:
    if (i, j) == (1, 0):
        return (1.0 / abs(mu0)) if (-kappa <= y_t < y_prev) else 0.0
    if (i, j) == (0, 1):
        return (1.0 / abs(mu1)) if (y_prev <= y_t <= kappa) else 0.0
    raise ValueError((i, j))


def emission(y_t, y_prev, i, j, theta) -> float:
    """Floored emission density for the pair (s_{t-1}=i, s_t=j)."""
    mu0, sigma0, mu1, sigma1, n, kappa = theta
    if (i, j) == (0, 0):
        d = gbm_density(y_t, y_prev, mu0, sigma0)
    elif (i, j) == (1, 1):
        d = bubble_density(y_t, y_prev, mu1, sigma1, n)
    else:
        d = switch_density(y_t, y_prev, i, j, mu0, mu1, kappa)
    return max(d, DENSITY_FLOOR)


# ---------------------------------------------------------------------------
# Exhaustive path enumeration for the hidden chain posteriors.

def enumerate_posteriors(y, q, initial, theta):
    """Exact posteriors by summing over every state path.

    Returns (filtering, pairwise_filtered, smoothing, pairwise_smoothed,
    loglik) where filtering[t] = P(s_t = 1 | y_0..y_t), smoothing[t] =
    P(s_t = 1 | y_0..y_T), and the pairwise arrays have shape (N-1, 2, 2)
    indexed [t-1, s_{t-1}, s_t].
    """
    y = np.asarray(y, dtype=float)
    N = len(y)

    def path_weight(path, upto):
        w = initial[path[0]]
        for t in range(1, upto + 1):
            w *= q[path[t - 1]][path[t]] * emission(y[t], y[t - 1], path[t - 1], path[t], theta)
        return w

    filtering = np.empty(N)
    pairwise_f = np.zeros((N - 1, 2, 2))
    filtering[0] = initial[1]
    for t in range(1, N):
        total = 0.0
        state1 = 0.0
        pair = np.zeros((2, 2))
        for path in itertools.product((0, 1), repeat=t + 1):
            w = path_weight(path, t)
            total += w
            if path[t] == 1:
                state1 += w
            pair[path[t - 1], path[t]] += w
        filtering[t] = state1 / total
        pairwise_f[t - 1] = pair / total

    smoothing = np.zeros(N)
    pairwise_s = np.zeros((N - 1, 2, 2))
    total = 0.0
    for path in itertools.product((0, 1), repeat=N):
        w = path_weight(path, N - 1)
        total += w
        for t in range(N):
            if path[t] == 1:
                smoothing[t] += w
        for t in range(1, N):
            pairwise_s[t - 1, path[t - 1], path[t]] += w
    smoothing /= total
    pairwise_s /= total

    # Marginal likelihood = sum over full paths; filter loglik should match.
    return filtering, pairwise_f, smoothing, pairwise_s, math.log(total)


# ---------------------------------------------------------------------------
# Step-by-step filter and smoother recursions on numpy scalars: the loops the
# library ran before its float-scalar kernels, kept as the reference those
# kernels must match bit for bit (same values, same failing step, same
# message).

class RecursionFailure(ArithmeticError):
    def __init__(self, step, message):
        self.step = step
        super().__init__(message)


def hamilton_filter_steps(dens, q, initial):
    """Forward recursion over floored emission densities ``dens`` (T, 2, 2).

    Returns (filtering, pairwise_filtered, loglik); filtering is unclipped.
    """
    pi = np.asarray(initial, dtype=float)
    q00, q01, q10, q11 = q[0, 0], q[0, 1], q[1, 0], q[1, 1]
    T = len(dens)
    pairwise = np.empty((T, 2, 2))
    filtering = np.empty(T + 1)
    filtering[0] = pi[1]
    f0, f1 = float(pi[0]), float(pi[1])
    loglik = 0.0
    for t in range(T):
        d = dens[t]
        w00 = q00 * f0 * d[0, 0]
        w01 = q01 * f0 * d[0, 1]
        w10 = q10 * f1 * d[1, 0]
        w11 = q11 * f1 * d[1, 1]
        norm = w00 + w01 + w10 + w11
        if not (norm > 0.0 and math.isfinite(norm)):
            raise RecursionFailure(t + 1, f"filter normaliser {norm!r} at step {t + 1}")
        pairwise[t, 0, 0] = w00 / norm
        pairwise[t, 0, 1] = w01 / norm
        pairwise[t, 1, 0] = w10 / norm
        pairwise[t, 1, 1] = w11 / norm
        f0 = pairwise[t, 0, 0] + pairwise[t, 1, 0]
        f1 = pairwise[t, 0, 1] + pairwise[t, 1, 1]
        filtering[t + 1] = f1
        loglik += math.log(norm)
    return filtering, pairwise, loglik


def kim_smoother_steps(filtering, pairwise_filtered):
    """Backward recursion seeded with ``filtering[-1]``.

    Returns (smoothing, pairwise_smoothed); smoothing is unclipped.
    """
    N = len(filtering)
    smoothing = np.empty(N)
    smoothing[-1] = filtering[-1]
    pairwise = np.empty((N - 1, 2, 2))
    for t in range(N - 2, -1, -1):
        pf = pairwise_filtered[t]
        landing = pf.sum(axis=0)
        s_next = np.array([1.0 - smoothing[t + 1], smoothing[t + 1]])
        pair = np.empty((2, 2))
        for j in range(2):
            if landing[j] <= 0.0:
                if s_next[j] > 1e-12:
                    raise RecursionFailure(
                        t + 1, f"zero backward denominator for state {j} at step {t + 1}"
                    )
                pair[:, j] = 0.0
            else:
                pair[:, j] = pf[:, j] * (s_next[j] / landing[j])
        pairwise[t] = pair
        smoothing[t] = pair[1, :].sum()
    return smoothing, pairwise


def feedback_equation(y, w11, mu1, sigma1, n):
    """First-order condition for n, one grid point at a time."""
    u = np.exp(np.clip(-n * y, -700.0, 700.0))
    u_t, u_prev = u[1:], u[:-1]
    du = u_t - u_prev
    terms = (
        -(du + n * mu1) * (-u_t * y[1:] + u_prev * y[:-1] + mu1) / (n**2 * sigma1**2)
        + 1.0 / n
        - y[1:]
    )
    return float(np.dot(w11, terms))


# ---------------------------------------------------------------------------
# Expected complete-data log-likelihood over fixed posterior weights.
#
# Only the (0,0) and (1,1) emission blocks and the chain term enter; the
# flat switch heights are structural constants of the update equations.

def estep_objective(y, weights, mu0, sigma0, mu1, sigma1, n, q):
    y = np.asarray(y, dtype=float)
    total = normal_block_objective(y, weights, mu0, sigma0)
    total += bubble_block_objective(y, weights, mu1, sigma1, n)
    for t in range(1, len(y)):
        w = weights[t - 1]
        for i in range(2):
            for j in range(2):
                if w[i, j] > 0:
                    total += w[i, j] * math.log(q[i][j])
    return total


def normal_block_objective(y, weights, mu0, sigma0):
    """The objective terms that vary with (mu0, sigma0)."""
    y = np.asarray(y, dtype=float)
    total = 0.0
    for t in range(1, len(y)):
        w = weights[t - 1][0, 0]
        if w > 0:
            total += w * math.log(gbm_density(y[t], y[t - 1], mu0, sigma0))
    return total


def bubble_block_objective(y, weights, mu1, sigma1, n):
    """The objective terms that vary with (mu1, sigma1, n)."""
    y = np.asarray(y, dtype=float)
    total = 0.0
    for t in range(1, len(y)):
        w = weights[t - 1][1, 1]
        if w > 0:
            total += w * math.log(bubble_density(y[t], y[t - 1], mu1, sigma1, n))
    return total


def golden_section_max(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol * max(1.0, abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Transfer entropy by dictionary counting over occupied cells.

def transfer_entropy_counting(u, v, base: float = 10.0) -> float:
    u = list(u)
    v = list(v)
    assert len(u) == len(v) >= 3
    triples = Counter()
    target_pairs = Counter()
    lagged_pairs = Counter()
    singles = Counter()
    for t in range(1, len(u)):
        triples[(u[t], u[t - 1], v[t - 1])] += 1
        target_pairs[(u[t], u[t - 1])] += 1
        lagged_pairs[(u[t - 1], v[t - 1])] += 1
        singles[u[t - 1]] += 1
    total = len(u) - 1
    te = 0.0
    for (a, b, c), cnt in triples.items():
        p3 = cnt / total
        ratio = (p3 * (singles[b] / total)) / (
            (target_pairs[(a, b)] / total) * (lagged_pairs[(b, c)] / total)
        )
        te += p3 * math.log(ratio, base)
    return max(te, 0.0)


# ---------------------------------------------------------------------------
# OLS by normal equations.

def ols_normal_equations(y, X, include_intercept: bool = True):
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n = len(y)
    design = np.column_stack([np.ones(n), X]) if include_intercept else X
    p = design.shape[1]
    xtx = design.T @ design
    beta = np.linalg.solve(xtx, design.T @ y)
    resid = y - design @ beta
    dof = n - p
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(xtx)
    se = np.sqrt(np.diag(cov))
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum()) if include_intercept else float(y @ y)
    r2 = 1.0 - ss_res / ss_tot
    k = X.shape[1]
    adj = 1.0 - (1.0 - r2) * (n - 1) / dof if include_intercept else 1.0 - (1.0 - r2) * n / dof
    f_stat = (r2 / k) / ((1.0 - r2) / dof)
    return beta, se, r2, adj, f_stat


# ---------------------------------------------------------------------------
# Synthetic two-regime data generators (u-space simulation of the bubble leg).

def gen_gbm_log_prices(T, mu, sigma, seed, y0=0.0):
    rng = np.random.default_rng(seed)
    return y0 + np.concatenate([[0.0], np.cumsum(rng.normal(mu, sigma, T))])


def gen_bubble_log_prices(T, mu1, sigma1, n, seed, y0=0.0):
    """Bubble-regime path: p^{-n} steps down by n*mu1 per day plus noise."""
    rng = np.random.default_rng(seed)
    u = np.empty(T + 1)
    u[0] = math.exp(-n * y0)
    for t in range(1, T + 1):
        u[t] = u[t - 1] - n * mu1 + n * sigma1 * rng.standard_normal()
        if u[t] <= 0:
            raise RuntimeError("bubble path crossed the singularity; re-seed or shorten")
    return -np.log(u) / n
