"""Independent reference implementations used to cross-check the library.

Everything here is written from the model definitions directly -- plain
formulas, exhaustive enumeration, dictionary counting, normal equations --
and deliberately shares no code with the implementations under test.
"""
from __future__ import annotations

import csv
import itertools
import math
import re
from collections import Counter
from datetime import date
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from sinet.errors import ConfigurationError


# ---------------------------------------------------------------------------
# Emission densities (linear space), written from the model definition.

_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def bubble_steps_decimal(y, n: float, digits: int = 60) -> list[Decimal]:
    """u_{t-1} - u_t for u = e^{-n y}, unclamped (for |n y| < 700), with the
    floats taken as exact, in ``digits``-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = digits
        u = [(-Decimal(n) * Decimal(float(v))).exp() for v in y]
        return [a - b for a, b in zip(u[:-1], u[1:])]


def bubble_logdensity_decimal(y_t, y_prev, mu1, sigma1, n, digits: int = 60) -> float:
    """The bubble log density -n y_t - z^2 / 2 - ln(sqrt(2 pi) sigma1), z =
    (n mu1 - (u_{t-1} - u_t)) / (n sigma1), in ``digits``-digit decimal."""
    step, = bubble_steps_decimal([y_prev, y_t], n, digits)
    with localcontext() as ctx:
        ctx.prec = digits
        n, mu1, sigma1 = Decimal(n), Decimal(mu1), Decimal(sigma1)
        z = (n * mu1 - step) / (n * sigma1)
        return float(-n * Decimal(y_t) - z * z / 2 - (2 * _PI).ln() / 2 - sigma1.ln())


def weighted_moments(w, x, digits: int = 60) -> tuple[float, float, float]:
    """The mean, the population deviation and the mean absolute value of the
    Decimals ``x`` under the float weights ``w``, in ``digits``-digit
    decimal."""
    with localcontext() as ctx:
        ctx.prec = digits
        w = [Decimal(float(v)) for v in w]
        tot = sum(w)
        mean = sum(a * b for a, b in zip(w, x)) / tot
        var = sum(a * (b - mean) ** 2 for a, b in zip(w, x)) / tot
        size = sum(a * abs(b) for a, b in zip(w, x)) / tot
        return float(mean), float(var.sqrt()), float(size)


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
    """Emission density for the pair (s_{t-1}=i, s_t=j); 0 off a switch band."""
    mu0, sigma0, mu1, sigma1, n, kappa = theta
    if (i, j) == (0, 0):
        return gbm_density(y_t, y_prev, mu0, sigma0)
    if (i, j) == (1, 1):
        return bubble_density(y_t, y_prev, mu1, sigma1, n)
    return switch_density(y_t, y_prev, i, j, mu0, mu1, kappa)


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
# Filter and smoother recursions: the forward one in high-precision log-domain
# arithmetic, the backward one on numpy scalars and in exact rational
# arithmetic. The library's cyclic-reduction kernels must fail where these
# fail and otherwise match them within tolerance (tests/test_kernel_parity.py).

class RecursionFailure(ArithmeticError):
    def __init__(self, step, message):
        self.step = step
        super().__init__(message)


def _log_sum_exp(terms):
    top = max(terms)
    return top + sum((x - top).exp() for x in terms).ln()


def hamilton_filter_exact(logdens, q, initial, digits=50):
    """Forward recursion over the float log emission table ``logdens``
    (2, 2, T), indexed [i, j, t], in ``digits``-digit decimal arithmetic
    with an unbounded exponent range, rounded once at the end.

    A state pair (i, j) of step t is live when state i has weight, q_ij > 0
    and its log density is finite; every other pair weighs exactly 0. Each
    step works on the logarithms of the live weights and renormalises, so no
    weight underflows however small it is. A step with no live pair raises
    :class:`RecursionFailure` with the normaliser 0.0. Returns (filtering,
    pairwise_filtered, loglik).
    """
    T = logdens.shape[-1]
    filtering = np.empty(T + 1)
    filtering[0] = float(initial[1])
    pairwise = np.zeros((T, 2, 2))
    with localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = digits, MIN_EMIN, MAX_EMAX
        log_q = [[Decimal(float(v)).ln() if v > 0 else None for v in row] for row in q]
        alpha = [Decimal(float(v)).ln() if v > 0 else None for v in initial]
        loglik = Decimal(0)
        for t in range(T):
            cells = {}
            for i in range(2):
                for j in range(2):
                    d = float(logdens[i, j, t])
                    assert not (math.isnan(d) or d == math.inf), "log density must be < inf"
                    if alpha[i] is not None and log_q[i][j] is not None and d > -math.inf:
                        cells[i, j] = alpha[i] + log_q[i][j] + Decimal(d)
            if not cells:
                raise RecursionFailure(t + 1, f"filter normaliser 0.0 at step {t + 1}")
            norm = _log_sum_exp(list(cells.values()))
            loglik += norm
            for (i, j), cell in cells.items():
                pairwise[t, i, j] = float((cell - norm).exp())
            alpha = [None, None]
            for j in range(2):
                into = [cell for (_, k), cell in cells.items() if k == j]
                if into:
                    alpha[j] = _log_sum_exp(into) - norm
            filtering[t + 1] = float(alpha[1].exp()) if alpha[1] is not None else 0.0
        return filtering, pairwise, float(loglik)


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


def kim_smoother_exact(filtering, pairwise_filtered):
    """:func:`kim_smoother_steps` in exact rational arithmetic over the same
    float inputs, rounded once at the end; a landing column of probability
    zero fails under the same 1e-12 rule."""
    s = Fraction(float(filtering[-1]))
    T = len(pairwise_filtered)
    smoothing = np.empty(T + 1)
    smoothing[-1] = float(s)
    pairwise = np.empty((T, 2, 2))
    for t in range(T - 1, -1, -1):
        pf = [[Fraction(float(v)) for v in row] for row in pairwise_filtered[t]]
        s_next = (1 - s, s)
        pair = [[Fraction(0)] * 2 for _ in range(2)]
        for j in range(2):
            landing = pf[0][j] + pf[1][j]
            if landing == 0:
                if s_next[j] > Fraction(1e-12):
                    raise RecursionFailure(
                        t + 1, f"zero backward denominator for state {j} at step {t + 1}"
                    )
                continue
            for i in range(2):
                pair[i][j] = pf[i][j] * s_next[j] / landing
        pairwise[t] = [[float(v) for v in row] for row in pair]
        s = pair[1][0] + pair[1][1]
        smoothing[t] = float(s)
    return smoothing, pairwise


def bubble_block_slope(y, w11, mu1, sigma1, n):
    """Q(n) = -sum_t w_t (n y_t + D_t^2 / (2 n^2 sigma1^2)), the bubble block
    up to a constant, its derivative Q'(n), and the scale of the rounding
    error of a Q' computed in double precision from differences of
    exponentials: the magnitudes of its terms, plus their change when each
    u_t and y_t u_t moves by its own magnitude. D_t = u_t - u_{t-1} + n mu1
    with u = e^{-n y}, unclamped (for |n y| < 700). Here each step of u is
    taken as u_{t-1} expm1(-n (y_t - y_{t-1})), which keeps its digits when
    n (y_t - y_{t-1}) is small, where a difference of exponentials would not.
    """
    y = np.asarray(y, dtype=float)
    u = np.exp(-n * y)
    dy = np.diff(y)
    du = u[:-1] * np.expm1(-n * dy)
    d = du + n * mu1
    d_n = mu1 - dy * u[1:] - y[:-1] * du  # dD/dn
    c = 1.0 / (n**3 * sigma1**2)
    q = -float(np.dot(w11, n * y[1:] + 0.5 * n * c * d * d))
    slope = -float(np.dot(w11, y[1:] + c * (n * d * d_n - d * d)))
    u_size, yu_size = u[1:] + u[:-1], np.abs(y[1:] * u[1:]) + np.abs(y[:-1] * u[:-1])
    terms = np.abs(y[1:]) + c * (n * np.abs(d * d_n) + d * d)
    moves = c * ((n * np.abs(d_n) + 2.0 * np.abs(d)) * u_size + n * np.abs(d) * yu_size)
    return q, slope, float(np.dot(np.abs(w11), terms + moves))


def feedback_equation(y, w11, mu1, sigma1, n):
    """First-order condition for n with the sigma1 condition substituted:
    the w11-weighted sum over steps of d/dn of the bubble log-density."""
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
# The EM line search the library ran before it scored its shorter steps in
# batched filter calls, kept as the reference that batching must match bit
# for bit (tests/test_em_line_search.py).

def em_fit_sequential(series, config):
    """``sinet.hmm.em_fit`` with a one-step-at-a-time line search: the
    library's own E, M and n steps, and each damped step length lam = 1,
    1/2, ..., 2^-11 scored by a ``hamilton_filter`` call of its own, in
    turn, until one does not lower the log-likelihood. This is the line
    search as it was before the shorter steps were scored in batches, kept
    as the reference for that batching. Returns ``em_fit``'s four outputs
    and the accepted step length of each iteration.
    """
    from sinet import hmm

    y = series.log_prices
    params = hmm._initial_params(y, config)
    pi0 = np.array([0.5, 0.5])
    trace = hmm.EMTrace()
    accepted = []
    iteration = 0
    try:
        filt = hmm.hamilton_filter(series, params, initial=pi0)
        trace.logliks.append(filt.loglik)
        for iteration in range(1, config.max_iterations + 1):
            smth = hmm.kim_smoother(filt)
            updated = hmm.m_step(smth, series, params.regime.n, freeze=params)
            n_new = params.regime.n
            if smth.pairwise_smoothed[:, 1, 1].sum() > 0.0:
                n_new = hmm.solve_feedback_exponent(
                    smth, series, updated.regime.mu1, updated.regime.sigma1,
                    params.regime.n, search=(config.n_min, config.n_max),
                )
            candidate = hmm.ModelParams(
                hmm.replace(updated.regime, n=n_new), updated.q)
            lam = 1.0
            for _ in range(12):
                trial = hmm._blend_params(params, candidate, lam)
                trial_filt = hmm.hamilton_filter(series, trial, initial=pi0)
                if trial_filt.loglik >= filt.loglik:
                    break
                lam *= 0.5
            else:
                trace.stalled = True
                break
            accepted.append(lam)
            params, filt = trial, trial_filt
            delta = abs(filt.loglik - trace.logliks[-1]) / max(abs(trace.logliks[-1]), 1e-300)
            trace.logliks.append(filt.loglik)
            if delta <= config.tol:
                trace.converged = True
                break
    except hmm.NumericalFailureError as err:
        raise hmm.NumericalFailureError(err.step, f"EM iteration {iteration}: {err}") from err
    return params, trace, filt, hmm.kim_smoother(filt), accepted


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
    """The objective terms that vary with (mu0, sigma0), summed exactly
    (``math.fsum``) so finite differences see no accumulation noise."""
    y = np.asarray(y, dtype=float)
    return math.fsum(
        weights[t - 1][0, 0] * math.log(gbm_density(y[t], y[t - 1], mu0, sigma0))
        for t in range(1, len(y)) if weights[t - 1][0, 0] > 0
    )


def bubble_block_objective(y, weights, mu1, sigma1, n):
    """The objective terms that vary with (mu1, sigma1, n), summed exactly."""
    y = np.asarray(y, dtype=float)
    return math.fsum(
        weights[t - 1][1, 1] * math.log(bubble_density(y[t], y[t - 1], mu1, sigma1, n))
        for t in range(1, len(y)) if weights[t - 1][1, 1] > 0
    )


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
# The per-pair transfer entropy and influence matrix the library computed
# before its batched kernel, kept as the reference that kernel must match
# (values within 1e-13 and the same errors), and a 50-digit decimal
# reference both are held to. Series are plain arrays of bin symbols or
# probabilities.

def joint_counts(u, v, bin_count, mask=None):
    """Triple counts over (u_t, u_{t-1}, v_{t-1}), shape (B, B, B)."""
    if len(u) != len(v):
        raise ValueError(f"series lengths differ: {len(u)} vs {len(v)}")
    if len(u) < 3:
        raise ValueError("need at least 3 observations to form lagged triples")
    B = bin_count
    codes = (u[1:] * B + u[:-1]) * B + v[:-1]
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != codes.shape:
            raise ValueError("mask must align with the lagged triples")
        codes = codes[mask]
        if len(codes) < 2:
            raise ValueError("mask keeps fewer than 2 triples")
    return np.bincount(codes, minlength=B**3).reshape(B, B, B)


def transfer_entropy_pairwise(u, v, bin_count, base=10.0, mask=None):
    """Transfer entropy from v to u by one histogram of the pair."""
    if not 1.0 < base < math.inf:
        raise ValueError(f"base must be finite and exceed 1, got {base!r}")
    triple = joint_counts(u, v, bin_count, mask)
    n = int(triple.sum())
    p3 = triple / n
    p_tp = triple.sum(axis=2) / n
    p_lp = triple.sum(axis=0) / n
    p_l = triple.sum(axis=(0, 2)) / n
    a, b, c = np.nonzero(triple)
    num = p3[a, b, c] * p_l[b]
    den = p_tp[a, b] * p_lp[b, c]
    value = float(np.dot(p3[a, b, c], np.log(num / den))) / float(np.log(base))
    return max(value, 0.0)


def transfer_entropy_decimal(u, v, bin_count, base=10.0, mask=None, digits=50):
    """Transfer entropy from v to u in ``digits``-digit decimal arithmetic,
    from the exact integer counts: sum c3 ln(c3 lag / (tp lp)) / (n ln base)."""
    triple = joint_counts(u, v, bin_count, mask)
    tp, lp, lag = triple.sum(axis=2), triple.sum(axis=0), triple.sum(axis=(0, 2))
    with localcontext() as ctx:
        ctx.prec = digits
        total = Decimal(0)
        for a, b, c in zip(*np.nonzero(triple)):
            count = int(triple[a, b, c])
            ratio = Decimal(count * int(lag[b])) / Decimal(int(tp[a, b]) * int(lp[b, c]))
            total += count * ratio.ln()
        return float(total / (int(triple.sum()) * Decimal(base).ln()))


def bubble_day_mask(x, y, level):
    """Triples where both probability series sit at or above ``level`` on
    both days."""
    both = np.minimum(x, y) >= level
    return both[1:] & both[:-1]


def sii_matrix_pairwise(series, bin_count=10, base=10.0, bubble_only=False,
                        bubble_level=0.5):
    """Influence matrix over aligned probability arrays, one pair at a time
    in (source, target) order."""
    binned = [np.minimum(np.floor(np.asarray(x) * bin_count).astype(np.int64), bin_count - 1)
              for x in series]
    k = len(series)
    values = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            mask = (bubble_day_mask(series[i], series[j], bubble_level)
                    if bubble_only else None)
            values[i, j] = transfer_entropy_pairwise(
                binned[j], binned[i], bin_count, base, mask
            )
    return values


# ---------------------------------------------------------------------------
# OLS by normal equations.

def ols_normal_equations(y, X):
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n = len(y)
    design = np.column_stack([np.ones(n), X])
    p = design.shape[1]
    xtx = design.T @ design
    beta = np.linalg.solve(xtx, design.T @ y)
    resid = y - design @ beta
    dof = n - p
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(xtx)
    se = np.sqrt(np.diag(cov))
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    k = X.shape[1]
    adj = 1.0 - (1.0 - r2) * (n - 1) / dof
    f_stat = (r2 / k) / ((1.0 - r2) / dof)
    return beta, se, r2, adj, f_stat


# ---------------------------------------------------------------------------
# Ranks and the influence network, one element at a time.

def average_tie_ranks(values):
    """Ascending ranks from 1, each run of equal sorted values given the
    mean of the positions it covers."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v))
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def sin_by_pairs(nodes, values, groups, table, threshold, losses=None):
    """Edges, size values and color values of the network, pair by pair and
    node by node: each unordered pair in row-major order gives its positive
    net direction, and each group ranks its own nodes."""
    candidates = []
    for i, x in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            net = float(values[i, j] - values[j, i])
            if net > 0.0:
                candidates.append((x, nodes[j], net))
            elif net < 0.0:
                candidates.append((nodes[j], x, -net))
    nets = [c[2] for c in candidates]
    lo, hi = min(nets, default=0.0), max(nets, default=0.0)
    edges = [(src, dst, 1.0 if hi == lo else (net - lo) / (hi - lo))
             for src, dst, net in candidates if net >= threshold]
    sizes, colors = {}, {n: None for n in nodes}
    for group in ("industrial", "financial"):
        members = [n for n in nodes if groups[n] == group]
        if group == "industrial":
            score = [table.value(n, "NSII-on-IX") for n in members]
        else:
            score = [table.value(n, "NSII-on-Fin") - table.value(n, "SI-from-IX") for n in members]
        sizes.update(zip(members, average_tie_ranks(score).tolist()))
        if losses is not None:
            colors.update(zip(members, average_tie_ranks([losses[n] for n in members]).tolist()))
    return edges, sizes, colors


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


# ---------------------------------------------------------------------------
# Price and probabilities CSV ingestion, one row at a time in the documented
# check order: the references the library's readers must match, whether
# numpy's tokenizer or the line reader reads the table.

def read_price_table_rows(path, column_map=None) -> dict:
    """Read a (date, price[, market_cap]) CSV, as UTF-8 without a leading
    byte-order mark, with ``csv.reader``, checking one row at a time, so the
    first failing check names its 1-based line."""
    colmap = {"date": "date", "price": "price", "market_cap": "market_cap"}
    if column_map:
        colmap.update(column_map)
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"{path} does not exist")

    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigurationError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for field in ("date", "price"):
            if colmap[field] not in header:
                raise ConfigurationError(
                    f"{path}: missing required column {colmap[field]!r} (maps {field})"
                )
        date_idx = header.index(colmap["date"])
        price_idx = header.index(colmap["price"])
        cap_idx = header.index(colmap["market_cap"]) if colmap["market_cap"] in header else None

        dates, prices, caps, seen = [], [], [], set()
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                day = date.fromisoformat(row[date_idx].strip())
            except (ValueError, IndexError):
                raise ConfigurationError(f"{path}: unparseable date on line {lineno}") from None
            if day in seen:
                raise ConfigurationError(f"{path}: duplicate date {day} on line {lineno}")
            seen.add(day)
            try:
                price = float(row[price_idx])
            except (ValueError, IndexError):
                raise ConfigurationError(f"{path}: unparseable price on line {lineno}") from None
            if not np.isfinite(price):
                raise ConfigurationError(f"{path}: non-finite price on line {lineno}")
            if price <= 0:
                raise ConfigurationError(f"{path}: non-positive price on line {lineno}")
            cap = None
            if cap_idx is not None:
                try:
                    cap = float(row[cap_idx])
                except (ValueError, IndexError):
                    raise ConfigurationError(
                        f"{path}: unparseable market_cap on line {lineno}"
                    ) from None
                if not np.isfinite(cap):
                    raise ConfigurationError(f"{path}: non-finite market_cap on line {lineno}")
                if cap <= 0:
                    raise ConfigurationError(f"{path}: non-positive market_cap on line {lineno}")
            dates.append(day)
            prices.append(price)
            caps.append(cap)

    order = np.argsort(np.array(dates, dtype="datetime64[D]"), kind="stable")
    table = {
        "dates": np.array(dates, dtype="datetime64[D]")[order],
        "prices": np.asarray(prices, dtype=float)[order],
    }
    if cap_idx is not None:
        table["caps"] = np.asarray(caps, dtype=float)[order]
    return table


def read_probabilities_rows(path, column: str = "filtering") -> dict:
    """Read one probability column of a pipeline table one line at a time,
    so the first failing check names its 1-based line.

    Lines are ``str.splitlines()`` of the text; empty lines and lines
    starting with '#' are skipped, and the first other line is the header.
    On each data line the date is checked (plain YYYY-MM-DD that numpy
    reads, from year 1, after the previous row's), then the probability
    (present, ``float()`` reads it, in [0, 1]). Returns ``dates`` and
    ``values``.
    """
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if line and line[0] != "#":
            rows.append((lineno, line.split(",")))
    if not rows:
        raise ConfigurationError(f"{path}: empty table")
    header = rows.pop(0)[1]
    if column not in header:
        raise ConfigurationError(f"{path}: no column {column!r}")
    j = header.index(column)

    dates, values = [], []
    for lineno, cells in rows:
        def fail(what):
            return ConfigurationError(f"{path}: {what} on line {lineno}")

        try:
            day = np.datetime64(cells[0], "D")
        except ValueError:
            day = None
        if (day is None or not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", cells[0])
                or day < np.datetime64("0001-01-01")):  # numpy reads year 0, date() does not
            raise fail(f"date {cells[0]!r} not in YYYY-MM-DD form")
        if dates and day <= dates[-1]:
            raise fail(f"{'duplicate' if day == dates[-1] else 'unsorted'} date {day}")
        if len(cells) <= j:
            raise fail(f"missing {column}")
        try:
            value = float(cells[j])
        except ValueError:
            raise fail(f"unparseable {column}") from None
        if not 0.0 <= value <= 1.0:
            raise fail("probability outside [0, 1]")
        dates.append(day)
        values.append(value)
    return {"dates": np.array(dates, dtype="datetime64[D]"),
            "values": np.array(values, dtype=float)}
