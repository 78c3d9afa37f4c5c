"""Drawdown, rank, regression and correlation statistics.

These are the evaluation tools for the influence indicators: the maximum
percentage loss of each node over a stress window, and rank-based
regressions/correlations of those losses on the indicators.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    CollinearityError,
    ConvergenceError,
    InsufficientDataError,
    UndefinedCorrelationError,
)

SIGNIFICANCE_LEVELS = ((0.01, "***"), (0.05, "**"), (0.1, "*"))


@dataclass(frozen=True)
class RegressionResult:
    """OLS estimates with classical standard errors and fit statistics.

    :func:`ols_regress` makes 0 <= R^2 <= 1, adjusted R^2 <= R^2 and F >= 0.
    """

    coefficients: np.ndarray
    std_errors: np.ndarray
    t_values: np.ndarray
    p_values: np.ndarray
    markers: tuple[str, ...]
    intercept: float
    intercept_std_error: float
    r_squared: float
    adj_r_squared: float
    f_statistic: float


@dataclass(frozen=True)
class CorrelationReport:
    """Pearson, Spearman and Kendall tau-b coefficients for one pair."""

    pearson: float
    spearman: float
    kendall: float

    def __post_init__(self):
        for name in ("pearson", "spearman", "kendall"):
            v = getattr(self, name)
            if not -1.0 - 1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"{name} coefficient {v} outside [-1, 1]")


def max_loss(values) -> float:
    """Maximum peak-to-trough decline divided by the series maximum, in percent.

    Single pass: track the running maximum and the largest drop from it, then
    scale by the global maximum. A non-decreasing series scores 0.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) < 2:
        raise InsufficientDataError("max_loss needs a 1-d series of length >= 2")
    if np.any(~np.isfinite(v)) or np.any(v <= 0):
        raise ValueError("values must be finite and strictly positive")
    running_max = np.maximum.accumulate(v)
    worst_drop = float((running_max - v).max())
    return 100.0 * worst_drop / float(v.max())


def rank_transform(values) -> np.ndarray:
    """Ascending ranks starting at 1, ties averaged over the span they cover."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) == 0:
        raise ValueError("rank_transform needs a non-empty 1-d vector")
    if not np.isfinite(v).all():
        raise ValueError("values holds a non-finite value")
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    # each run of equal sorted values [first, last] gets their mean rank
    first = np.flatnonzero(np.concatenate([[True], sorted_v[1:] != sorted_v[:-1]]))
    last = np.append(first[1:], len(v)) - 1
    ranks = np.empty(len(v))
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def ols_regress(y, X) -> RegressionResult:
    """Least squares with an intercept via QR, with classical errors and
    significance markers.

    Raises ValueError naming ``y`` or ``X`` when it holds a non-finite value,
    :class:`CollinearityError` naming the first dependent column when the
    intercept-augmented design is rank deficient, and
    :class:`InsufficientDataError` when there are too few rows.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, k = X.shape
    if len(y) != n:
        raise ValueError("y and X must have the same number of rows")
    for name, values in (("y", y), ("X", X)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} holds a non-finite value")
    if n <= k + 1:
        raise InsufficientDataError(f"need more than {k + 1} observations, got {n}")

    design = np.column_stack([np.ones(n), X])
    p = k + 1

    # |R_jj| is column j's distance from the span of the columns before it,
    # so the first column that falls within rounding of that span is the
    # first dependent one. The intercept column comes first and never is.
    q_mat, r_mat = np.linalg.qr(design)
    tol = np.linalg.norm(design, axis=0) * max(n, p) * np.finfo(float).eps
    dependent = np.flatnonzero(np.abs(np.diag(r_mat)) <= tol)
    if len(dependent):
        raise CollinearityError(int(dependent[0]) - 1)

    beta = np.linalg.solve(r_mat, q_mat.T @ y)
    resid = y - design @ beta
    dof = n - p
    s2 = float(resid @ resid) / dof
    r_inv = np.linalg.solve(r_mat, np.eye(p))
    cov = s2 * (r_inv @ r_inv.T)
    se = np.sqrt(np.diag(cov))

    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 0.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    adj = 1.0 - (1.0 - r2) * (n - 1) / dof
    f_stat = 0.0
    if k > 0 and r2 < 1.0:
        f_stat = (r2 / k) / ((1.0 - r2) / dof)
    elif r2 >= 1.0:
        f_stat = float("inf")

    t_all = np.divide(beta, se, out=np.zeros_like(beta), where=se > 0)
    p_all = np.array([_t_two_sided_p(float(t), dof) for t in t_all])

    markers = tuple(
        next((mark for level, mark in SIGNIFICANCE_LEVELS if pval < level), "")
        for pval in p_all[1:]
    )
    return RegressionResult(
        coefficients=beta[1:],
        std_errors=se[1:],
        t_values=t_all[1:],
        p_values=p_all[1:],
        markers=markers,
        intercept=float(beta[0]),
        intercept_std_error=float(se[0]),
        r_squared=r2,
        adj_r_squared=adj,
        f_statistic=f_stat,
    )


def _t_two_sided_p(t: float, dof: int) -> float:
    """P(|T| >= |t|) for Student's t with ``dof`` degrees of freedom.

    That is the regularized incomplete beta function I_x(dof/2, 1/2) at
    x = dof/(dof + t^2). Its complement 1 - x is formed as t^2/(dof + t^2),
    not by subtraction, which near t = 0 would cost up to 1e-7 relative.
    """
    t2 = t * t
    if t2 == math.inf:  # |t| > 1.3e154, where p < 1e-154 at any dof
        return 0.0
    x, x_c = dof / (dof + t2), t2 / (dof + t2)
    if x_c == 0.0:  # t^2/dof underflows, and 1 - p is far below rounding
        return 1.0
    a, b = 0.5 * dof, 0.5
    # ln B(a, 1/2) without a difference of lgammas, which cancels to about
    # a * eps: math.gamma while it is finite, then the asymptotic series of
    # ln G(a + 1/2) - ln G(a), whose first omitted term is below 1e-18 there
    if a + b < 171.0:
        log_beta = math.log(math.gamma(a) * math.gamma(b) / math.gamma(a + b))
    else:
        r = 1.0 / a
        log_beta = 0.5 * math.log(math.pi / a) + r / 8.0 * (1.0 - r * r / 24.0 + r**4 / 80.0)
    # log x as -log1p(t^2/dof): exact to rounding of t^2/dof, even as x -> 1
    log_front = -a * math.log1p(t2 / dof) + b * math.log(x_c) - log_beta
    # the fraction converges fast on the side of the mean (a+1)/(a+b+2)
    # nearer 0; the other side goes through I_x(a, b) = 1 - I_{1-x}(b, a)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, x_c) / b


_BETA_FRACTION_MAX_TERMS = 10_000
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min / _EPS


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), evaluated by the modified Lentz
    method (Press et al., *Numerical Recipes* 3rd ed. §6.4, ``betacf``)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= _TINY else _TINY)
    h = d
    for m in range(1, _BETA_FRACTION_MAX_TERMS + 1):
        m2 = 2 * m
        # one even and one odd term of the fraction per pass
        for coef in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                     -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = 1.0 + coef / c
            c = c if abs(c) >= _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta fraction: no convergence in {_BETA_FRACTION_MAX_TERMS} terms")


def _pearson(x: np.ndarray, y: np.ndarray, statistic: str) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        raise UndefinedCorrelationError(statistic)
    return float(xc @ yc) / denom


def _kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float:
    n = len(x)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(n, k=1)
    prod = dx[iu] * dy[iu]
    concordant_minus_discordant = float(prod.sum())
    ties_x = float((dx[iu] == 0).sum())
    ties_y = float((dy[iu] == 0).sum())
    n_pairs = n * (n - 1) / 2.0
    # nonzero: the Spearman call of correlations rejects an all-tied x or y first
    return concordant_minus_discordant / np.sqrt((n_pairs - ties_x) * (n_pairs - ties_y))


def correlations(x, y) -> CorrelationReport:
    """Pearson on raw values, Spearman as Pearson on average-tie ranks, and
    tie-corrected Kendall tau-b. Raises ValueError naming ``x`` or ``y``
    when it holds a non-finite value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d vectors of equal length")
    for name, values in (("x", x), ("y", y)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} holds a non-finite value")
    if len(x) < 2:
        raise InsufficientDataError("correlations need at least 2 observations")
    pearson = _pearson(x, y, "pearson")
    spearman = _pearson(rank_transform(x), rank_transform(y), "spearman")
    kendall = _kendall_tau_b(x, y)
    return CorrelationReport(pearson, spearman, kendall)
