"""Drawdown, rank, regression and correlation statistics.

These are the evaluation tools for the influence indicators: the maximum
percentage loss of each node over a stress window, and rank-based
regressions/correlations of those losses on the indicators.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollinearityError, InsufficientDataError, UndefinedCorrelationError

SIGNIFICANCE_LEVELS = ((0.01, "***"), (0.05, "**"), (0.1, "*"))


@dataclass(frozen=True)
class RegressionResult:
    """OLS estimates with classical standard errors and fit statistics."""

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

    def __post_init__(self):
        if not -1e-12 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError("R^2 must lie in [0, 1]")
        if self.adj_r_squared > self.r_squared + 1e-12:
            raise ValueError("adjusted R^2 cannot exceed R^2")
        if self.f_statistic < 0:
            raise ValueError("F statistic must be nonnegative")


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
    # imported here, not with the module, so that `import sinet` loads no scipy
    from scipy.linalg import qr
    from scipy.special import stdtr

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

    # Pivoted QR exposes the first column that adds no new direction.
    _, r, piv = qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(n, p) * np.finfo(float).eps
    rank = int((diag > tol).sum())
    if rank < p:
        offender = int(piv[rank])
        raise CollinearityError("intercept" if offender == 0 else offender - 1)

    q_mat, r_mat = np.linalg.qr(design)
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
    p_all = 2.0 * stdtr(dof, -np.abs(t_all))  # what 2 * stats.t.sf(|t|, dof) evaluates

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
    denom = np.sqrt((n_pairs - ties_x) * (n_pairs - ties_y))
    if denom == 0.0:
        raise UndefinedCorrelationError("kendall")
    return concordant_minus_discordant / denom


def correlations(x, y) -> CorrelationReport:
    """Pearson on raw values, Spearman as Pearson on average-tie ranks, and
    tie-corrected Kendall tau-b."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d vectors of equal length")
    if len(x) < 2:
        raise InsufficientDataError("correlations need at least 2 observations")
    pearson = _pearson(x, y, "pearson")
    spearman = _pearson(rank_transform(x), rank_transform(y), "spearman")
    kendall = _kendall_tau_b(x, y)
    return CorrelationReport(pearson, spearman, kendall)
