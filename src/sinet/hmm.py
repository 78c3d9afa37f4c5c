"""Two-state regime-switching calibration.

A hidden chain s_t in {0 (normal), 1 (bubble)} drives the emission density of
each log-price step: geometric Brownian motion while (0,0), the nonlinear
bubble transition while (1,1), and flat bounded switch densities on (0,1) and
(1,0). Calibration alternates a Hamilton forward filter, a Kim backward
smoother and closed-form posterior-weighted parameter updates, with the
feedback exponent n re-solved from its first-order condition each iteration.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bubble import (
    EXP_CLAMP,
    RegimeParams,
    bubble_transition_logdensity,
    gbm_transition_logdensity,
)
from .errors import DegenerateRegimeError, InsufficientDataError, NumericalFailureError
from .series import LogPriceSeries, ProbabilitySeries

# Emission densities are floored here (in linear space) before the filter
# normalises over the four state pairs, so a dead switch indicator cannot
# zero out the normaliser.
DENSITY_FLOOR = 1e-300

# Largest (grid points x T) block evaluated at once in the feedback-exponent
# grid scan; it bounds the scan's temporaries at a few hundred kilobytes.
FEEDBACK_GRID_BLOCK = 1 << 14


@dataclass(frozen=True)
class ModelParams:
    """Full parameter vector: regime parameters plus the 2x2 transition matrix.

    ``q[i, j]`` is P(s_t = j | s_{t-1} = i); rows must be stochastic.
    """

    regime: RegimeParams
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (2, 2):
            raise ValueError(f"q must be 2x2, got shape {q.shape}")
        if np.any(q < 0) or np.any(q > 1):
            raise ValueError("transition probabilities must lie in [0, 1]")
        if np.any(np.abs(q.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("each row of q must sum to 1")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    def stationary_distribution(self) -> np.ndarray:
        """Stationary distribution of the chain (uniform if q is the identity)."""
        q01, q10 = self.q[0, 1], self.q[1, 0]
        total = q01 + q10
        if total == 0.0:
            return np.array([0.5, 0.5])
        return np.array([q10 / total, q01 / total])


@dataclass(frozen=True)
class FilterOutput:
    """Causal posteriors from the forward pass.

    ``filtering`` holds P(s_t = 1 | y_0..y_t) for every observation date
    (the t = 0 entry is the initial distribution's bubble mass).
    ``pairwise_filtered[k]`` is the 2x2 array P(s_t=j, s_{t-1}=i | y_0..y_t)
    for the transition into t = k + 1, indexed [i, j].
    """

    filtering: ProbabilitySeries
    pairwise_filtered: np.ndarray
    loglik: float

    def __post_init__(self):
        pw = np.asarray(self.pairwise_filtered, dtype=float)
        if pw.ndim != 3 or pw.shape[1:] != (2, 2):
            raise ValueError("pairwise_filtered must have shape (T, 2, 2)")
        if len(self.filtering) != len(pw) + 1:
            raise ValueError("filtering must have one more entry than pairwise_filtered")
        if np.any(pw < 0) or np.any(pw > 1):
            raise ValueError("pairwise probabilities must lie in [0, 1]")
        if np.any(np.abs(pw.sum(axis=(1, 2)) - 1.0) > 1e-10):
            raise ValueError("each pairwise table must sum to 1")
        if np.any(np.abs(pw.sum(axis=1)[:, 1] - self.filtering.values[1:]) > 1e-10):
            raise ValueError("filtering marginal inconsistent with pairwise tables")
        pw.setflags(write=False)
        object.__setattr__(self, "pairwise_filtered", pw)


@dataclass(frozen=True)
class SmootherOutput:
    """Full-sample posteriors from the backward pass.

    ``smoothing`` holds P(s_t = 1 | y_0..y_T). ``pairwise_smoothed[k]`` is
    the 2x2 array of weights P(s_t=j, s_{t-1}=i | y_0..y_T) for the
    transition into t = k + 1, indexed [i, j].
    """

    smoothing: ProbabilitySeries
    pairwise_smoothed: np.ndarray

    def __post_init__(self):
        pw = np.asarray(self.pairwise_smoothed, dtype=float)
        if pw.ndim != 3 or pw.shape[1:] != (2, 2):
            raise ValueError("pairwise_smoothed must have shape (T, 2, 2)")
        if len(self.smoothing) != len(pw) + 1:
            raise ValueError("smoothing must have one more entry than pairwise_smoothed")
        if np.any(pw < -1e-15) or np.any(pw > 1 + 1e-15):
            raise ValueError("pairwise probabilities must lie in [0, 1]")
        # P(s_t | y_T) must equal the marginal of P(s_{t+1}, s_t | y_T).
        if np.any(np.abs(pw.sum(axis=2)[:, 1] - self.smoothing.values[:-1]) > 1e-10):
            raise ValueError("smoothing marginal inconsistent with pairwise tables")
        pw.setflags(write=False)
        object.__setattr__(self, "pairwise_smoothed", pw)


@dataclass(frozen=True)
class EMConfig:
    """Settings for :func:`em_fit` and the preprocessing stage."""

    average_window: int = 100
    tol: float = 1e-4
    max_iterations: int = 500
    n_search: tuple[float, float] = (1e-4, 10.0)
    kappa: float = 0.6
    q00_init: float = 0.95
    q11_init: float = 0.95

    def __post_init__(self):
        if self.average_window < 1:
            raise ValueError("average_window must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        lo, hi = self.n_search
        if not (0 < lo < hi):
            raise ValueError("n_search must be an increasing positive interval")
        for name in ("q00_init", "q11_init"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1)")


@dataclass
class EMTrace:
    """Per-iteration record of the fit. Log-likelihood must not decrease.

    ``stalled`` is set when the monotonicity safeguard could not find an
    ascent step, i.e. the closed-form update family cannot improve further.
    A stalled fit is not ``converged``: that flag means the relative
    log-likelihood change reached the tolerance.
    """

    params: list[ModelParams] = field(default_factory=list)
    logliks: list[float] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    converged: bool = False
    stalled: bool = False

    @property
    def iterations(self) -> int:
        return len(self.logliks)

    def validate_monotone(self, tol: float = 1e-9) -> None:
        ll = np.asarray(self.logliks)
        drops = np.diff(ll) < -tol
        if drops.any():
            k = int(np.argmax(drops))
            raise ValueError(
                f"log-likelihood decreased at iteration {k + 1}: {ll[k]} -> {ll[k + 1]}"
            )


def geometric_average_filter(series: LogPriceSeries, window: int = 100) -> LogPriceSeries:
    """Smooth a series by the trailing arithmetic mean of its log prices.

    Equivalent to replacing each price by the geometric mean of the last
    ``window`` prices. Output timestamps align with the window's right edge,
    so the result is ``window - 1`` points shorter.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(series) < window:
        raise InsufficientDataError(
            f"series of length {len(series)} is shorter than window {window}"
        )
    cs = np.concatenate([[0.0], np.cumsum(series.log_prices)])
    means = (cs[window:] - cs[:-window]) / window
    return LogPriceSeries(series.asset_id, series.timestamps[window - 1 :], means)


def _emission_densities(y: np.ndarray, params: ModelParams) -> np.ndarray:
    """Per-step emission densities, shape (T, 2, 2) indexed [t-1, i, j]."""
    r = params.regime
    if r.mu0 == 0:
        raise ValueError("mu0 must be nonzero (bubble_end switch density)")
    if r.mu1 == 0:
        raise ValueError("mu1 must be nonzero (bubble_start switch density)")
    y_t, y_prev = y[1:], y[:-1]
    dens = np.empty((len(y) - 1, 2, 2))
    # overflow to inf is allowed here; the filter reports it as a
    # numerical failure at the offending step
    with np.errstate(over="ignore"):
        dens[:, 0, 0] = np.exp(gbm_transition_logdensity(y_t, y_prev, r.mu0, r.sigma0))
        dens[:, 1, 1] = np.exp(
            bubble_transition_logdensity(y_t, y_prev, r.mu1, r.sigma1, r.n)
        )
    dens[:, 1, 0] = np.where((y_t >= -r.kappa) & (y_t < y_prev), 1.0 / abs(r.mu0), 0.0)
    dens[:, 0, 1] = np.where((y_t >= y_prev) & (y_t <= r.kappa), 1.0 / abs(r.mu1), 0.0)
    return np.maximum(dens, DENSITY_FLOOR)


def _column(values: np.ndarray) -> array:
    """Copy a 1-D float view into an ``array('d')``, which iterates as Python
    floats without boxing numpy scalars."""
    return array("d", values.tobytes())


def hamilton_filter(
    series: LogPriceSeries, params: ModelParams, initial=None
) -> FilterOutput:
    """Forward filter: predict with the chain, update with the emission
    densities, normalise over the four state pairs, and marginalise.

    ``initial`` is the distribution of s_0 (defaults to the stationary
    distribution of ``params.q``). The log-likelihood accumulates the log of
    the per-step normalisers.
    """
    y = series.log_prices
    if initial is None:
        initial = params.stationary_distribution()
    pi = np.asarray(initial, dtype=float)
    if pi.shape != (2,) or np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-9:
        raise ValueError("initial must be a length-2 distribution summing to 1")

    dens = _emission_densities(y, params)
    q00, q01, q10, q11 = (float(v) for v in params.q.ravel())

    # The recursion runs on Python floats, which do the same IEEE operations
    # in the same order as numpy scalars would, and keeps only the filtered
    # pair and the normaliser of each step; the pairwise tables are then
    # rebuilt from them in one pass.
    f0, f1 = float(pi[0]), float(pi[1])
    f0s, f1s, norms = array("d", [f0]), array("d", [f1]), array("d")
    for d00, d01, d10, d11 in zip(*(_column(dens[:, i, j]) for i in (0, 1) for j in (0, 1))):
        w00 = q00 * f0 * d00
        w01 = q01 * f0 * d01
        w10 = q10 * f1 * d10
        w11 = q11 * f1 * d11
        norm = w00 + w01 + w10 + w11
        if not 0.0 < norm < math.inf:
            step = len(norms) + 1
            # numpy's repr, as the numpy-scalar reference loop reports it
            raise NumericalFailureError(
                step, f"filter normaliser {np.float64(norm)!r} at step {step}"
            )
        f0 = w00 / norm + w10 / norm
        f1 = w01 / norm + w11 / norm
        f0s.append(f0)
        f1s.append(f1)
        norms.append(norm)
    # summed left to right like the step loop; sum() compensates on 3.12+
    loglik = 0.0
    for log_norm in map(math.log, norms):
        loglik += log_norm

    filtering = np.frombuffer(f1s)
    prior = np.stack([np.frombuffer(f0s)[:-1], filtering[:-1]], axis=1)
    pairwise = params.q * prior[:, :, None]
    pairwise *= dens
    pairwise /= np.frombuffer(norms)[:, None, None]
    probs = ProbabilitySeries(series.timestamps, np.clip(filtering, 0.0, 1.0),
                              label=f"{series.asset_id}:filtering")
    return FilterOutput(probs, pairwise, loglik)


def kim_smoother(filt: FilterOutput, params: ModelParams) -> SmootherOutput:
    """Backward smoother seeded with the final filtered distribution.

    Each backward step redistributes the smoothed mass of s_{t+1} over its
    filtered origin states:

        P(s_{t+1}=j, s_t=i | y_T)
            = P(s_t=i | s_{t+1}=j, y_0..y_{t+1}) * P(s_{t+1}=j | y_T),

    where the first factor is the pairwise filtered table normalised within
    its landing-state column. Because the emission of y_{t+1} depends on the
    state pair (not on s_{t+1} alone), conditioning on the pairwise filtered
    posterior -- rather than propagating P(s_t | y_t) through the chain
    alone -- is what makes the recursion exact for this model.

    ``params`` is accepted for interface symmetry with the filter; the
    transition matrix is already folded into the pairwise filtered tables.
    """
    del params
    pf = filt.pairwise_filtered
    N = len(pf) + 1
    landing = pf.sum(axis=1)  # P(s_{t+1}=j | y_0..y_{t+1}), indexed [t, j]

    # Scalar recursion over Python floats, newest step first: r_j is the
    # factor that carries the smoothed mass of s_{t+1}=j back onto column j
    # of the filtered table, and s is P(s_t=1 | y_T).
    s = float(filt.filtering.values[-1])
    smoothed, ratios0, ratios1 = array("d", [s]), array("d"), array("d")
    for pf10, pf11, l0, l1 in zip(_column(pf[::-1, 1, 0]), _column(pf[::-1, 1, 1]),
                                  _column(landing[::-1, 0]), _column(landing[::-1, 1])):
        if l0 <= 0.0:
            if 1.0 - s > 1e-12:
                step = N - len(smoothed)
                raise NumericalFailureError(
                    step, f"zero backward denominator for state 0 at step {step}"
                )
            r0 = 0.0
        else:
            r0 = (1.0 - s) / l0
        if l1 <= 0.0:
            if s > 1e-12:
                step = N - len(smoothed)
                raise NumericalFailureError(
                    step, f"zero backward denominator for state 1 at step {step}"
                )
            r1 = 0.0
        else:
            r1 = s / l1
        s = pf10 * r0 + pf11 * r1
        smoothed.append(s)
        ratios0.append(r0)
        ratios1.append(r1)

    smoothing = np.frombuffer(smoothed)[::-1]
    ratios = np.stack([np.frombuffer(ratios0)[::-1], np.frombuffer(ratios1)[::-1]], axis=1)
    pairwise = pf * ratios[:, None, :]
    probs = ProbabilitySeries(filt.filtering.timestamps, np.clip(smoothing, 0.0, 1.0),
                              label=filt.filtering.label.replace("filtering", "smoothing"))
    return SmootherOutput(probs, pairwise)


def _exp_neg_n_y(y: np.ndarray, n: float) -> np.ndarray:
    return np.exp(np.clip(-n * y, -EXP_CLAMP, EXP_CLAMP))


def m_step(
    smoother: SmootherOutput,
    series: LogPriceSeries,
    current_n: float,
    *,
    kappa: float = 0.6,
    freeze: Optional[ModelParams] = None,
) -> ModelParams:
    """Closed-form posterior-weighted parameter updates.

    Regime 0 moments are weighted by the (0,0) smoothed pair weights; regime 1
    moments by the (1,1) weights, in p^{-n} coordinates at ``current_n``. Each
    sigma uses the mu computed in the same call. Transition probabilities are
    ratios of summed pair weights to summed origin-state weights.

    A regime (or q row) whose total weight is zero has no update; its values
    are taken from ``freeze`` when provided, otherwise
    :class:`DegenerateRegimeError` is raised.
    """
    w = smoother.pairwise_smoothed
    y = series.log_prices
    dy = np.diff(y)
    w00 = w[:, 0, 0]
    w11 = w[:, 1, 1]

    tot0 = w00.sum()
    if tot0 > 0.0:
        mu0 = float(np.dot(w00, dy) / tot0)
        if mu0 == 0.0:
            mu0 = 1e-12  # exact zero would undefine the 1/|mu0| switch height
        sigma0 = float(np.sqrt(np.dot(w00, (dy - mu0) ** 2) / tot0))
    elif freeze is not None:
        mu0, sigma0 = freeze.regime.mu0, freeze.regime.sigma0
    else:
        raise DegenerateRegimeError(0)

    tot1 = w11.sum()
    if tot1 > 0.0:
        u = _exp_neg_n_y(y, current_n)
        du = u[1:] - u[:-1]
        mu1 = float(np.dot(w11, -du) / (current_n * tot1))
        if mu1 == 0.0:
            mu1 = 1e-12
        sigma1 = float(
            np.sqrt(np.dot(w11, (du + current_n * mu1) ** 2) / (current_n**2 * tot1))
        )
    elif freeze is not None:
        mu1, sigma1 = freeze.regime.mu1, freeze.regime.sigma1
    else:
        raise DegenerateRegimeError(1)

    q = np.empty((2, 2))
    for i in range(2):
        origin = w[:, i, 0].sum() + w[:, i, 1].sum()
        if origin > 0.0:
            q[i, 0] = w[:, i, 0].sum() / origin
            q[i, 1] = w[:, i, 1].sum() / origin
            q[i] /= q[i].sum()
        elif freeze is not None:
            q[i] = freeze.q[i]
        else:
            raise DegenerateRegimeError(i)

    regime = RegimeParams(
        mu0=mu0,
        sigma0=max(sigma0, 1e-12),
        mu1=mu1,
        sigma1=max(sigma1, 1e-12),
        n=current_n,
        kappa=kappa,
    )
    return ModelParams(regime, q)


def _bubble_block_objective(
    y: np.ndarray, w11: np.ndarray, mu1: float, sigma1: float, n: float
) -> float:
    """Expected bubble-regime log-likelihood: the only part of the E-step
    objective that depends on n."""
    logf = bubble_transition_logdensity(y[1:], y[:-1], mu1, sigma1, n)
    live = w11 > 0.0
    return float(np.dot(w11[live], np.asarray(logf)[live]))


def _feedback_equation(
    y: np.ndarray, w11: np.ndarray, mu1: float, sigma1: float, n: float
) -> float:
    """First-order condition for n (with the sigma1 condition substituted)."""
    return float(_feedback_grid(y, w11, mu1, sigma1, np.array([n], dtype=float))[0])


def _feedback_grid(
    y: np.ndarray, w11: np.ndarray, mu1: float, sigma1: float, grid: np.ndarray
) -> np.ndarray:
    """:func:`_feedback_equation` at every point of ``grid``.

    Per point n, with u = p^{-n}, the condition is the w11-weighted sum of

        -(du + n*mu1) * (u_prev*y_prev - u_t*y_t + mu1) / (n**2 * sigma1**2)
        + 1/n - y_t.

    Grid points are evaluated in blocks of at most ``FEEDBACK_GRID_BLOCK``
    elements. Every value is bitwise independent of the blocking: the
    elementwise operations are the same IEEE operations for any block shape,
    ``n**2`` is a scalar power per point (an array square rounds differently
    in rare cases), and each point keeps its own ``np.dot`` with w11, because
    a single matrix product sums in another order.
    """
    rows = max(1, FEEDBACK_GRID_BLOCK // len(y))
    values = np.empty(len(grid))
    for start in range(0, len(grid), rows):
        n = grid[start : start + rows]
        scale = np.array([v**2 * sigma1**2 for v in n])
        u = -n[:, None] * y
        # np.clip's bounds, applied in place at half its cost
        np.exp(np.minimum(np.maximum(u, -EXP_CLAMP, out=u), EXP_CLAMP, out=u), out=u)
        uy = u * y
        terms = u[:, 1:] - u[:, :-1]
        terms += (n * mu1)[:, None]
        lever = uy[:, :-1] - uy[:, 1:]
        lever += mu1
        terms *= lever
        terms /= scale[:, None]
        np.subtract((1.0 / n)[:, None], terms, out=terms)
        terms -= y[1:]
        for k, row in enumerate(terms, start):
            values[k] = np.dot(w11, row)
    return values


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Golden-section maximiser of a unimodal-ish function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
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


def _bisect_root(g, a: float, b: float, ga: float) -> Optional[float]:
    """Bisection on [a, b] until |g| < 1e-8; None if float resolution runs out."""
    for _ in range(200):
        mid = 0.5 * (a + b)
        gm = g(mid)
        if abs(gm) < 1e-8:
            return float(mid)
        if ga * gm <= 0.0:
            b = mid
        else:
            a, ga = mid, gm
        if b - a < 1e-15 * max(1.0, b):
            break
    mid = 0.5 * (a + b)
    return float(mid) if abs(g(mid)) < 1e-8 else None


def solve_feedback_exponent(
    smoother: SmootherOutput,
    series: LogPriceSeries,
    mu1: float,
    sigma1: float,
    search: tuple[float, float] = (1e-4, 10.0),
) -> float:
    """Solve the feedback exponent's first-order condition for n.

    Scans the search interval for sign changes and bisects each bracket down
    to a residual below 1e-8. The equation can have several roots away from
    the joint optimum (it embeds the sigma1 condition, which only holds at
    self-consistent parameters), so among the roots the one with the highest
    bubble-block expected log-likelihood is returned. When no bracket exists,
    falls back to maximising that objective by golden section on the same
    interval.
    """
    w11 = smoother.pairwise_smoothed[:, 1, 1]
    if w11.sum() <= 0.0:
        raise DegenerateRegimeError(1)
    y = series.log_prices
    lo, hi = search
    if not (0 < lo < hi):
        raise ValueError("search must be an increasing positive interval")

    g = lambda n: _feedback_equation(y, w11, mu1, sigma1, n)
    objective = lambda n: _bubble_block_objective(y, w11, mu1, sigma1, n)

    grid = np.geomspace(lo, hi, 257)
    values = _feedback_grid(y, w11, mu1, sigma1, grid)
    finite = np.isfinite(values)
    roots = []
    for k in range(len(grid) - 1):
        if finite[k] and finite[k + 1] and values[k] * values[k + 1] <= 0.0:
            root = _bisect_root(g, grid[k], grid[k + 1], values[k])
            if root is not None:
                roots.append(root)
    if roots:
        return max(roots, key=objective)
    return float(_golden_max(objective, lo, hi))


def ascend_feedback_exponent(
    smoother: SmootherOutput,
    series: LogPriceSeries,
    mu1: float,
    sigma1: float,
    n_current: float,
    search: tuple[float, float] = (1e-4, 10.0),
) -> float:
    """Feedback-exponent update that never lowers the bubble-block objective.

    Prefers the first-order-condition root; falls back to the golden-section
    maximiser, and keeps ``n_current`` when neither candidate improves on it.
    """
    w11 = smoother.pairwise_smoothed[:, 1, 1]
    y = series.log_prices
    objective = lambda n: _bubble_block_objective(y, w11, mu1, sigma1, n)
    best = n_current
    best_value = objective(n_current)
    candidate = solve_feedback_exponent(smoother, series, mu1, sigma1, search)
    candidate_value = objective(candidate)
    if candidate_value >= best_value:
        best = candidate
    # Every root the solver returns has a residual below 1e-8 (see
    # _bisect_root). A candidate with a larger residual is already the
    # golden-section maximiser, and searching again would return it again.
    elif abs(_feedback_equation(y, w11, mu1, sigma1, candidate)) < 1e-8:
        golden = _golden_max(objective, *search)
        if objective(golden) >= best_value:
            best = golden
    return float(best)


def _initial_params(y: np.ndarray, config: EMConfig) -> ModelParams:
    """Moment-based starting point anchored to the strongest sustained rally.

    The bubble regime starts from the p^{-n} moments (n = 0.5) of the
    quarter-sample window with the largest cumulative log return; the normal
    regime starts from the moments of everything else. Anchoring regime 1 to
    a contiguous rally keeps the first posteriors pointed at persistent
    super-exponential stretches rather than at scattered single-day spikes,
    which would otherwise seed a spurious fast-alternation fit.
    """
    n0 = 0.5
    dy = np.diff(y)
    w = min(max(5, len(dy) // 4), len(dy) - 1)
    gains = y[w:] - y[:-w]
    start = int(np.argmax(gains))
    rally = np.zeros(len(dy), dtype=bool)
    rally[start : start + w] = True
    rest = ~rally
    if not rest.any():
        rest = np.ones_like(rally)

    mu0 = float(dy[rest].mean())
    if mu0 == 0.0:
        mu0 = 1e-12  # the switch-density height 1/|mu0| must stay defined
    sigma0 = max(float(dy[rest].std()), 1e-8)
    u = _exp_neg_n_y(y, n0)
    du = np.diff(u)
    mu1 = max(float(-du[rally].mean() / n0), 1e-6)
    sigma1 = max(float(du[rally].std() / n0), 1e-8)

    q = np.array(
        [
            [config.q00_init, 1.0 - config.q00_init],
            [1.0 - config.q11_init, config.q11_init],
        ]
    )
    regime = RegimeParams(mu0=mu0, sigma0=sigma0, mu1=mu1, sigma1=sigma1, n=n0, kappa=config.kappa)
    return ModelParams(regime, q)


def _blend_params(a: ModelParams, b: ModelParams, lam: float, kappa: float) -> ModelParams:
    """Convex combination (1-lam)*a + lam*b; rows of q stay stochastic."""
    ra, rb = a.regime, b.regime
    regime = RegimeParams(
        mu0=(1 - lam) * ra.mu0 + lam * rb.mu0,
        sigma0=(1 - lam) * ra.sigma0 + lam * rb.sigma0,
        mu1=(1 - lam) * ra.mu1 + lam * rb.mu1,
        sigma1=(1 - lam) * ra.sigma1 + lam * rb.sigma1,
        n=(1 - lam) * ra.n + lam * rb.n,
        kappa=kappa,
    )
    return ModelParams(regime, (1 - lam) * a.q + lam * b.q)


def em_fit(
    series: LogPriceSeries, config: EMConfig | None = None
) -> tuple[ModelParams, EMTrace, FilterOutput, SmootherOutput]:
    """Calibrate the regime-switching model by EM.

    Each iteration runs the filter and smoother at the current parameters,
    applies the closed-form updates, then re-solves the feedback exponent
    using the freshly updated mu1 and sigma1 (accepting the root only when
    it does not lower the bubble-block objective).

    The switch-density heights 1/|mu0| and 1/|mu1| tie the likelihood to the
    drift parameters, but the closed-form updates treat them as constants, so
    a raw update can occasionally lower the likelihood. A damping safeguard
    therefore accepts the update only at a step length that does not decrease
    the log-likelihood, halving towards the current parameters as needed; if
    no step length helps, the fit stops and the trace is marked ``stalled``.
    The recorded log-likelihoods are thus non-decreasing by construction.

    Stops when the relative log-likelihood change drops to ``config.tol``
    (non-convergence within ``max_iterations`` is flagged on the trace, not
    raised). The t = 0 state distribution is held fixed at the stationary
    distribution of the initial transition matrix; letting it track the
    running q would itself break monotonicity.
    """
    if config is None:
        config = EMConfig()
    y = series.log_prices
    if len(y) < 10:
        raise InsufficientDataError("em_fit needs a series of length >= 10")

    params = _initial_params(y, config)
    pi0 = params.stationary_distribution()
    trace = EMTrace()

    try:
        filt = hamilton_filter(series, params, initial=pi0)
    except NumericalFailureError as err:
        raise NumericalFailureError(err.step, f"EM iteration 0: {err}") from err
    trace.params.append(params)
    trace.logliks.append(filt.loglik)
    trace.deltas.append(float("nan"))

    for iteration in range(1, config.max_iterations + 1):
        try:
            smth = kim_smoother(filt, params)
            updated = m_step(smth, series, params.regime.n, kappa=config.kappa, freeze=params)
            n_new = params.regime.n
            if smth.pairwise_smoothed[:, 1, 1].sum() > 0.0:
                n_new = ascend_feedback_exponent(
                    smth, series, updated.regime.mu1, updated.regime.sigma1,
                    params.regime.n, search=config.n_search,
                )
            candidate = ModelParams(
                RegimeParams(
                    mu0=updated.regime.mu0,
                    sigma0=updated.regime.sigma0,
                    mu1=updated.regime.mu1,
                    sigma1=updated.regime.sigma1,
                    n=n_new,
                    kappa=config.kappa,
                ),
                updated.q,
            )

            accepted = None
            lam = 1.0
            for _ in range(12):
                trial = _blend_params(params, candidate, lam, config.kappa)
                trial_filt = hamilton_filter(series, trial, initial=pi0)
                if trial_filt.loglik >= filt.loglik:
                    accepted = (trial, trial_filt)
                    break
                lam *= 0.5
        except NumericalFailureError as err:
            raise NumericalFailureError(
                err.step, f"EM iteration {iteration}: {err}"
            ) from err
        if accepted is None:
            trace.stalled = True
            break

        params, filt = accepted
        delta = abs(filt.loglik - trace.logliks[-1]) / max(abs(trace.logliks[-1]), 1e-300)
        trace.params.append(params)
        trace.logliks.append(filt.loglik)
        trace.deltas.append(delta)
        if delta <= config.tol:
            trace.converged = True
            break

    smth = kim_smoother(filt, params)
    return params, trace, filt, smth


def bubble_time_fraction(probs: ProbabilitySeries) -> float:
    """Percentage of time spent in the bubble state, probability-weighted."""
    if len(probs) == 0:
        raise InsufficientDataError("cannot average an empty probability series")
    return 100.0 * float(probs.values.mean())


def threshold_fractions(
    probs: ProbabilitySeries, hi: float = 0.9, lo: float = 0.1
) -> tuple[float, float]:
    """Percentages of values strictly above ``hi`` and strictly below ``lo``."""
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError("need 0 <= lo < hi <= 1")
    if len(probs) == 0:
        raise InsufficientDataError("cannot threshold an empty probability series")
    v = probs.values
    return (100.0 * float((v > hi).mean()), 100.0 * float((v < lo).mean()))
