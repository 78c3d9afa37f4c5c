"""Two-state regime-switching calibration.

A hidden chain s_t in {0 (normal), 1 (bubble)} drives the emission density of
each log-price step: geometric Brownian motion while (0,0), the nonlinear
bubble transition while (1,1), and flat bounded switch densities on (0,1) and
(1,0). Calibration alternates a Hamilton forward filter, a Kim backward
smoother and closed-form posterior-weighted parameter updates, followed by
a conditional-maximisation step for the feedback exponent n: a bounded Brent
search of the bubble block of the E-step objective at the updated mu1 and
sigma1, which keeps the current n unless it finds a higher value.

The filter and the smoother have no per-step loop. Both recursions are
products of 2x2 operators, one per step, and both take every prefix of that
product by cyclic (odd/even) reduction: O(T) work in about log2 T vectorised
passes. The filter reduces in log domain, the smoother, whose operators are
column-stochastic, in linear domain. ``tests/test_kernel_parity.py`` holds
them to step-by-step recursions in 50-digit and exact rational arithmetic
over the same inputs.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .bubble import (
    RegimeParams,
    _bubble_path_logdensity,
    _check_bubble_params,
    _exp_neg_n_y,
    emission_logdensities,
)
from .errors import DegenerateRegimeError, InsufficientDataError, NumericalFailureError
from .series import LogPriceSeries, ProbabilitySeries

# Absolute x tolerance of the Brent search for n. scipy's step tolerance is
# 1.5e-8 |n| + N_XATOL / 3, so the relative term rules above n = 2e-3.
N_XATOL = 1e-10

_MAX = float(np.finfo(float).max)


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
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        lo, hi = self.n_search
        if not 0 < lo < hi < np.inf:
            raise ValueError(
                f"n_search must be a finite increasing positive interval, got {self.n_search!r}"
            )
        if not 0.0 < self.kappa < np.inf:
            raise ValueError(f"kappa must be finite and positive, got {self.kappa!r}")
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


def _prefixes(first: np.ndarray, ops: np.ndarray, product) -> np.ndarray:
    """Every prefix ``first * ops[0] * ... * ops[t]`` by cyclic reduction.

    Time is the last axis: ``first`` is a (1, C, 1) row vector, ``ops`` a
    (2, C, T) stack and ``product(a, b)`` the batched product of two stacks.
    Adjacent operators are multiplied in pairs until none are left (about
    log2 T levels); going back down, each level's odd prefixes are the next
    level's results and its even ones take one more product. That is O(T)
    products in O(log T) vectorised passes, and prefix t only ever combines
    ``ops[0..t]``. Returns the (1, C, T) prefixes.
    """
    levels = []
    while ops.shape[-1]:
        levels.append(ops)
        ops = product(ops[..., 0:-1:2], ops[..., 1::2])
    out = first[..., :0]
    for ops in reversed(levels):
        T = ops.shape[-1]
        merged = np.empty(first.shape[:-1] + (T,))
        merged[..., 1::2] = out
        before = np.concatenate([first, out[..., : (T - 1) // 2]], axis=-1)
        merged[..., 0::2] = product(before, ops[..., 0::2])
        out = merged
    return out


def _log_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched product of log-domain stacks: ``a`` is a (1, 2, T) row vector
    or a (2, 3, T) operator, ``b`` an operator. Column 2 of an operator holds
    its row log scales, the largest of them 0 (the filter only needs
    directions); each row of a product keeps its own scale."""
    joined = a[:, :2] + b[:, 2]  # [i, k]
    top = np.maximum(np.maximum(joined[:, 0], joined[:, 1]), -_MAX)  # a dead row stays dead
    joined -= top[:, None]
    x, y = joined[:, 0, None] + b[0, :2], joined[:, 1, None] + b[1, :2]  # k = 0, 1
    out = np.empty(a.shape[:-1] + b.shape[-1:])
    hi = np.maximum(x, y, out=out[:, :2])  # log(e^x + e^y); two zeros (-inf) stay -inf
    lo = np.minimum(x, y, out=x)
    lo -= hi
    np.fmax(lo, -np.inf, out=lo)
    hi += np.log1p(np.exp(lo, out=lo), out=lo)
    if len(a) == 2:
        top += a[:, 2]
        np.subtract(top, np.maximum(top[0], top[1]), out=out[:, 2])
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched product of linear-domain stacks."""
    terms = a[:, :, None] * b
    return terms[:, 0] + terms[:, 1]


def hamilton_filter(
    series: LogPriceSeries, params: ModelParams, initial=None
) -> FilterOutput:
    """Forward filter: predict with the chain, update with the emission
    densities, normalise over the four state pairs, and marginalise.

    ``initial`` is the distribution of s_0 (defaults to the stationary
    distribution of ``params.q``). The log-likelihood accumulates the log of
    the per-step normalisers.

    The unnormalised forward vector after step t is ``initial`` times the
    product of the operators q * D_1, ..., q * D_t, where D_t holds the
    emission densities of step t. Those prefix products are taken by cyclic
    reduction in log domain, on :func:`emission_logdensities` plus log q,
    with a log scale per row of each product, so a path keeps its weight and
    its precision however unlikely it is; the filtered prior of each step
    then gives its pairwise table and normaliser in one vectorised pass. The
    first step with no live state pair (normaliser 0) is a numerical failure
    at that step; prefixes before it never involve the offending operator.
    """
    y = series.log_prices
    if initial is None:
        initial = params.stationary_distribution()
    pi = np.asarray(initial, dtype=float)
    if pi.shape != (2,) or np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-9:
        raise ValueError("initial must be a length-2 distribution summing to 1")

    ops = emission_logdensities(y, params.regime)  # [i, j, t]
    # log 0 = -inf marks a dead transition; a dead row's scale may overflow to -inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ops += np.log(params.q)[:, :, None]
        log_pi = np.log(pi)[:, None]
        # rows shifted to a largest entry of 0, with the shifts as scales
        top = np.maximum(np.maximum(ops[:, 0], ops[:, 1]), -_MAX)
        steps = np.empty((2, 3, len(y) - 1))
        np.subtract(ops, top[:, None], out=steps[:, :2])
        np.subtract(top, np.maximum(top[0], top[1]), out=steps[:, 2])
        log_forward = _prefixes((log_pi - log_pi.max())[None], steps, _log_product)[0]
        forward = np.exp(log_forward)  # larger entry 1 to 2T: <= ln 2 more per level
        total = forward[0] + forward[1]
        forward /= total
        log_forward -= np.log(total)
        cells = ops  # log P(s_{t-1}=i, s_t=j, y_t | y_0..y_{t-1}) from here on
        cells[..., 0] += log_pi
        cells[..., 1:] += log_forward[:, None, :-1]
        top = np.maximum(np.maximum(cells[0, 0], cells[0, 1]),
                         np.maximum(cells[1, 0], cells[1, 1]))
        pairwise = np.exp(cells - top)
        norms = pairwise.sum(axis=(0, 1))
        log_norms = top + np.log(norms)
        bad = ~np.isfinite(log_norms)
        if bad.any():
            step = int(np.argmax(bad)) + 1
            norm = float(np.exp(cells[..., step - 1]).sum())
            raise NumericalFailureError(step, f"filter normaliser {norm!r} at step {step}")
    pairwise /= norms
    loglik = float(log_norms.sum())

    filtering = np.concatenate([pi[1:], forward[1]])
    probs = ProbabilitySeries(series.timestamps, np.clip(filtering, 0.0, 1.0),
                              label=f"{series.asset_id}:filtering")
    return FilterOutput(probs, pairwise.transpose(2, 0, 1), loglik)


def kim_smoother(filt: FilterOutput) -> SmootherOutput:
    """Backward smoother seeded with the final filtered distribution.

    Each backward step redistributes the smoothed mass of s_{t+1} over its
    filtered origin states:

        P(s_{t+1}=j, s_t=i | y_T)
            = P(s_t=i | s_{t+1}=j, y_0..y_{t+1}) * P(s_{t+1}=j | y_T),

    where the first factor is the pairwise filtered table normalised within
    its landing-state column. Because the emission of y_{t+1} depends on the
    state pair (not on s_{t+1} alone), conditioning on the pairwise filtered
    posterior -- rather than propagating P(s_t | y_t) through the chain
    alone -- is what makes the recursion exact for this model. The
    transition matrix is already folded into the pairwise filtered tables,
    so the smoother needs no model parameters.

    The smoothed distribution of s_t is thus the product of those
    column-stochastic operators from step t to the end, applied to the final
    filtered distribution; the suffix products are taken by the same cyclic
    reduction as the filter's, in linear domain, and each distribution is
    normalised once at the end. A landing column of probability zero carries
    no pairwise weight back; it is a numerical failure if the smoothed mass
    it would have to carry exceeds 1e-12 (the newest such step is reported).
    """
    pf = filt.pairwise_filtered.transpose(1, 2, 0)  # [i, j, t]
    landing = pf[0] + pf[1]  # P(s_{t+1}=j | y_0..y_{t+1}), [j, t]
    dead = landing <= 0.0
    back = np.divide(pf, landing, out=np.zeros(pf.shape), where=~dead)
    # for the reduction, a dead column hands its (at most 1e-12) smoothed
    # mass to state 0, so every operator is column-stochastic and
    # P(s_t=0 | y_T) stays 1 - P(s_t=1 | y_T)
    back[0][dead] = 1.0
    s = float(filt.filtering.values[-1])
    last = np.array([[[1.0 - s], [s]]])
    later = _prefixes(last, back.transpose(1, 0, 2)[..., ::-1], _product)[0, :, ::-1]
    back[0][dead] = 0.0
    later /= later[0] + later[1]
    landed = np.concatenate([later[:, 1:], last[0]], axis=1)  # P(s_{t+1}=j | y_T), [j, t]

    dead &= landed > 1e-12
    if dead.any():
        t = int(np.flatnonzero(dead.any(axis=0))[-1])
        j = int(np.argmax(dead[:, t]))
        raise NumericalFailureError(
            t + 1, f"zero backward denominator for state {j} at step {t + 1}"
        )
    back *= landed
    smoothing = np.concatenate([later[1], [s]])
    probs = ProbabilitySeries(filt.filtering.timestamps, np.clip(smoothing, 0.0, 1.0),
                              label=filt.filtering.label.replace("filtering", "smoothing"))
    return SmootherOutput(probs, back.transpose(2, 0, 1))


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
    y: np.ndarray, w11: np.ndarray, live: np.ndarray, mu1: float, sigma1: float, n: float
) -> float:
    """Expected bubble-regime log-likelihood: the only part of the E-step
    objective that depends on n. ``w11`` holds the weights of the ``live``
    steps, the steps of nonzero weight."""
    logf = _bubble_path_logdensity(y, mu1, sigma1, n)
    return float(np.dot(w11, logf[live]))


def solve_feedback_exponent(
    smoother: SmootherOutput,
    series: LogPriceSeries,
    mu1: float,
    sigma1: float,
    n_current: float,
    search: tuple[float, float] = (1e-4, 10.0),
) -> float:
    """Conditional-maximisation step for the feedback exponent n.

    Maximises the bubble-block expected log-likelihood over n on ``search``
    by bounded Brent search (golden section with parabolic steps; Brent 1973,
    ch. 5), with mu1 and sigma1 held fixed, and returns ``n_current`` when
    the maximiser does not score strictly higher. The step is thus an exact
    CM step of ECM (Meng & Rubin 1993): it can never lower the E-step
    objective. The search assumes the objective is unimodal in n; where it
    is not, the step may miss the global maximiser but still never descends.
    """
    from scipy.optimize import minimize_scalar  # here, so `import sinet` loads no scipy

    w11 = smoother.pairwise_smoothed[:, 1, 1]
    if w11.sum() <= 0.0:
        raise DegenerateRegimeError(1)
    live = w11 > 0.0
    w11 = w11[live]
    y = series.log_prices
    lo, hi = search
    if not 0 < lo < hi < np.inf:
        raise ValueError(f"search must be a finite increasing positive interval, got {search!r}")
    _check_bubble_params(mu1, sigma1, n_current)

    found = minimize_scalar(
        lambda n: -_bubble_block_objective(y, w11, live, mu1, sigma1, n),
        bounds=(lo, hi), method="bounded", options={"xatol": N_XATOL},
    )
    keep = _bubble_block_objective(y, w11, live, mu1, sigma1, n_current)
    return float(found.x) if -found.fun > keep else float(n_current)


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
    applies the closed-form updates, then takes one conditional-maximisation
    step for the feedback exponent (:func:`solve_feedback_exponent`): n
    maximises the bubble-block objective, by bounded Brent search, at the
    freshly updated mu1 and sigma1, or stays where it is when no higher
    value is found.

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
            smth = kim_smoother(filt)
            updated = m_step(smth, series, params.regime.n, kappa=config.kappa, freeze=params)
            n_new = params.regime.n
            if smth.pairwise_smoothed[:, 1, 1].sum() > 0.0:
                n_new = solve_feedback_exponent(
                    smth, series, updated.regime.mu1, updated.regime.sigma1,
                    params.regime.n, search=config.n_search,
                )
            candidate = ModelParams(replace(updated.regime, n=n_new), updated.q)

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

    smth = kim_smoother(filt)
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
