"""Two-state regime-switching calibration.

A hidden chain s_t in {0 (normal), 1 (bubble)} drives the emission density of
each log-price step: geometric Brownian motion while (0,0), the nonlinear
bubble transition while (1,1), and flat bounded switch densities on (0,1) and
(1,0). Calibration alternates a Hamilton forward filter, a Kim backward
smoother and closed-form posterior-weighted parameter updates, in which one
moment rule gives each regime the weighted mean and deviation of its own
step (the log-price step, or the bubble step in p^{-n}), followed by a
conditional-maximisation step for the feedback exponent n: safeguarded
Newton on the closed-form derivative of the bubble block of the E-step
objective at the updated mu1 and sigma1, which keeps the current n unless
it finds a higher value.

The filter and the smoother have no per-step loop. Both recursions are
products of 2x2 operators, one per step, and both take every prefix of that
product by cyclic (odd/even) reduction: O(T) work in about log2 T vectorised
passes. The filter reduces in log domain, the smoother, whose operators are
column-stochastic, in linear domain. ``tests/test_kernel_parity.py`` holds
them to step-by-step recursions in 50-digit and exact rational arithmetic
over the same inputs. The filter's reduction takes batch axes of parameter
sets on one series, which the EM line search uses to score its halved step
lengths in one call.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bubble import (
    EXP_CLAMP,
    RegimeParams,
    _bubble_path_logdensity,
    _bubble_steps,
    _check_bubble_params,
    emission_logdensities,
)
from .errors import InsufficientDataError, NumericalFailureError
from .series import LogPriceSeries, ProbabilitySeries

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
        # written so that NaN fails each check
        if not np.all((q >= 0) & (q <= 1)):
            raise ValueError("transition probabilities must lie in [0, 1]")
        if not np.all(np.abs(q.sum(axis=1) - 1.0) <= 1e-12):
            raise ValueError("each row of q must sum to 1")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


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
        # written so that NaN fails each check
        if not np.all((pw >= 0) & (pw <= 1)):
            raise ValueError("pairwise probabilities must lie in [0, 1]")
        if not np.all(np.abs(pw.sum(axis=(1, 2)) - 1.0) <= 1e-10):
            raise ValueError("each pairwise table must sum to 1")
        if not np.all(np.abs(pw.sum(axis=1)[:, 1] - self.filtering.values[1:]) <= 1e-10):
            raise ValueError("filtering marginal inconsistent with pairwise tables")
        if np.isnan(self.loglik):
            raise ValueError("loglik must not be NaN")
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
        # written so that NaN fails each check
        if not np.all((pw >= -1e-15) & (pw <= 1 + 1e-15)):
            raise ValueError("pairwise probabilities must lie in [0, 1]")
        # P(s_t | y_T) must equal the marginal of P(s_{t+1}, s_t | y_T).
        if not np.all(np.abs(pw.sum(axis=2)[:, 1] - self.smoothing.values[:-1]) <= 1e-10):
            raise ValueError("smoothing marginal inconsistent with pairwise tables")
        pw.setflags(write=False)
        object.__setattr__(self, "pairwise_smoothed", pw)


@dataclass(frozen=True)
class EMConfig:
    """Settings for :func:`em_fit` and the preprocessing stage.

    ``average_window`` is the window of :func:`geometric_average_filter`;
    1 calibrates the raw prices. ``n_min``..``n_max`` is the search interval
    of the feedback exponent n.
    """

    average_window: int = 100
    tol: float = 1e-4
    max_iterations: int = 500
    n_min: float = 1e-4
    n_max: float = 10.0
    kappa: float = 0.6

    def __post_init__(self):
        for name in ("average_window", "max_iterations"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if not 0 < self.n_min < self.n_max < np.inf:
            raise ValueError("n_min/n_max must be a finite increasing positive interval, "
                             f"got ({self.n_min!r}, {self.n_max!r})")
        if not 0.0 < self.kappa < np.inf:
            raise ValueError(f"kappa must be finite and positive, got {self.kappa!r}")


@dataclass
class EMTrace:
    """Log-likelihood of the start and of each accepted iteration, which
    must not decrease, and how the fit stopped.

    ``stalled`` is set when the monotonicity safeguard could not find an
    ascent step, i.e. the closed-form update family cannot improve further.
    A stalled fit is not ``converged``: that flag means the relative
    log-likelihood change reached the tolerance.
    """

    logliks: list[float] = field(default_factory=list)
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


def geometric_average_filter(
    series: LogPriceSeries, window: int = EMConfig.average_window
) -> LogPriceSeries:
    """Smooth a series by the trailing arithmetic mean of its log prices.

    Equivalent to replacing each price by the geometric mean of the last
    ``window`` prices. Output timestamps align with the window's right edge,
    so the result is ``window - 1`` points shorter. A window of 1 returns
    ``series`` itself: the running-sum difference would move the raw log
    prices in their last bits.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(series) <= window:
        raise InsufficientDataError(
            f"series of length {len(series)} leaves fewer than 2 points after window {window}"
        )
    if window == 1:
        return series
    cs = np.concatenate([[0.0], np.cumsum(series.log_prices)])
    means = (cs[window:] - cs[:-window]) / window
    return LogPriceSeries(series.asset_id, series.timestamps[window - 1 :], means)


def _prefixes(first: np.ndarray, ops: np.ndarray, product) -> np.ndarray:
    """Every prefix ``first * ops[0] * ... * ops[t]`` by cyclic reduction.

    Time is the last axis: ``first`` is a (1, C, ..., 1) row vector, ``ops``
    a (2, C, ..., T) stack and ``product(a, b)`` the batched product of two
    stacks. Any axes between the columns and time are a batch of independent
    products, which every pass takes at once. Adjacent operators are
    multiplied in pairs until none are left (about log2 T levels); going
    back down, each level's odd prefixes are the next level's results and
    its even ones take one more product. That is O(T) products in O(log T)
    vectorised passes, and prefix t only ever combines ``ops[0..t]`` of its
    own batch member. Returns the (1, C, ..., T) prefixes.
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
    """Batched product of log-domain stacks: ``a`` is a (1, 2, ..., T) row
    vector or a (2, 3, ..., T) operator, ``b`` an operator, with the same
    batch axes between the columns and time. Column 2 of an operator holds
    its row log scales, the largest of them 0 (the filter only needs
    directions); each row of a product keeps its own scale. Every element
    takes the same operations whatever the batch, so a member's product
    does not depend on the members beside it."""
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


def hamilton_filter(series: LogPriceSeries, params: ModelParams, initial) -> FilterOutput:
    """Forward filter: predict with the chain, update with the emission
    densities, normalise over the four state pairs, and marginalise.

    ``initial`` is the distribution of s_0. The log-likelihood accumulates
    the log of the per-step normalisers, which :func:`_forward` computes.
    The first step with no live state pair (normaliser 0) is a numerical
    failure at that step; prefixes before it never involve the offending
    operator.
    """
    pi = np.asarray(initial, dtype=float)
    if pi.shape != (2,) or not (np.all(pi >= 0) and abs(pi.sum() - 1.0) <= 1e-9):
        raise ValueError("initial must be a length-2 distribution summing to 1")
    cells = emission_logdensities(series.log_prices, params.regime)
    log_norms, filtered, pairwise = _forward(cells, params.q, pi)
    bad = ~np.isfinite(log_norms)
    if bad.any():
        step = int(np.argmax(bad)) + 1
        norm = float(np.exp(cells[..., step - 1]).sum())
        raise NumericalFailureError(step, f"filter normaliser {norm!r} at step {step}")
    probs = ProbabilitySeries(series.timestamps, np.concatenate([pi[1:], filtered]))
    return FilterOutput(probs, pairwise.transpose(2, 0, 1), float(log_norms.sum()))


def _forward(ops: np.ndarray, q: np.ndarray, pi: np.ndarray):
    """The filter's reduction. From the log emission table ``ops`` [i, j,
    ..., t], the transition matrices ``q`` [i, j, ...] and the initial
    distribution ``pi``, returns the log normalisers [..., t], the filtered
    P(s_t = 1 | y_0..y_t) [..., t] and the pairwise tables [i, j, ..., t].
    Axes between the state pair and time are a batch of parameter sets on
    one series; a member takes the same operations as an unbatched call, so
    its results equal that call's bit for bit. ``ops`` is overwritten by the
    log cells, whose exponentials sum to each step's normaliser; from a step
    with no live state pair on, the normalisers are not finite.

    The forward vector after step t is ``pi`` times the product of the
    operators q * D_1, ..., q * D_t (D_t the emission densities of step t).
    Its prefixes are taken by cyclic reduction in log domain with a log
    scale per row of each product, so a path keeps its weight and precision
    however unlikely it is; each step's filtered prior then gives its
    pairwise table and normaliser in one vectorised pass.
    """
    batch = ops.shape[2:-1]
    # log 0 = -inf marks a dead transition; a dead row's scale may overflow to -inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ops += np.log(q)[..., None]
        log_pi = np.log(pi).reshape((2, 1) + (1,) * len(batch))
        # rows shifted to a largest entry of 0, with the shifts as scales
        top = np.maximum(np.maximum(ops[:, 0], ops[:, 1]), -_MAX)
        steps = np.empty((2, 3) + ops.shape[2:])
        np.subtract(ops, top[:, None], out=steps[:, :2])
        np.subtract(top, np.maximum(top[0], top[1]), out=steps[:, 2])
        first = np.empty((1, 2) + batch + (1,))
        first[0] = log_pi - log_pi.max()
        log_forward = _prefixes(first, steps, _log_product)[0]  # [i, ..., t]
        forward = np.exp(log_forward)  # larger entry 1 to 2T: <= ln 2 more per level
        total = forward[0] + forward[1]
        forward /= total
        log_forward -= np.log(total)
        cells = ops  # log P(s_{t-1}=i, s_t=j, y_t | y_0..y_{t-1}) from here on
        cells[..., 0] += log_pi
        cells[..., 1:] += log_forward[:, None, ..., :-1]
        top = np.maximum(np.maximum(cells[0, 0], cells[0, 1]),
                         np.maximum(cells[1, 0], cells[1, 1]))
        pairwise = np.exp(cells - top)
        norms = pairwise.sum(axis=(0, 1))
        log_norms = top + np.log(norms)
        pairwise /= norms
    return log_norms, forward[1], pairwise


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
    probs = ProbabilitySeries(filt.filtering.timestamps, smoothing)
    return SmootherOutput(probs, back.transpose(2, 0, 1))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product of two vectors, summed by numpy's own loop. BLAS
    ``ddot`` splits a long sum across its threads, so its last digit, and
    with it a fit, would depend on the BLAS thread count."""
    return float(np.einsum("i,i->", a, b))


def _moments(w: np.ndarray, x: np.ndarray, scale: float) -> tuple[float, float] | None:
    """Weighted mean and population std of ``x / scale``, or None when ``w``
    has no mass. An exact-zero mean becomes 1e-12, which keeps the 1/|mu|
    switch height defined."""
    tot = w.sum()
    if not tot > 0.0:
        return None
    mean = float(_dot(w, x) / (scale * tot))
    if mean == 0.0:
        mean = 1e-12
    return mean, float(np.sqrt(_dot(w, (x - scale * mean) ** 2) / (scale**2 * tot)))


def m_step(
    smoother: SmootherOutput,
    series: LogPriceSeries,
    current_n: float,
    *,
    freeze: ModelParams,
) -> ModelParams:
    """Closed-form posterior-weighted parameter updates.

    Each regime takes the weighted mean and deviation of its own step
    (:func:`_moments`): dy under the (0,0) smoothed pair weights, the bubble
    step in p^{-n} at ``current_n`` under the (1,1) weights. A row of q is
    its summed pair weights over their total.

    A regime (or q row) whose total weight is zero has no update; its values
    are taken from ``freeze``, as is kappa, which no update changes.
    """
    w = smoother.pairwise_smoothed
    r = freeze.regime
    mu0, sigma0 = _moments(w[:, 0, 0], np.diff(series.log_prices), 1) or (r.mu0, r.sigma0)
    mu1, sigma1 = (_moments(w[:, 1, 1], _bubble_steps(series.log_prices, current_n), current_n)
                   or (r.mu1, r.sigma1))

    q = np.array(freeze.q)
    pairs = np.array([[w[:, i, j].sum() for j in range(2)] for i in range(2)])
    for i, origin in enumerate(pairs.sum(axis=1)):
        if origin > 0.0:
            q[i] = pairs[i] / origin
            q[i] /= q[i].sum()

    regime = RegimeParams(
        mu0=mu0,
        sigma0=max(sigma0, 1e-12),
        mu1=mu1,
        sigma1=max(sigma1, 1e-12),
        n=current_n,
        kappa=r.kappa,
    )
    return ModelParams(regime, q)


def _bubble_block_objective(
    y: np.ndarray, w11: np.ndarray, live: np.ndarray, mu1: float, sigma1: float, n: float
) -> float:
    """Expected bubble-regime log-likelihood: the only part of the E-step
    objective that depends on n. ``w11`` holds the weights of the ``live``
    steps, the steps of nonzero weight."""
    logf = _bubble_path_logdensity(y, mu1, sigma1, n)
    return _dot(w11, logf[live])


class _BubbleBlock:
    """The bubble block of the E-step objective as a function of n, at fixed
    weights, mu1 and sigma1: Q(n) = -sum_t w_t (n y_t + v_t^2 / (2 sigma1^2)),
    v_t = (u_t - u_{t-1}) / n + mu1 and u = e^{-n y}. It differs from
    :func:`_bubble_block_objective` by a constant, since the ln n terms of
    the density cancel. A step of weight <= 0 weighs 0, as a dead one. The
    sums and buffers that do not depend on n are made once per n step, not
    once per evaluation, which saves about 2 % of a bundled-corpus run.
    """

    def __init__(self, y: np.ndarray, w11: np.ndarray, mu1: float, sigma1: float):
        w = np.maximum(w11, 0.0)
        self.y, self.root_w, self.mu1 = y, np.sqrt(w), mu1
        self.inv_var = 1.0 / (sigma1 * sigma1)
        self.weighted_y = _dot(w, y[1:])
        self.y_max = float(np.abs(y).max())
        self.rows = np.empty((3, len(y)))  # reused by every evaluation
        self.steps = np.empty((3, len(y) - 1))

    def slopes(self, n: float) -> tuple[float, float]:
        """Q'(n) and Q''(n), from one exponential over the series.

        With z = y + 1/n, n v_t is the step of u plus n mu1, -n v'_t the
        step of z u and n v''_t the step of (z^2 + 1/n^2) u. mu1 drops out
        of v' and v'', so Q' is not a small difference of large sums where
        the drift dominates. Where the EXP_CLAMP clamp binds, u is flat in
        n, as in the clamped density, so z there is 1/n. An overflow gives
        an infinite or NaN result.
        """
        y, rows, d = self.y, self.rows, self.steps
        u, zu, z2u = rows
        with np.errstate(all="ignore"):
            np.multiply(y, -n, out=u)
            np.add(y, 1.0 / n, out=z2u)
            if n * self.y_max > EXP_CLAMP:
                z2u[np.abs(u) > EXP_CLAMP] = 1.0 / n
                np.clip(u, -EXP_CLAMP, EXP_CLAMP, out=u)
            np.exp(u, out=u)
            np.multiply(z2u, u, out=zu)
            z2u *= z2u
            z2u += 1.0 / (n * n)
            z2u *= u
            np.subtract(rows[:, 1:], rows[:, :-1], out=d)
            d[0] += n * self.mu1
            d *= self.root_w  # rows: n v, -n v' and n v'', times sqrt(w)
            c = self.inv_var / (n * n)
            dq = c * _dot(d[0], d[1]) - self.weighted_y
            d2q = -c * (_dot(d[1], d[1]) + _dot(d[0], d[2]))
        return dq, d2q


def solve_feedback_exponent(
    smoother: SmootherOutput,
    series: LogPriceSeries,
    mu1: float,
    sigma1: float,
    n_current: float,
    search: tuple[float, float] = (EMConfig.n_min, EMConfig.n_max),
) -> float:
    """Conditional-maximisation step for the feedback exponent n.

    Maximises the bubble-block expected log-likelihood Q over n inside
    ``search``, with mu1 and sigma1 held fixed, by safeguarded Newton on Q'
    (``rtsafe``; Press et al., Numerical Recipes, 3rd ed., sec. 9.4), with
    the closed-form Q' and Q'' of :meth:`_BubbleBlock.slopes`. It starts at
    ``n_current`` (at the middle of ``search`` if that is not inside) and
    shrinks a bracket, whose first ends are those of ``search`` and are
    never evaluated, to the side where Q climbs. A Newton step is replaced
    by a bisection when it would leave the bracket, when it is longer than
    half the step before the last (so Newton must shrink at least as fast
    as bisection), or when Q is not concave where it starts; a point whose
    sums overflow counts as lying above the maximiser. It stops after a
    Newton step below 1e-8 n, since Newton converges quadratically and the
    next step would be of order 1e-16 n, or once the bracket is a few ulps
    wide, taking the bound of ``search`` it closed against, if any. The
    point found is returned only if the bubble block, scored by the emission
    density's own formula, is strictly higher there than at ``n_current``,
    so the step is an exact CM step of ECM (Meng & Rubin 1993): it can never
    lower the E-step objective. Where the objective is not unimodal in n,
    the step climbs to the maximiser of the basin it starts in, which need
    not be the global one. An empty bubble block, with no step of positive
    weight, keeps ``n_current``: both of its scores are the empty sum 0.
    """
    w11 = smoother.pairwise_smoothed[:, 1, 1]
    y = series.log_prices
    lo, hi = search
    if not 0 < lo < hi < np.inf:
        raise ValueError(f"search must be a finite increasing positive interval, got {search!r}")
    _check_bubble_params(mu1, sigma1, n_current)

    block = _BubbleBlock(y, w11, mu1, sigma1)
    n = n_current if lo < n_current < hi else 0.5 * (lo + hi)
    before = last = hi - lo  # the last two step lengths
    for _ in range(100):  # rtsafe's cap; the keep rule below makes any stop safe
        dq, d2q = block.slopes(n)
        if dq > 0.0:
            lo = n
        elif dq == 0.0:
            break
        else:  # Q' < 0, or NaN after an overflow: the maximiser lies below
            hi = n
        newton = n - dq / d2q if d2q < 0.0 else np.nan
        if abs(newton - n) <= 1e-8 * n:  # the next step would be about 1e-16 n
            n = min(max(newton, lo), hi)
            break
        # Newton while it stays in the bracket and shrinks as fast as bisection
        if lo < newton < hi and abs(newton - n) <= 0.5 * before:
            nxt = newton
        elif hi - lo > 4.0 * np.spacing(hi):
            nxt = 0.5 * (lo + hi)
        else:  # closed; against a bound of search, at that bound
            n = lo if lo == search[0] else hi if hi == search[1] else 0.5 * (lo + hi)
            break
        before, last, n = last, abs(nxt - n), nxt

    live = w11 > 0.0
    w_live = w11[live]
    found, kept = (
        _bubble_block_objective(y, w_live, live, mu1, sigma1, v) for v in (n, n_current)
    )
    return float(n) if found > kept else float(n_current)


def _initial_params(y: np.ndarray, config: EMConfig) -> ModelParams:
    """Moment-based starting point anchored to the strongest sustained rally.

    By the M step's rule (:func:`_moments`), the bubble regime starts from
    the p^{-n} moments (n = 0.5) of the quarter-sample window with the
    largest cumulative log return, the normal regime from those of the rest.
    Anchoring regime 1 to a contiguous rally keeps the first posteriors
    pointed at persistent super-exponential stretches rather than at
    scattered single-day spikes, which would otherwise seed a spurious
    fast-alternation fit.
    """
    n0 = 0.5
    dy = np.diff(y)
    w = min(max(5, len(dy) // 4), len(dy) - 1)
    gains = y[w:] - y[:-w]
    start = int(np.argmax(gains))
    rally = np.zeros(len(dy))
    rally[start : start + w] = 1.0  # 1 to len(dy) - 1 steps: both regimes have weight
    mu0, sigma0 = _moments(1.0 - rally, dy, 1)
    mu1, sigma1 = _moments(rally, _bubble_steps(y, n0), n0)

    q = np.array([[0.95, 1.0 - 0.95], [1.0 - 0.95, 0.95]])  # both regimes stay with 0.95
    regime = RegimeParams(mu0, max(sigma0, 1e-8), max(mu1, 1e-6), max(sigma1, 1e-8),
                          n=n0, kappa=config.kappa)
    return ModelParams(regime, q)


def _blend_params(a: ModelParams, b: ModelParams, lam: float) -> ModelParams:
    """Convex combination (1-lam)*a + lam*b, with a's kappa; rows of q stay
    stochastic."""
    ra, rb = a.regime, b.regime
    regime = RegimeParams(
        mu0=(1 - lam) * ra.mu0 + lam * rb.mu0,
        sigma0=(1 - lam) * ra.sigma0 + lam * rb.sigma0,
        mu1=(1 - lam) * ra.mu1 + lam * rb.mu1,
        sigma1=(1 - lam) * ra.sigma1 + lam * rb.sigma1,
        n=(1 - lam) * ra.n + lam * rb.n,
        kappa=ra.kappa,
    )
    return ModelParams(regime, (1 - lam) * a.q + lam * b.q)


def _halved_step(
    series: LogPriceSeries, params: ModelParams, candidate: ModelParams,
    pi: np.ndarray, loglik: float,
) -> float | None:
    """The step length that decides the line search after a rejected full
    step: the first of lam = 1/2, 1/4, ..., 2^-11 from ``params`` towards
    ``candidate`` whose filter from ``pi`` scores at least ``loglik``, has a
    non-finite normaliser or whose emission table raises ``ValueError``;
    None if none does. The steps before the first rejected table are scored
    in one :func:`_forward` call, each by the sum :func:`hamilton_filter`
    takes, bit for bit. Filtering each step alone made a bundled-corpus run,
    where four of five fits stall, 18 % slower (and 1.4 MB smaller).
    """
    tables, qs = [], []
    for k in range(1, 12):
        try:
            trial = _blend_params(params, candidate, 0.5**k)
            tables.append(emission_logdensities(series.log_prices, trial.regime))
        except ValueError:
            break
        qs.append(trial.q)
    if tables:
        log_norms = _forward(np.stack(tables, axis=2), np.stack(qs, axis=-1), pi)[0]
        for k, member in enumerate(log_norms, 1):
            if not np.isfinite(member).all() or float(member.sum()) >= loglik:
                return 0.5**k
    return 0.5 ** (len(tables) + 1) if len(tables) < 11 else None


def em_fit(
    series: LogPriceSeries, config: EMConfig
) -> tuple[ModelParams, EMTrace, FilterOutput, SmootherOutput]:
    """Calibrate the regime-switching model by EM.

    Each iteration is one fixed sequence of calls on the smoother of the
    current filter: the closed-form updates (:func:`m_step`), one
    conditional-maximisation step for the feedback exponent
    (:func:`solve_feedback_exponent`), the filter at the update and, once a
    step is accepted, the smoother of its filter. In the
    n step, n climbs to a maximiser of the bubble-block objective, by
    safeguarded Newton from its current value, at the freshly updated mu1
    and sigma1, or stays where it is when no higher value is found, as it
    does when the bubble regime has no posterior weight.

    The switch-density heights 1/|mu0| and 1/|mu1| tie the likelihood to the
    drift parameters, but the closed-form updates treat them as constants, so
    a raw update can occasionally lower the likelihood. A damping safeguard
    therefore accepts the update only at a step length that does not decrease
    the log-likelihood, halving towards the current parameters as needed; if
    no step length helps, the fit stops and the trace is marked ``stalled``.
    The recorded log-likelihoods are thus non-decreasing by construction.
    The full step is filtered alone. When it is rejected, the eleven halved
    steps are scored in one batched call (:func:`_halved_step`), and the
    first of them that is accepted or fails is filtered alone: that call
    returns its output or raises its error, so the search ends as a
    one-step-at-a-time search does, and a step after the deciding one never
    raises.

    Stops when the relative log-likelihood change drops to ``config.tol``
    (non-convergence within ``max_iterations`` is flagged on the trace, not
    raised). The t = 0 state distribution is held fixed at (1/2, 1/2);
    letting it track the running q would itself break monotonicity.
    """
    y = series.log_prices
    if len(y) < 10:
        raise InsufficientDataError("em_fit needs a series of length >= 10")

    params = _initial_params(y, config)
    pi0 = np.array([0.5, 0.5])  # the stationary law of the symmetric start chain
    trace = EMTrace()

    iteration = 0
    try:
        filt = hamilton_filter(series, params, pi0)
        smth = kim_smoother(filt)
        trace.logliks.append(filt.loglik)
        for iteration in range(1, config.max_iterations + 1):
            updated = m_step(smth, series, params.regime.n, freeze=params)
            n_new = solve_feedback_exponent(
                smth, series, updated.regime.mu1, updated.regime.sigma1,
                params.regime.n, search=(config.n_min, config.n_max),
            )
            candidate = ModelParams(replace(updated.regime, n=n_new), updated.q)

            trial = candidate
            trial_filt = hamilton_filter(series, trial, pi0)
            if trial_filt.loglik < filt.loglik:
                lam = _halved_step(series, params, candidate, pi0, filt.loglik)
                if lam is None:
                    trace.stalled = True
                    break
                trial = _blend_params(params, candidate, lam)
                trial_filt = hamilton_filter(series, trial, pi0)

            params, filt = trial, trial_filt
            smth = kim_smoother(filt)
            delta = abs(filt.loglik - trace.logliks[-1]) / max(abs(trace.logliks[-1]), 1e-300)
            trace.logliks.append(filt.loglik)
            if delta <= config.tol:
                trace.converged = True
                break
    except NumericalFailureError as err:
        raise NumericalFailureError(err.step, f"EM iteration {iteration}: {err}") from err

    return params, trace, filt, smth


def bubble_time_fraction(probs: ProbabilitySeries) -> float:
    """Percentage of time spent in the bubble state, probability-weighted."""
    if len(probs) == 0:
        raise InsufficientDataError("cannot average an empty probability series")
    return 100.0 * float(probs.values.mean())


def threshold_fractions(probs: ProbabilitySeries) -> tuple[float, float]:
    """Percentages of values strictly above 0.9 and strictly below 0.1."""
    if len(probs) == 0:
        raise InsufficientDataError("cannot threshold an empty probability series")
    v = probs.values
    return (100.0 * float((v > 0.9).mean()), 100.0 * float((v < 0.1).mean()))
