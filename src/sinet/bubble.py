"""Two-regime price model: geometric Brownian motion and the nonlinear
positive-feedback bubble process with a finite-time singularity.

The bubble regime follows dp/p = mu*p^n dt + sigma*p^n dW (plus a variance
correction drift), whose no-crash solution is

    p(t) = [n*mu*(t_c - t) - n*sigma*W_t]^(-1/n),   t_c = p0^(-n) / (n*mu).

The random time at which the bracket first reaches zero is inverse-Gaussian
distributed; see :func:`ig_params`. Discretised one step at a time, the
process says p_t^(-n) | p_{t-1}^(-n) ~ N(p_{t-1}^(-n) - n*mu1, n^2*sigma1^2),
which gives the transition density implemented in
:func:`bubble_transition_logdensity`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SingularityError

LOG_2PI = float(np.log(2.0 * np.pi))

# Exponent clamp for e^{-n*y}: beyond this the density saturates to -inf
# instead of propagating inf/NaN.
EXP_CLAMP = 700.0

# Denominator floor at which a simulated path is declared critical.
DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class RegimeParams:
    """Parameters of the two regimes plus the switch amplitude bound.

    mu0, sigma0 : drift and volatility per step of the normal regime
    mu1, sigma1 : drift coefficient and noise scale of the bubble regime
    n           : nonlinear feedback exponent of the bubble regime
    kappa       : log-price bound used by the regime-switch densities
    """

    mu0: float
    sigma0: float
    mu1: float
    sigma1: float
    n: float
    kappa: float = 0.6

    def __post_init__(self):
        if not all(np.isfinite([self.mu0, self.sigma0, self.mu1, self.sigma1, self.n, self.kappa])):
            raise ValueError("regime parameters must be finite")
        if self.sigma0 <= 0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")
        if self.sigma1 <= 0:
            raise ValueError(f"sigma1 must be positive, got {self.sigma1}")
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")


@dataclass(frozen=True)
class SimulatedPath:
    """One simulated bubble path on a regular time grid.

    ``log_prices[k]`` is ln p(k*dt). When the path reaches the critical
    denominator floor, ``hit_critical`` is True and ``critical_time_index``
    is the first grid index at which the floor was crossed; the log price at
    that index is evaluated with the denominator clamped to the floor, so
    every stored value is finite.
    """

    log_prices: np.ndarray
    dt: float
    hit_critical: bool
    critical_time_index: Optional[int] = None

    def __post_init__(self):
        y = np.asarray(self.log_prices, dtype=float)
        if not np.all(np.isfinite(y)):
            raise ValueError("simulated log prices must be finite")
        if self.hit_critical:
            if self.critical_time_index is None or self.critical_time_index >= len(y):
                raise ValueError("critical_time_index must index into log_prices")
        y.setflags(write=False)
        object.__setattr__(self, "log_prices", y)

    def __len__(self) -> int:
        return len(self.log_prices)

    @property
    def critical_time(self) -> Optional[float]:
        if self.critical_time_index is None:
            return None
        return self.critical_time_index * self.dt


def _check_finite(**values):
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")


def _check_positive(**values):
    """Each scalar argument must be finite and positive; NaN fails."""
    for name, value in values.items():
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def gbm_transition_logdensity(y_t, y_prev, mu0: float, sigma0: float):
    """Log density of y_t | y_{t-1} under the geometric Brownian motion regime.

    Accepts scalars or broadcastable arrays; returns the same shape.
    """
    if not sigma0 > 0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    y_t = np.asarray(y_t, dtype=float)
    y_prev = np.asarray(y_prev, dtype=float)
    _check_finite(y_t=y_t, y_prev=y_prev, mu0=mu0)
    z = (y_t - y_prev - mu0) / sigma0
    out = -0.5 * LOG_2PI - np.log(sigma0) - 0.5 * z * z
    return out if out.ndim else float(out)


def _check_bubble_params(mu1: float, sigma1: float, n: float) -> None:
    if not sigma1 > 0:
        raise ValueError(f"sigma1 must be positive, got {sigma1}")
    if not n > 0:
        raise ValueError(f"n must be positive, got {n}")
    _check_finite(mu1=mu1)


def _bubble_steps(y, n: float):
    """u_{t-1} - u_t along the first axis of ``y``, for u = p^{-n} = e^{-n y}
    with the exponent clamped at +/-EXP_CLAMP: n times the bubble step v_t,
    whose mean is mu1 and whose deviation is sigma1.

    With a = -n y, each step is 2 e^{(a_{t-1} + a_t)/2} sinh((a_{t-1} - a_t)/2),
    where a_{t-1} - a_t is n (y_t - y_{t-1}) unless the clamp binds at either
    end. No step is a difference of two exponentials, which would lose about
    -log10(n |y_t - y_{t-1}|) of its digits, and none overflows.
    """
    a = -n * y
    half = y[1:] - y[:-1]
    half *= 0.5 * n
    clamped = np.abs(a) > EXP_CLAMP
    if clamped.any():
        np.clip(a, -EXP_CLAMP, EXP_CLAMP, out=a)
        half = np.where(clamped[1:] | clamped[:-1], 0.5 * (a[:-1] - a[1:]), half)
    steps = a[:-1] + a[1:]  # in place from here on: a step's scale, then the step
    steps *= 0.5
    np.exp(steps, out=steps)
    steps *= 2.0
    steps *= np.sinh(half, out=half)
    return steps


def _bubble_path_logdensity(y: np.ndarray, mu1: float, sigma1: float, n: float):
    """Bubble log density of each step along the first axis of ``y``, from
    the exact steps of :func:`_bubble_steps` and with no input checks."""
    steps = _bubble_steps(y, n)
    with np.errstate(all="ignore"):  # an overflowing square, or inf - inf, gives -inf
        z = (n * mu1 - steps) / (n * sigma1 * np.sqrt(2.0))
        out = -n * y[1:] - z * z
        out += np.log(n) - 0.5 * LOG_2PI - np.log(n * sigma1)
    return np.fmax(out, -np.inf)


def bubble_transition_logdensity(y_t, y_prev, mu1: float, sigma1: float, n: float):
    """Log density of y_t | y_{t-1} under the bubble regime.

    The Gaussian step lives in u = p^{-n} = e^{-n y}; the change of variables
    back to y contributes the ln(n) - n*y_t terms. Exponents are clamped at
    +/-700 so extreme arguments saturate to -inf rather than producing NaN.
    """
    _check_bubble_params(mu1, sigma1, n)
    y_t, y_prev = np.broadcast_arrays(np.asarray(y_t, float), np.asarray(y_prev, float))
    _check_finite(y_t=y_t, y_prev=y_prev)
    out = _bubble_path_logdensity(np.stack([y_prev, y_t]), mu1, sigma1, n)[0]
    return out if out.ndim else float(out)


def switch_logdensity(y_t, y_prev, direction: str, params: RegimeParams):
    """Log density of y_t | y_{t-1} across a regime switch.

    ``direction`` is "bubble_end" (bubble -> normal: the price drops, bounded
    below by -kappa) or "bubble_start" (normal -> bubble: the price rises,
    bounded above by kappa). The densities are flat with height |1/mu0| resp.
    |1/mu1| on their indicator set and zero elsewhere. Accepts scalars or
    broadcastable arrays; returns the same shape.
    """
    if direction == "bubble_end":
        name, mu, band = "mu0", params.mu0, (-params.kappa <= y_t) & (y_t < y_prev)
    elif direction == "bubble_start":
        name, mu, band = "mu1", params.mu1, (y_prev <= y_t) & (y_t <= params.kappa)
    else:
        raise ValueError(f"unknown switch direction {direction!r}")
    if mu == 0:
        raise ValueError(f"{name} must be nonzero for the {direction} density")
    out = np.where(band, -np.log(abs(mu)), -np.inf)
    return out if out.ndim else float(out)


def emission_logdensities(y, regime: RegimeParams) -> np.ndarray:
    """Log densities of every step of the log-price path ``y`` for each
    state pair (s_{t-1}, s_t), as a (2, 2, len(y) - 1) array: GBM on (0, 0),
    the bubble density on (1, 1), the switch densities on (1, 0) and (0, 1),
    -inf off their bands."""
    y = np.asarray(y, dtype=float)
    y_t, y_prev, r = y[1:], y[:-1], regime
    return np.array([
        [gbm_transition_logdensity(y_t, y_prev, r.mu0, r.sigma0),
         switch_logdensity(y_t, y_prev, "bubble_start", r)],
        [switch_logdensity(y_t, y_prev, "bubble_end", r),
         _bubble_path_logdensity(y, r.mu1, r.sigma1, r.n)],
    ])


def critical_time(p0: float, mu: float, n: float) -> float:
    """Deterministic critical time t_c = p0^{-n} / (n*mu)."""
    _check_positive(p0=p0, mu=mu, n=n)
    return p0 ** (-n) / (n * mu)


def deterministic_fts_price(t, p0: float, mu: float, n: float):
    """Noise-free bubble price (n*mu)^(-1/n) * (t_c - t)^(-1/n).

    Raises :class:`SingularityError` (carrying t_c) when any t >= t_c.
    """
    t_c = critical_time(p0, mu, n)
    t = np.asarray(t, dtype=float)
    if np.any(t >= t_c):
        raise SingularityError(t_c)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    out = (n * mu) ** (-1.0 / n) * (t_c - t) ** (-1.0 / n)
    return out if out.ndim else float(out)


def ig_params(p0: float, mu: float, sigma: float, n: float) -> tuple[float, float]:
    """Mean and shape of the inverse-Gaussian law of the random critical time.

    Returns (p0^{-n}/(n*mu), [p0^{-n}/(n*sigma)]^2).
    """
    _check_positive(p0=p0, mu=mu, sigma=sigma, n=n)
    scale = p0 ** (-n)
    return scale / (n * mu), (scale / (n * sigma)) ** 2


def simulate_sa_path(
    p0: float,
    mu: float,
    sigma: float,
    n: float,
    dt: float,
    max_steps: int,
    seed: int,
) -> SimulatedPath:
    """Simulate one bubble path from the exact solution on a Brownian grid.

    The denominator n*mu*(t_c - t_k) - n*sigma*W_{t_k} is evaluated on the
    grid t_k = k*dt; the path terminates at the first k where it falls to
    ``DENOMINATOR_FLOOR`` or below, with the final price evaluated at the
    clamped floor. For n = 0 the geometric-random-walk limit
    p0*exp(mu*t + sigma*W_t) is returned and no termination occurs.

    Sampling the exact solution (rather than Euler-stepping the SDE) keeps
    the first-passage time free of integration bias near the singularity.
    """
    _check_positive(p0=p0, dt=dt)
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    for name, value in (("sigma", sigma), ("n", n)):
        if not 0.0 <= value < np.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    _check_finite(mu=mu)
    if n > 0 and mu <= 0:
        raise ValueError("mu must be positive when n > 0")

    rng = np.random.default_rng(seed)
    sqrt_dt = np.sqrt(dt)
    y0 = float(np.log(p0))

    if n == 0.0:
        w = np.concatenate([[0.0], np.cumsum(rng.standard_normal(max_steps) * sqrt_dt)])
        t = dt * np.arange(max_steps + 1)
        return SimulatedPath(y0 + mu * t + sigma * w, dt, hit_critical=False)

    t_c = critical_time(p0, mu, n)
    level = n * mu * t_c  # initial denominator value, = p0^{-n}

    # Draw increments in chunks so long horizons never materialise at once
    # and paths that hit early stop cheaply.
    chunk = 8192
    log_prices = [np.array([y0])]
    w_last = 0.0
    step = 0
    while step < max_steps:
        m = min(chunk, max_steps - step)
        w = w_last + np.cumsum(rng.standard_normal(m) * sqrt_dt)
        t = dt * np.arange(step + 1, step + m + 1)
        denom = level - n * mu * t - n * sigma * w
        hit = denom <= DENOMINATOR_FLOOR
        if hit.any():
            k = int(np.argmax(hit))
            denom = np.maximum(denom[: k + 1], DENOMINATOR_FLOOR)
            log_prices.append(-np.log(denom) / n)
            return SimulatedPath(
                np.concatenate(log_prices),
                dt,
                hit_critical=True,
                critical_time_index=step + k + 1,
            )
        log_prices.append(-np.log(denom) / n)
        w_last = w[-1]
        step += m
    return SimulatedPath(np.concatenate(log_prices), dt, hit_critical=False)
