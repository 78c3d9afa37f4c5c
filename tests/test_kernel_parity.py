"""Bitwise parity of the E-step kernels with the step-by-step loops in
``oracles``: the same filtering, pairwise tables and log-likelihood bit for
bit, and the same failing step and message."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from sinet import (
    LogPriceSeries,
    ModelParams,
    NumericalFailureError,
    ProbabilitySeries,
    RegimeParams,
    hamilton_filter,
    kim_smoother,
)
from sinet.hmm import FilterOutput, SmootherOutput
import sinet.hmm as hmm_module

PARITY = settings(max_examples=300, deadline=None, database=None)

# probabilities at and next to the ends of [0, 1] as well as inside it
probability = st.one_of(
    st.sampled_from([0.0, 1e-300, 1e-15, 1.0 - 1e-15, 1.0]), st.floats(0.0, 1.0)
)
# small moves, flat steps, and jumps that push the Gaussian densities down
# to DENSITY_FLOOR
log_step = st.one_of(st.floats(-0.3, 0.3), st.sampled_from([0.0, 5.0, -5.0]))


def dates(n):
    return np.datetime64("2006-01-02", "D") + np.arange(n)


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


@st.composite
def instances(draw):
    """Parameters, initial distribution and log prices. A small ``kappa``
    leaves switch channels dead on most steps; with ``overflow`` set, the
    subnormal bubble scale makes the filter normaliser overflow on a flat
    step (or on a live bubble-start switch, whose height 1/mu1 is inf)."""
    y = np.cumsum([draw(st.floats(-2.0, 2.0))] + draw(st.lists(log_step, min_size=1,
                                                                max_size=40)))
    overflow = draw(st.booleans())
    if overflow:
        mu1, sigma1 = 1e-310, 1e-309
    else:
        mu1, sigma1 = draw(st.floats(1e-3, 0.5)), draw(st.floats(1e-3, 0.5))
    regime = RegimeParams(
        mu0=draw(st.floats(-0.05, 0.05).filter(lambda v: v != 0.0)),
        sigma0=draw(st.floats(1e-3, 0.5)),
        mu1=mu1,
        sigma1=sigma1,
        n=draw(st.floats(0.05, 3.0)),
        kappa=draw(st.floats(0.05, 3.0)),
    )
    q00, q11 = draw(probability), draw(probability)
    params = ModelParams(regime, np.array([[q00, 1.0 - q00], [1.0 - q11, q11]]))
    p1 = draw(probability)
    return params, np.array([1.0 - p1, p1]), y


def reference_filter(series, params, initial):
    dens = hmm_module._emission_densities(series.log_prices, params)
    filtering, pairwise, loglik = oracles.hamilton_filter_steps(dens, params.q, initial)
    probs = ProbabilitySeries(series.timestamps, np.clip(filtering, 0.0, 1.0))
    return FilterOutput(probs, pairwise, loglik)


def reference_smoother(filt, params):
    smoothing, pairwise = oracles.kim_smoother_steps(
        filt.filtering.values, filt.pairwise_filtered
    )
    probs = ProbabilitySeries(filt.filtering.timestamps, np.clip(smoothing, 0.0, 1.0))
    return SmootherOutput(probs, pairwise)


def outcome(fn, *args):
    """The output, or what was raised: a failing step with its message, or
    an output validation error."""
    try:
        return fn(*args)
    except (NumericalFailureError, oracles.RecursionFailure) as err:
        return ("step failure", err.step, str(err))
    except ValueError as err:
        return ("invalid output", str(err))


def assert_same_filter(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert bits(got.filtering.values) == bits(want.filtering.values)
    assert bits(got.pairwise_filtered) == bits(want.pairwise_filtered)
    assert got.loglik.hex() == want.loglik.hex()


def assert_same_smoother(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert bits(got.smoothing.values) == bits(want.smoothing.values)
    assert bits(got.pairwise_smoothed) == bits(want.pairwise_smoothed)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@PARITY
@given(instances())
def test_filter_and_smoother_match_step_loops_bitwise(instance):
    params, initial, y = instance
    series = LogPriceSeries("syn", dates(len(y)), y)
    filt = outcome(hamilton_filter, series, params, initial)
    assert_same_filter(filt, outcome(reference_filter, series, params, initial))
    if isinstance(filt, FilterOutput):
        assert_same_smoother(outcome(kim_smoother, filt, params),
                             outcome(reference_smoother, filt, params))


@st.composite
def filter_outputs(draw):
    """Hand-built filtered tables with zeroed cells: landing columns that
    are empty while later smoothed mass still needs them fail the backward
    step, the rest take the dead-column branch."""
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    tables = []
    for _ in range(draw(st.integers(1, 30))):
        cells = np.array([draw(cell) for _ in range(4)])
        if cells.sum() == 0.0:
            cells[draw(st.integers(0, 3))] = 1.0
        tables.append((cells / cells.sum()).reshape(2, 2))
    pairwise = np.array(tables)
    marginal = np.clip(pairwise.sum(axis=1)[:, 1], 0.0, 1.0)
    filtering = np.concatenate([[draw(probability)], marginal])
    return FilterOutput(ProbabilitySeries(dates(len(filtering)), filtering), pairwise, 0.0)


@PARITY
@given(filter_outputs())
def test_smoother_matches_step_loop_on_hand_built_tables(filt):
    params = ModelParams(RegimeParams(0.1, 0.1, 0.1, 0.1, 1.0), np.eye(2))
    assert_same_smoother(outcome(kim_smoother, filt, params),
                         outcome(reference_smoother, filt, params))


# exponents whose n**2 by the C library's pow, as numpy computes it for a
# scalar, is one ulp away from the correctly rounded n*n of an array square
POW_NOT_SQUARE = [float.fromhex(h) for h in (
    "0x1.aac7e8adf2082p+2", "0x1.694ed4822e3c4p+2", "0x1.3698bdfb60b6ap+1")]


@pytest.mark.parametrize("level", [0.0, 75.0])
@pytest.mark.parametrize("T", [1_000, 11_600])
def test_feedback_grid_matches_pointwise_reference_bitwise(T, level):
    # at level 75 the top of the n grid drives n*y past the exponent clamp
    rng = np.random.default_rng(T + int(level))
    y = level + np.cumsum(rng.normal(1e-4, 0.01, T + 1))
    w11 = rng.uniform(0.0, 1.0, T)
    mu1, sigma1 = 0.03, 0.02
    grid = np.geomspace(1e-4, 10.0, 257)
    got = hmm_module._feedback_grid(y, w11, mu1, sigma1, grid)
    want = [oracles.feedback_equation(y, w11, mu1, sigma1, n) for n in grid]
    assert bits(got) == bits(want)
    for n in [*rng.uniform(1e-4, 10.0, 8), *POW_NOT_SQUARE]:
        assert (hmm_module._feedback_equation(y, w11, mu1, sigma1, float(n)).hex()
                == oracles.feedback_equation(y, w11, mu1, sigma1, float(n)).hex())
