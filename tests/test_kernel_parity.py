"""Parity of the E-step kernels with exact recursions.

The filter and the smoother run cyclic reductions, which sum in another
order than the step-by-step recursions in ``oracles``, so the contract is a
tolerance against those recursions in exact or 50-digit arithmetic over the
same float inputs:

* the filter fails where the log-domain recursion over the same log
  emission table fails: at the first step with no live state pair, with
  the normaliser 0.0;
* otherwise filtering and pairwise tables are within 1e-12 of that
  recursion and the log-likelihood within 1e-12 relative (1e-12 absolute
  near 0);
* the smoother gives the outcome of the exact backward recursion over the
  filter's own tables, within 1e-13, and on hand-built tables the outcome
  of the float step loop, within 1e-13;
* a batched reduction, one series under several parameter sets, gives each
  member exactly the single filter's outcome, bit for bit.

Property tests follow: invariance of the posteriors under rescaled
densities, agreement with path enumeration, and normalised pairwise tables.
"""
import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

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
from sinet.bubble import emission_logdensities
from sinet.hmm import FilterOutput, SmootherOutput
import sinet.hmm as hmm_module

PARITY = settings(max_examples=300, deadline=None, database=None, print_blob=True)
PROPERTY = settings(max_examples=100, deadline=None, database=None, print_blob=True)

# probabilities at and next to the ends of [0, 1] as well as inside it
probability = st.one_of(
    st.sampled_from([0.0, 1e-300, 1e-15, 1.0 - 1e-15, 1.0]), st.floats(0.0, 1.0)
)
# small moves, flat steps, and jumps that push the Gaussian densities far
# below the smallest positive float
log_step = st.one_of(st.floats(-0.3, 0.3), st.sampled_from([0.0, 5.0, -5.0]))


def dates(n):
    return np.datetime64("2006-01-02", "D") + np.arange(n)


@st.composite
def instances(draw):
    """Parameters, initial distribution and log prices. A small ``kappa``
    leaves switch channels dead on most steps; with ``dead`` set, the chain
    alternates (q00 = q11 = 0), so a step with its switch channel off its
    band has no live state pair and the filter fails there. The subnormal
    bubble scale makes densities whose exponentials overflow."""
    y = np.cumsum([draw(st.floats(-2.0, 2.0))] + draw(st.lists(log_step, min_size=1,
                                                                max_size=40)))
    if draw(st.booleans()):
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
    dead = draw(st.booleans())
    q00, q11 = (0.0, 0.0) if dead else (draw(probability), draw(probability))
    params = ModelParams(regime, np.array([[q00, 1.0 - q00], [1.0 - q11, q11]]))
    p1 = draw(probability)
    return params, np.array([1.0 - p1, p1]), y


@st.composite
def moderate_instances(draw, max_steps=40):
    """Instances whose densities stay far from the float range limits, so
    that path enumeration and rescaled densities are exact enough."""
    inner = st.floats(0.05, 0.95)
    y = np.cumsum([draw(st.floats(-0.5, 0.5))]
                  + draw(st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=max_steps)))
    regime = RegimeParams(
        mu0=draw(st.floats(1e-3, 0.05)) * draw(st.sampled_from([-1.0, 1.0])),
        sigma0=draw(st.floats(0.05, 0.3)),
        mu1=draw(st.floats(0.02, 0.5)),
        sigma1=draw(st.floats(0.05, 0.5)),
        n=draw(st.floats(0.2, 2.0)),
        kappa=draw(st.floats(0.5, 2.0)),
    )
    q00, q11, p1 = draw(inner), draw(inner), draw(inner)
    params = ModelParams(regime, np.array([[q00, 1.0 - q00], [1.0 - q11, q11]]))
    return params, np.array([1.0 - p1, p1]), y


def _as_filter(series, filtering, pairwise, loglik):
    probs = ProbabilitySeries(series.timestamps, np.clip(filtering, 0.0, 1.0))
    return FilterOutput(probs, pairwise, loglik)


def exact_filter(series, params, initial):
    logdens = emission_logdensities(series.log_prices, params.regime)
    return _as_filter(series, *oracles.hamilton_filter_exact(logdens, params.q, initial))


def _as_smoother(filt, smoothing, pairwise):
    probs = ProbabilitySeries(filt.filtering.timestamps, np.clip(smoothing, 0.0, 1.0))
    return SmootherOutput(probs, pairwise)


def loop_smoother(filt):
    return _as_smoother(filt, *oracles.kim_smoother_steps(
        filt.filtering.values, filt.pairwise_filtered))


def exact_smoother(filt):
    return _as_smoother(filt, *oracles.kim_smoother_exact(
        filt.filtering.values, filt.pairwise_filtered))


def outcome(fn, *args):
    """The output, or what was raised: a failing step with its message, or
    an output validation error."""
    try:
        return fn(*args)
    except (NumericalFailureError, oracles.RecursionFailure) as err:
        return ("step failure", err.step, str(err))
    except ValueError as err:
        return ("invalid output", str(err))


def assert_close_filter(got, want):
    np.testing.assert_allclose(got.filtering.values, want.filtering.values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.pairwise_filtered, want.pairwise_filtered, rtol=0, atol=1e-12)
    # a normaliser that rounds to 1.0 leaves no relative accuracy near 0
    assert math.isclose(got.loglik, want.loglik, rel_tol=1e-12, abs_tol=1e-12)


def assert_same_smoother(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    np.testing.assert_allclose(got.smoothing.values, want.smoothing.values, rtol=0, atol=1e-13)
    np.testing.assert_allclose(got.pairwise_smoothed, want.pairwise_smoothed, rtol=0, atol=1e-13)


@PARITY
@given(instances())
# after a structural zero, a -5 jump puts the rows of one operator product
# ~1e7 nats apart: with one scale per product the last posterior was 1e-10 off
@example((ModelParams(RegimeParams(0.03125, 0.5, 0.03125, 0.03125, 1.0, 1.0),
                      np.array([[0.0, 1.0], [0.5, 0.5]])),
          np.array([1.0, 0.0]), np.array([0.0, 0.0, -5.0, 0.0, -3.90625e-03])))
# the same start padded to 300 steps: nine reduction levels on long arrays
@example((ModelParams(RegimeParams(0.03125, 0.5, 0.03125, 0.03125, 1.0, 1.0),
                      np.array([[0.0, 1.0], [0.5, 0.5]])),
          np.array([1.0, 0.0]),
          np.concatenate([[0.0, 0.0, -5.0], 0.05 * np.sin(np.arange(298))])))
def test_filter_and_smoother_match_exact_recursions(instance):
    params, initial, y = instance
    series = LogPriceSeries("syn", dates(len(y)), y)
    filt = outcome(hamilton_filter, series, params, initial)
    exact = outcome(exact_filter, series, params, initial)
    if isinstance(exact, tuple):
        assert filt == exact
        return
    assert_close_filter(filt, exact)
    assert_same_smoother(outcome(kim_smoother, filt), outcome(exact_smoother, filt))


@PARITY
@given(st.lists(instances(), min_size=1, max_size=6), st.integers(0, 5))
def test_batch_members_equal_single_filters(members, shift):
    # one series under every member's parameters, the batch rotated so that
    # each member comes first in some example: a member whose normalisers are
    # all finite has a single filter that succeeds with their sum as its
    # log-likelihood and the member's tables, bit for bit; any other fails at
    # the member's first non-finite step
    _, initial, y = members[0]
    series = LogPriceSeries("syn", dates(len(y)), y)
    shift %= len(members)
    params = [p for p, _, _ in members[shift:] + members[:shift]]
    ops = np.stack([emission_logdensities(y, p.regime) for p in params], axis=2)
    log_norms, filtered, pairwise = hmm_module._forward(
        ops, np.stack([p.q for p in params], axis=-1), initial)
    for b, p in enumerate(params):
        want = outcome(hamilton_filter, series, p, initial)
        bad = ~np.isfinite(log_norms[b])
        if bad.any():
            # ops now holds the log cells, whose exponentials sum to the normaliser
            step = int(np.argmax(bad)) + 1
            norm = float(np.exp(ops[:, :, b, step - 1]).sum())
            assert want == ("step failure", step, f"filter normaliser {norm!r} at step {step}")
            continue
        assert isinstance(want, FilterOutput)
        assert np.float64(log_norms[b].sum()).tobytes() == np.float64(want.loglik).tobytes()
        assert np.concatenate([initial[1:], filtered[b]]).tobytes() == \
            want.filtering.values.tobytes()
        assert pairwise[:, :, b].transpose(2, 0, 1).tobytes() == want.pairwise_filtered.tobytes()


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
    assert_same_smoother(outcome(kim_smoother, filt), outcome(loop_smoother, filt))


@PROPERTY
@given(moderate_instances(), st.data())
def test_rescaled_densities_leave_posteriors_and_shift_loglik(instance, data):
    # each step's densities times 2**k: its log table shifted by k ln 2
    params, initial, y = instance
    series = LogPriceSeries("syn", dates(len(y)), y)
    powers = np.array(data.draw(st.lists(st.integers(-16, 64), min_size=len(y) - 1,
                                         max_size=len(y) - 1)))
    with mock.patch.object(hmm_module, "emission_logdensities",
                           lambda y, r: emission_logdensities(y, r) + math.log(2.0) * powers):
        scaled = hamilton_filter(series, params, initial)
    filt = hamilton_filter(series, params, initial)
    np.testing.assert_allclose(scaled.filtering.values, filt.filtering.values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(kim_smoother(scaled).smoothing.values,
                               kim_smoother(filt).smoothing.values, rtol=0, atol=1e-12)
    shift = math.log(2.0) * powers.sum()
    assert math.isclose(scaled.loglik - filt.loglik, shift, rel_tol=1e-12, abs_tol=1e-11)


def theta(params):
    r = params.regime
    return (r.mu0, r.sigma0, r.mu1, r.sigma1, r.n, r.kappa)


@PROPERTY
@given(moderate_instances(max_steps=8))
def test_loglik_and_smoothing_match_path_enumeration(instance):
    params, initial, y = instance
    series = LogPriceSeries("syn", dates(len(y)), y)
    _, _, smoothing, _, loglik = oracles.enumerate_posteriors(y, params.q, initial, theta(params))
    filt = hamilton_filter(series, params, initial)
    assert math.isclose(filt.loglik, loglik, rel_tol=1e-12, abs_tol=1e-12)
    np.testing.assert_allclose(kim_smoother(filt).smoothing.values, smoothing,
                               rtol=0, atol=1e-12)


@PROPERTY
@given(instances())
def test_smoothed_pairwise_tables_sum_to_one(instance):
    params, initial, y = instance
    series = LogPriceSeries("syn", dates(len(y)), y)
    filt = outcome(hamilton_filter, series, params, initial)
    smth = outcome(kim_smoother, filt) if isinstance(filt, FilterOutput) else filt
    if isinstance(smth, SmootherOutput):
        np.testing.assert_allclose(smth.pairwise_smoothed.sum(axis=(1, 2)), 1.0,
                                   rtol=0, atol=1e-12)
