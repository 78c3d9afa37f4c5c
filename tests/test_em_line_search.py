"""Parity of ``em_fit``'s batched line search with the one-step-at-a-time
search of ``oracles.em_fit_sequential``.

``em_fit`` scores the full step alone and the halved steps in batched
filter calls. It must give the sequential search's fit bit for bit: the
log-likelihood path, both stop flags, the parameters, and the filtered and
smoothed posteriors. A failing filter must raise exactly where the
sequential search raises: at a failing step length that comes before any
accepted one, and never at one after it. That holds both for a filter that
fails at a step and for a step length whose emission table is rejected.
"""
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import sinet.hmm as hmm_module
from sinet import EMConfig, LogPriceSeries, NumericalFailureError, SinetError, em_fit
from sinet import io as sio
from sinet.bubble import emission_logdensities
from sinet.hmm import geometric_average_filter
from sinet.pipeline import PipelineConfig
from sinet.synthetic import bundled_corpus_config


def make_series(y):
    return LogPriceSeries("syn", np.datetime64("2006-01-02", "D") + np.arange(len(y)), y)


def bits(*values):
    return np.asarray(values, dtype=float).tobytes()


def assert_same_fit(got, want):
    params, trace, filt, smth = got
    w_params, w_trace, w_filt, w_smth, _ = want
    r, w = params.regime, w_params.regime
    assert bits(r.mu0, r.sigma0, r.mu1, r.sigma1, r.n, r.kappa) == bits(
        w.mu0, w.sigma0, w.mu1, w.sigma1, w.n, w.kappa)
    assert bits(params.q) == bits(w_params.q)
    assert bits(trace.logliks) == bits(w_trace.logliks)
    assert (trace.converged, trace.stalled) == (w_trace.converged, w_trace.stalled)
    assert bits(filt.loglik) == bits(w_filt.loglik)
    assert bits(filt.filtering.values) == bits(w_filt.filtering.values)
    assert bits(filt.pairwise_filtered) == bits(w_filt.pairwise_filtered)
    assert bits(smth.smoothing.values) == bits(w_smth.smoothing.values)
    assert bits(smth.pairwise_smoothed) == bits(w_smth.pairwise_smoothed)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (SinetError, ValueError) as err:
        return type(err), str(err)


def assert_same_outcome(series, config):
    got = outcome(em_fit, series, config)
    want = outcome(oracles.em_fit_sequential, series, config)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert_same_fit(got, want)


def corpus_series():
    config = PipelineConfig.from_file(bundled_corpus_config())
    for spec in config.assets:
        table = sio.read_price_table(spec.path, config.column_map)
        series = LogPriceSeries(spec.asset_id, table["dates"], np.log(table["prices"]))
        series = geometric_average_filter(series, config.em.average_window)
        yield series.window(config.analysis_start, config.analysis_end), config.em


def test_corpus_fits_match_sequential_search():
    fits = list(corpus_series())
    assert len(fits) == 5
    for series, em in fits:
        assert_same_fit(em_fit(series, em), oracles.em_fit_sequential(series, em))


@settings(max_examples=40, deadline=None, database=None, print_blob=True)
@given(
    st.floats(-1.0, 3.0),
    st.lists(st.floats(-0.06, 0.06), min_size=11, max_size=80),
    st.sampled_from([0.6, 2.0]),
)
def test_short_series_match_sequential_search(y0, steps, kappa):
    y = y0 + np.concatenate([[0.0], np.cumsum(steps)])
    assert_same_outcome(make_series(y), EMConfig(kappa=kappa, max_iterations=20))


# This series accepts the full step at iteration 1, only lam = 1/8 at
# iteration 2, and stalls at iteration 3.
SHORTER_STEP = EMConfig(kappa=2.0, max_iterations=80)


def shorter_step_series():
    return make_series(np.cumsum(np.random.default_rng(21).normal(0.002, 0.02, 60)))


def batched_members(series, config):
    """The trial parameters of each batched ``_forward`` call of ``em_fit``'s
    line search, in order: the blends made just before it, one per member
    (the unbatched calls of ``hamilton_filter`` left out)."""
    blends, calls = [], []
    blend, forward = hmm_module._blend_params, hmm_module._forward

    def recording_blend(*args):
        blends.append(blend(*args))
        return blends[-1]

    def recording_forward(ops, q, pi):
        if ops.ndim == 4:
            calls.append(blends[-ops.shape[2]:])
        return forward(ops, q, pi)

    with mock.patch.object(hmm_module, "_blend_params", recording_blend), \
            mock.patch.object(hmm_module, "_forward", recording_forward):
        em_fit(series, config)
    return calls


def dead_step(target, step):
    """``emission_logdensities``, with every state pair of ``step`` dead
    under the regime of ``target``: its filter fails there."""
    def logdensities(y, regime):
        out = emission_logdensities(y, regime)
        if regime == target.regime:
            out[..., step - 1] = -np.inf
        return out
    return mock.patch.object(hmm_module, "emission_logdensities", logdensities)


def zero_drift(target):
    """``emission_logdensities``, with the regime of ``target`` given a
    bubble drift of exactly 0, as a blend can give: its table is rejected
    with the library's own ``ValueError``."""
    def logdensities(y, regime):
        if regime == target.regime:
            regime = replace(regime, mu1=0.0)
        return emission_logdensities(y, regime)
    return mock.patch.object(hmm_module, "emission_logdensities", logdensities)


def test_accepted_shorter_step_matches_sequential_search():
    # each batched call holds all eleven halved steps: iteration 2 stops in
    # it at lam = 1/8, the stall scores all of them
    series = shorter_step_series()
    want = oracles.em_fit_sequential(series, SHORTER_STEP)
    assert want[-1] == [1.0, 0.125]
    assert want[1].stalled
    assert_same_fit(em_fit(series, SHORTER_STEP), want)
    assert [len(c) for c in batched_members(series, SHORTER_STEP)] == [11, 11]


# iteration 2's lam = 1/2 and lam = 1/4, both before the accepted lam = 1/8;
# a table rejected at lam = 1/2 leaves no step to score in a batch
BEFORE_ACCEPTED = pytest.mark.parametrize("member", [0, 1], ids=["half", "quarter"])


@BEFORE_ACCEPTED
def test_failure_before_the_accepted_step_raises_as_sequential_search(member):
    series = shorter_step_series()
    target = batched_members(series, SHORTER_STEP)[0][member]
    with dead_step(target, 7):
        with pytest.raises(NumericalFailureError) as err:
            oracles.em_fit_sequential(series, SHORTER_STEP)
        assert str(err.value) == "EM iteration 2: filter normaliser 0.0 at step 7"
        assert outcome(em_fit, series, SHORTER_STEP) == (NumericalFailureError, str(err.value))


def test_failure_after_the_accepted_step_is_never_raised():
    series = shorter_step_series()
    sixteenth = batched_members(series, SHORTER_STEP)[0][3]  # iteration 2, lam = 1/16
    with dead_step(sixteenth, 7):
        with pytest.raises(NumericalFailureError):
            hmm_module.hamilton_filter(series, sixteenth, initial=[0.5, 0.5])
        assert_same_fit(em_fit(series, SHORTER_STEP),
                        oracles.em_fit_sequential(series, SHORTER_STEP))


@BEFORE_ACCEPTED
def test_rejected_table_before_the_accepted_step_raises_as_sequential_search(member):
    series = shorter_step_series()
    target = batched_members(series, SHORTER_STEP)[0][member]
    with zero_drift(target):
        want = outcome(oracles.em_fit_sequential, series, SHORTER_STEP)
        assert want == (ValueError, "mu1 must be nonzero for the bubble_start density")
        assert outcome(em_fit, series, SHORTER_STEP) == want


def test_rejected_table_after_the_accepted_step_is_never_raised():
    series = shorter_step_series()
    sixteenth = batched_members(series, SHORTER_STEP)[0][3]  # iteration 2, lam = 1/16
    with zero_drift(sixteenth):
        with pytest.raises(ValueError):
            hmm_module.hamilton_filter(series, sixteenth, initial=[0.5, 0.5])
        assert_same_fit(em_fit(series, SHORTER_STEP),
                        oracles.em_fit_sequential(series, SHORTER_STEP))
