import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from sinet import (
    EMConfig,
    InsufficientDataError,
    LogPriceSeries,
    ModelParams,
    NumericalFailureError,
    ProbabilitySeries,
    RegimeParams,
    bubble_time_fraction,
    em_fit,
    geometric_average_filter,
    hamilton_filter,
    kim_smoother,
    m_step,
    simulate_sa_path,
    solve_feedback_exponent,
    threshold_fractions,
)
from sinet.bubble import EXP_CLAMP
from sinet.hmm import FilterOutput, SmootherOutput
from sinet.io import read_price_table
from sinet.pipeline import PipelineConfig, calibrate_asset
from sinet.synthetic import bundled_corpus_config
import sinet.hmm as hmm_module


SRC = str(Path(__file__).resolve().parents[1] / "src")
USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

# fits a 12,001-point series with six rallies and prints every fitted figure
LONG_FIT = f"""
import sys
sys.path.insert(0, {SRC!r})
import numpy as np
from sinet import EMConfig, LogPriceSeries, em_fit
rng = np.random.default_rng(11)
steps = rng.normal(1e-4, 0.01, 12000)
for start in range(1000, 12000, 2000):
    steps[start:start + 300] += np.linspace(0.0, 0.01, 300)
y = np.concatenate([[0.0], np.cumsum(steps)])
series = LogPriceSeries("long", np.datetime64("1990-01-01") + np.arange(len(y)), y)
params, trace, _, _ = em_fit(series, EMConfig(kappa=float(np.ceil(np.abs(y).max())) + 1.0))
print(repr(params.regime), repr(params.q.tolist()), repr(trace.logliks))
"""


def random_instance(rng, max_points=9):
    """Random parameters, initial distribution and a short series."""
    n_points = int(rng.integers(4, max_points))
    regime = RegimeParams(
        mu0=float(rng.uniform(-0.05, 0.05)),
        sigma0=float(rng.uniform(0.05, 0.3)),
        mu1=float(rng.uniform(0.02, 0.5)),
        sigma1=float(rng.uniform(0.05, 0.5)),
        n=float(rng.uniform(0.2, 2.0)),
        kappa=float(rng.uniform(0.5, 2.0)),
    )
    q00 = float(rng.uniform(0.05, 0.95))
    q11 = float(rng.uniform(0.05, 0.95))
    params = ModelParams(regime, np.array([[q00, 1 - q00], [1 - q11, q11]]))
    p1 = float(rng.uniform(0.05, 0.95))
    initial = np.array([1 - p1, p1])
    y = float(rng.uniform(-0.5, 0.5)) + np.concatenate(
        [[0.0], np.cumsum(rng.normal(0.0, 0.2, n_points - 1))]
    )
    return params, initial, y


def make_series(y, asset_id="syn"):
    ts = np.datetime64("2006-01-02", "D") + np.arange(len(y))
    return LogPriceSeries(asset_id, ts, np.asarray(y, dtype=float))


def theta_tuple(params):
    r = params.regime
    return (r.mu0, r.sigma0, r.mu1, r.sigma1, r.n, r.kappa)


def consistent_random_weights(rng, T):
    """Random pairwise posteriors whose chained marginals agree."""
    w = np.empty((T, 2, 2))
    w[0] = rng.dirichlet(np.ones(4)).reshape(2, 2)
    for k in range(1, T):
        marg = w[k - 1].sum(axis=0)
        cond = rng.dirichlet(np.ones(2), size=2)
        w[k] = marg[:, None] * cond
    return w


def smoother_from_weights(weights, timestamps):
    values = np.empty(len(weights) + 1)
    values[:-1] = weights[:, 1, :].sum(axis=1)
    values[-1] = weights[-1, :, 1].sum()
    probs = ProbabilitySeries(timestamps, np.clip(values, 0.0, 1.0))
    return SmootherOutput(probs, weights)


class TestGeometricAverageFilter:
    def test_constant_series_unchanged(self, make_series):
        s = make_series(np.full(30, 1.7))
        out = geometric_average_filter(s, window=10)
        assert len(out) == 21
        np.testing.assert_allclose(out.log_prices, 1.7)

    def test_linear_series_keeps_slope(self, make_series):
        s = make_series(0.02 * np.arange(50))
        out = geometric_average_filter(s, window=20)
        np.testing.assert_allclose(np.diff(out.log_prices), 0.02, rtol=1e-12)

    def test_timestamps_align_right_edge(self, make_series):
        s = make_series(np.arange(10.0))
        out = geometric_average_filter(s, window=4)
        np.testing.assert_array_equal(out.timestamps, s.timestamps[3:])

    def test_too_short_series_rejected(self, make_series):
        s = make_series(np.zeros(99))
        with pytest.raises(InsufficientDataError):
            geometric_average_filter(s, window=100)

    def test_window_one_returns_raw_prices(self):
        # window 1 means raw prices; the running-sum form would move ENE's
        # log prices by up to 1.1e-13
        table = read_price_table(bundled_corpus_config().parent / "ENE.csv")
        s = LogPriceSeries("ENE", table["dates"], np.log(table["prices"]))
        out = geometric_average_filter(s, window=1)
        assert out.log_prices.tobytes() == s.log_prices.tobytes()
        np.testing.assert_array_equal(out.timestamps, s.timestamps)


class TestModelParams:
    # each check is written so that NaN and +-inf fail it
    @pytest.mark.parametrize("q, message", [
        ([[np.nan, np.nan], [0.5, 0.5]], "transition probabilities must lie in [0, 1]"),
        ([[0.5, 0.5], [np.inf, -np.inf]], "transition probabilities must lie in [0, 1]"),
        ([[1.0, 0.0], [np.nan, 1.0]], "transition probabilities must lie in [0, 1]"),
        ([[0.5, 0.5], [0.5, 0.6]], "each row of q must sum to 1"),
    ])
    def test_bad_transition_matrix_rejected(self, q, message):
        regime = RegimeParams(0.001, 0.1, 0.1, 0.1, 1.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ModelParams(regime, np.array(q))


class TestPosteriorTables:
    # each check is written so that NaN fails it
    probs = ProbabilitySeries(np.datetime64("2006-01-02") + np.arange(3), [0.5, 0.5, 0.5])
    table = np.full((2, 2, 2), 0.25)
    one_nan = table.copy()
    one_nan[1, 0, 1] = np.nan

    @pytest.mark.parametrize("pairwise", [np.full((2, 2, 2), np.nan), one_nan],
                             ids=["all", "one"])
    def test_nan_pairwise_table_rejected(self, pairwise):
        with pytest.raises(ValueError, match=r"^pairwise probabilities must lie in \[0, 1\]$"):
            FilterOutput(self.probs, pairwise, 0.0)
        with pytest.raises(ValueError, match=r"^pairwise probabilities must lie in \[0, 1\]$"):
            SmootherOutput(self.probs, pairwise)

    def test_nan_loglik_rejected(self):
        with pytest.raises(ValueError, match="^loglik must not be NaN$"):
            FilterOutput(self.probs, self.table, np.nan)


class TestHamiltonFilter:
    @pytest.mark.parametrize("initial", [
        [np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0], [-np.inf, np.inf], [0.3, 0.3],
    ])
    def test_bad_initial_distribution_rejected(self, make_series, initial):
        params = ModelParams(RegimeParams(0.001, 0.1, 0.1, 0.1, 1.0),
                             np.array([[0.9, 0.1], [0.2, 0.8]]))
        with pytest.raises(ValueError,
                           match="^initial must be a length-2 distribution summing to 1$"):
            hamilton_filter(make_series(np.linspace(0.0, 0.3, 12)), params, initial=initial)

    def test_absorbing_chain_never_enters_bubble(self, make_series):
        rng = np.random.default_rng(5)
        s = make_series(np.cumsum(rng.normal(0, 0.1, 20)))
        regime = RegimeParams(0.001, 0.1, 0.1, 0.1, 1.0, kappa=1.0)
        params = ModelParams(regime, np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = hamilton_filter(s, params, initial=[1.0, 0.0])
        np.testing.assert_array_equal(out.filtering.values, 0.0)

    def test_equal_update_factors_reduce_to_chain(self, make_series, monkeypatch):
        # with all four emission factors equal the likelihood cancels in the
        # normalisation, leaving the pure chain prediction
        monkeypatch.setattr(
            hmm_module, "emission_logdensities", lambda y, regime: np.zeros((2, 2, len(y) - 1))
        )
        rng = np.random.default_rng(1)
        s = make_series(rng.normal(0, 1, 12))
        q = np.array([[0.8, 0.2], [0.4, 0.6]])
        params = ModelParams(RegimeParams(0.0, 0.1, 0.1, 0.1, 1.0), q)
        out = hamilton_filter(s, params, initial=[0.7, 0.3])
        dist = np.array([0.7, 0.3])
        for t in range(1, 12):
            dist = dist @ q
            assert out.filtering.values[t] == pytest.approx(dist[1], abs=1e-14)

    def test_matches_path_enumeration(self, make_series):
        rng = np.random.default_rng(123)
        for _ in range(25):
            params, initial, y = random_instance(rng)
            s = make_series(y)
            out = hamilton_filter(s, params, initial=initial)
            filt, pair_f, _, _, loglik = oracles.enumerate_posteriors(
                y, params.q, initial, theta_tuple(params)
            )
            np.testing.assert_allclose(out.filtering.values, filt, atol=1e-10)
            np.testing.assert_allclose(out.pairwise_filtered, pair_f, atol=1e-10)
            assert out.loglik == pytest.approx(loglik, abs=1e-8)

    def test_nonfinite_normaliser_names_step(self, make_series):
        # the chain alternates: step 1 falls, so a bubble end takes it from
        # state 1 to 0; from there only a bubble start goes on, and y_2 >
        # kappa is off its band, so no state pair of step 2 is live
        y = np.array([0.2, 0.1, 1.5])
        s = make_series(y)
        regime = RegimeParams(0.001, 0.1, 0.1, 0.1, 1.0, kappa=1.0)
        params = ModelParams(regime, np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NumericalFailureError) as err:
            hamilton_filter(s, params, initial=[0.0, 1.0])
        assert err.value.step == 2
        assert "filter normaliser 0.0 at step 2" in str(err.value)


class TestKimSmoother:
    @pytest.fixture
    def fitted(self, make_series):
        rng = np.random.default_rng(77)
        params, initial, y = random_instance(rng)
        s = make_series(y)
        filt = hamilton_filter(s, params, initial=initial)
        return s, params, initial, filt, kim_smoother(filt)

    def test_terminal_smoothing_equals_filtering(self, fitted):
        _, _, _, filt, smth = fitted
        assert smth.smoothing.values[-1] == filt.filtering.values[-1]

    def test_pairwise_marginalisation_identity(self, fitted):
        _, _, _, _, smth = fitted
        # P(s_t | y_T) must equal the later-state marginal of the pairwise table
        lead = smth.pairwise_smoothed.sum(axis=2)[:, 1]
        np.testing.assert_allclose(lead, smth.smoothing.values[:-1], atol=1e-12)

    def test_matches_path_enumeration(self, make_series):
        rng = np.random.default_rng(321)
        for _ in range(25):
            params, initial, y = random_instance(rng)
            s = make_series(y)
            filt = hamilton_filter(s, params, initial=initial)
            smth = kim_smoother(filt)
            _, _, smooth, pair_s, _ = oracles.enumerate_posteriors(
                y, params.q, initial, theta_tuple(params)
            )
            np.testing.assert_allclose(smth.smoothing.values, smooth, atol=1e-10)
            np.testing.assert_allclose(smth.pairwise_smoothed, pair_s, atol=1e-10)

    def test_zero_denominator_names_step(self, make_series):
        # hand-built filter output whose smoothed mass lands on a state the
        # earlier pairwise table says is unreachable
        s = make_series(np.array([0.0, 0.1, 0.2]))
        probs = ProbabilitySeries(s.timestamps, np.array([0.5, 0.0, 0.7]))
        pairwise = np.array(
            [[[1.0, 0.0], [0.0, 0.0]], [[0.2, 0.3], [0.1, 0.4]]]
        )
        filt = FilterOutput(probs, pairwise, loglik=0.0)
        params = ModelParams(
            RegimeParams(0.1, 0.1, 0.1, 0.1, 1.0), np.array([[1.0, 0.0], [1.0, 0.0]])
        )
        with pytest.raises(NumericalFailureError):
            kim_smoother(filt)


class TestMStep:
    def test_uniform_normal_weights_give_sample_moments(self, make_series):
        rng = np.random.default_rng(8)
        y = np.cumsum(rng.normal(0.01, 0.05, 40))
        s = make_series(y)
        T = len(y) - 1
        weights = np.zeros((T, 2, 2))
        weights[:, 0, 0] = 1.0
        smth = smoother_from_weights(weights, s.timestamps)
        freeze = ModelParams(
            RegimeParams(0.0, 0.1, 0.1, 0.1, 0.5), np.array([[0.9, 0.1], [0.1, 0.9]])
        )
        upd = m_step(smth, s, 0.5, freeze=freeze)
        dy = np.diff(y)
        assert upd.regime.mu0 == pytest.approx(dy.mean(), abs=1e-14)
        assert upd.regime.sigma0 == pytest.approx(dy.std(), abs=1e-14)  # population std

    def test_symmetric_counts_give_half(self, make_series):
        s = make_series(np.linspace(0.0, 0.1, 13))
        weights = np.full((12, 2, 2), 0.25)
        smth = smoother_from_weights(weights, s.timestamps)
        upd = m_step(smth, s, 0.5, freeze=FREEZE)
        np.testing.assert_allclose(upd.q, 0.5)

    def test_q_rows_remain_stochastic(self, make_series):
        rng = np.random.default_rng(9)
        for _ in range(10):
            y = np.cumsum(rng.normal(0, 0.1, 30))
            s = make_series(y)
            weights = consistent_random_weights(rng, len(y) - 1)
            upd = m_step(smoother_from_weights(weights, s.timestamps), s, 0.7, freeze=FREEZE)
            np.testing.assert_allclose(upd.q.sum(axis=1), 1.0, atol=1e-12)

    def test_weightless_regime_and_row_keep_freeze_values(self, make_series):
        s = make_series(np.linspace(0, 0.2, 11))
        weights = np.zeros((10, 2, 2))
        weights[:, 0, 0] = 1.0
        smth = smoother_from_weights(weights, s.timestamps)
        freeze = ModelParams(RegimeParams(0.3, 0.2, 0.04, 0.05, 0.5, kappa=1.7),
                             np.array([[0.9, 0.1], [0.25, 0.75]]))
        upd = m_step(smth, s, 0.8, freeze=freeze)
        r = upd.regime
        assert (r.mu1, r.sigma1, r.n, r.kappa) == (0.04, 0.05, 0.8, 1.7)
        assert r.mu0 == pytest.approx(0.02)
        np.testing.assert_array_equal(upd.q, [[1.0, 0.0], [0.25, 0.75]])

    @settings(max_examples=100, deadline=None, database=None, print_blob=True)
    @given(st.integers(0, 2**32 - 1), st.integers(5, 60), st.floats(-8.0, 0.0),
           st.floats(-0.01, 0.03))
    @example(seed=0, T=30, log10_n=-8.0, drift=0.01)
    def test_moments_are_exact_weighted_moments(self, seed, T, log10_n, drift):
        # each mean within 1e-12 of the weighted mean of |x|, which bounds
        # its rounding error however the signs of x cancel
        rng = np.random.default_rng(seed)
        n = 10.0**log10_n
        y = rng.uniform(-1.0, 1.0) + np.cumsum(rng.normal(drift, 0.01, T + 1))
        s = make_series(y)
        weights = consistent_random_weights(rng, T)
        r = m_step(smoother_from_weights(weights, s.timestamps), s, n, freeze=FREEZE).regime
        dy = [Decimal(b) - Decimal(a) for a, b in zip(y[:-1], y[1:])]
        v = [step / Decimal(n) for step in oracles.bubble_steps_decimal(y, n)]
        for w, x, mu, sigma in ((weights[:, 0, 0], dy, r.mu0, r.sigma0),
                                (weights[:, 1, 1], v, r.mu1, r.sigma1)):
            mean, deviation, size = oracles.weighted_moments(w, x)
            assert abs(mu - mean) <= 1e-12 * size
            assert sigma == pytest.approx(deviation, rel=1e-12)

    def test_updates_match_coordinate_maximisers(self, make_series):
        rng = np.random.default_rng(2024)
        y = np.cumsum(rng.normal(0.002, 0.08, 51))
        s = make_series(y)
        weights = consistent_random_weights(rng, 50)
        smth = smoother_from_weights(weights, s.timestamps)
        current_n = 0.6
        upd = m_step(smth, s, current_n, freeze=FREEZE)
        r = upd.regime

        def q_of(**kw):
            args = dict(
                mu0=r.mu0, sigma0=r.sigma0, mu1=r.mu1, sigma1=r.sigma1, n=current_n, q=upd.q
            )
            args.update(kw)
            return oracles.estep_objective(y, weights, **args)

        best_mu0 = oracles.golden_section_max(lambda v: q_of(mu0=v), r.mu0 - 0.5, r.mu0 + 0.5)
        assert best_mu0 == pytest.approx(r.mu0, abs=1e-6)
        best_s0 = oracles.golden_section_max(
            lambda v: q_of(sigma0=v), 0.2 * r.sigma0, 5.0 * r.sigma0
        )
        assert best_s0 == pytest.approx(r.sigma0, abs=1e-6)
        best_mu1 = oracles.golden_section_max(lambda v: q_of(mu1=v), r.mu1 - 0.5, r.mu1 + 0.5)
        assert best_mu1 == pytest.approx(r.mu1, abs=1e-6)
        best_s1 = oracles.golden_section_max(
            lambda v: q_of(sigma1=v), 0.2 * r.sigma1, 5.0 * r.sigma1
        )
        assert best_s1 == pytest.approx(r.sigma1, abs=1e-6)
        for i in range(2):
            w_i1 = weights[:, i, 1].sum()
            w_i0 = weights[:, i, 0].sum()
            best_q = oracles.golden_section_max(
                lambda v: w_i1 * math.log(v) + w_i0 * math.log(1 - v), 1e-9, 1 - 1e-9
            )
            assert best_q == pytest.approx(upd.q[i, 1], abs=1e-6)


FREEZE = ModelParams(
    RegimeParams(0.001, 0.01, 0.01, 0.01, 0.5), np.array([[0.9, 0.1], [0.1, 0.9]])
)


def exact_path_bubble_fit():
    """An exact-solution path at dt=1, all weight on the bubble regime, so
    the bubble objective has an interior maximiser in n."""
    path = simulate_sa_path(1.0, 5e-4, 0.008, 0.5, dt=1.0, max_steps=800, seed=41)
    assert not path.hit_critical
    s = make_series(path.log_prices)
    weights = np.zeros((len(s) - 1, 2, 2))
    weights[:, 1, 1] = 1.0
    smth = smoother_from_weights(weights, s.timestamps)
    return s, weights, smth, m_step(smth, s, 0.5, freeze=FREEZE).regime


class TestSolveFeedbackExponent:
    def test_matches_golden_section_oracle(self):
        s, weights, smth, r = exact_path_bubble_fit()
        n_hat = solve_feedback_exponent(smth, s, r.mu1, r.sigma1, 0.5)
        want = oracles.golden_section_max(
            lambda v: oracles.bubble_block_objective(s.log_prices, weights, r.mu1, r.sigma1, v),
            1e-4, 10.0,
        )
        assert 1e-4 < want < 10.0
        assert n_hat == pytest.approx(want, abs=1e-6)

    @settings(max_examples=60, deadline=None, database=None, print_blob=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(5, 60),
        level=st.floats(0.0, 5.0),
        mu1=st.floats(1e-4, 1.0),
        sigma1=st.floats(1e-3, 1.0),
        n_current=st.floats(1e-4, 10.0),
    )
    def test_never_lowers_the_objective(self, seed, T, level, mu1, sigma1, n_current):
        rng = np.random.default_rng(seed)
        s = make_series(level + np.cumsum(rng.normal(0.0, 0.05, T + 1)))
        weights = consistent_random_weights(rng, T)
        smth = smoother_from_weights(weights, s.timestamps)
        n = solve_feedback_exponent(smth, s, mu1, sigma1, n_current)
        assert 1e-4 <= n <= 10.0
        live = weights[:, 1, 1] > 0.0
        objective = lambda v: hmm_module._bubble_block_objective(
            s.log_prices, weights[live, 1, 1], live, mu1, sigma1, v
        )
        assert objective(n) >= objective(n_current)

    def test_recovers_true_exponent(self):
        # exact-solution path sampled at dt=1 steps the p^{-n} walk directly
        path = simulate_sa_path(1.0, 5e-4, 0.008, 0.5, dt=1.0, max_steps=2000, seed=97)
        assert not path.hit_critical
        s = make_series(path.log_prices)
        T = len(s) - 1
        weights = np.zeros((T, 2, 2))
        weights[:, 1, 1] = 1.0
        smth = smoother_from_weights(weights, s.timestamps)
        n = 0.5
        for _ in range(40):
            upd = m_step(smth, s, n, freeze=FREEZE)
            n_next = solve_feedback_exponent(smth, s, upd.regime.mu1, upd.regime.sigma1, n)
            if abs(n_next - n) < 1e-10:
                n = n_next
                break
            n = n_next
        assert 0.35 <= n <= 0.65

    @settings(max_examples=60, deadline=None, database=None, print_blob=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(5, 60),
        level=st.floats(0.0, 5.0),
        mu1=st.floats(1e-4, 1.0),
        sigma1=st.floats(1e-3, 1.0),
        n_current=st.floats(1e-4, 10.0),
    )
    def test_climbs_to_a_local_maximiser(self, seed, T, level, mu1, sigma1, n_current):
        rng = np.random.default_rng(seed)
        s = make_series(level + np.cumsum(rng.normal(0.0, 0.05, T + 1)))
        weights = consistent_random_weights(rng, T)
        smth = smoother_from_weights(weights, s.timestamps)
        y, w = s.log_prices, weights[:, 1, 1]
        n = solve_feedback_exponent(smth, s, mu1, sigma1, n_current)
        live = w > 0.0
        objective = lambda v: hmm_module._bubble_block_objective(
            y, w[live], live, mu1, sigma1, v
        )
        assert objective(n) >= objective(n_current)
        # Q' is 0 to rounding, or n sits on a bound with Q' pointing out
        lo, hi = EMConfig.n_min, EMConfig.n_max
        q, slope, scale = oracles.bubble_block_slope(y, w, mu1, sigma1, n)
        on_lower = n - lo <= 4 * np.spacing(lo) and slope < 0.0
        on_upper = hi - n <= 4 * np.spacing(hi) and slope > 0.0
        assert on_lower or on_upper or abs(slope) <= 1e-12 * scale
        # a grid with one peak, counting either end as a peak when it beats
        # its neighbour: then no grid point beats n
        grid = np.linspace(lo, hi, 257)
        values = np.array([oracles.bubble_block_slope(y, w, mu1, sigma1, v)[0] for v in grid])
        padded = np.concatenate([[-np.inf], values, [-np.inf]])
        if np.count_nonzero((values > padded[:-2]) & (values >= padded[2:])) == 1:
            assert q >= values.max() - 1e-12 * abs(q)

    def test_climbs_the_peak_of_the_basin_it_starts_in(self):
        # two peaks, n ~ 0.983 and the lower n ~ 7.39: bounded Brent over the
        # whole interval returned 0.98299 from any start, but the Newton step
        # from n_current = 7.4 stays on its own peak, so no unconditional
        # bound against a grid over the interval can hold
        rng = np.random.default_rng(241951378)
        s = make_series(0.7847031855730485 + np.cumsum(rng.normal(0.0, 0.05, 14)))
        weights = consistent_random_weights(rng, 13)
        smth = smoother_from_weights(weights, s.timestamps)
        mu1, sigma1 = 0.2373738978157112, 0.0011692443712650008
        live = weights[:, 1, 1] > 0.0
        objective = lambda v: hmm_module._bubble_block_objective(
            s.log_prices, weights[live, 1, 1], live, mu1, sigma1, v
        )
        high = solve_feedback_exponent(smth, s, mu1, sigma1, 0.5)
        low = solve_feedback_exponent(smth, s, mu1, sigma1, 7.4)
        assert high == pytest.approx(0.98299, abs=1e-5)
        assert low == pytest.approx(7.3905, abs=1e-4)
        assert objective(high) > objective(low) > objective(7.4)
        valley = np.linspace(high, low, 101)[1:-1]
        assert min(objective(v) for v in valley) < objective(low)

    def test_objective_falling_over_the_interval_keeps_the_lower_bound(self):
        # n_current sits on the lower bound and every interior point scores
        # lower, so the step returns n_current itself
        s = make_series(np.cumsum(np.random.default_rng(0).normal(0.0, 0.2, 21)))
        weights = np.zeros((20, 2, 2))
        weights[:, 1, 1] = 1.0
        smth = smoother_from_weights(weights, s.timestamps)
        grid = np.linspace(1e-4, 10.0, 257)
        slopes = [oracles.bubble_block_slope(s.log_prices, weights[:, 1, 1], 0.2, 0.05, v)[1]
                  for v in grid]
        assert max(slopes) < 0.0
        assert solve_feedback_exponent(smth, s, 0.2, 0.05, 1e-4) == 1e-4

    def test_one_step_takes_at_most_10_evaluations(self, monkeypatch):
        # bounded Brent took 17.9 objective calls per step on the benchmark
        # corpus, and golden-section search 67 here
        s, _, smth, r = exact_path_bubble_fit()
        calls = []
        slopes = hmm_module._BubbleBlock.slopes
        monkeypatch.setattr(
            hmm_module._BubbleBlock, "slopes",
            lambda self, n: calls.append(n) or slopes(self, n),
        )
        solve_feedback_exponent(smth, s, r.mu1, r.sigma1, 0.5)
        assert 0 < len(calls) <= 10

    @pytest.mark.parametrize("n_current, peak", [
        (0.05, 0.01055138), (1.0, 0.01055138), (6.95, 0.01055138), (7.2, 10.0), (9.5, 10.0),
    ])
    def test_clamped_and_overflowing_exponent(self, n_current, peak):
        # log prices near -100: e^{-n y} overflows its square below n = 7
        # and is clamped at e^700 above it, inside the search interval; the
        # objective peaks at n = 0.01055138, is -inf just below 7 and rises
        # to the upper bound where the clamp binds
        rng = np.random.default_rng(5)
        s = make_series(-100.0 + np.cumsum(rng.normal(0.0, 0.02, 41)))
        weights = consistent_random_weights(rng, 40)
        smth = smoother_from_weights(weights, s.timestamps)
        assert 10.0 * np.abs(s.log_prices).max() > EXP_CLAMP
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n = solve_feedback_exponent(smth, s, 0.01, 0.05, n_current)
            live = weights[:, 1, 1] > 0.0
            objective = lambda v: hmm_module._bubble_block_objective(
                s.log_prices, weights[live, 1, 1], live, 0.01, 0.05, v
            )
            assert objective(n) >= objective(n_current)
        assert 1e-4 <= n <= 10.0
        assert n == pytest.approx(peak, rel=1e-6)

    def test_empty_bubble_block_keeps_n(self, make_series):
        s = make_series(np.linspace(0, 0.2, 11))
        weights = np.zeros((10, 2, 2))
        weights[:, 0, 0] = 1.0
        smth = smoother_from_weights(weights, s.timestamps)
        # n_current on the lower bound, inside, on the upper bound and above
        for n_current in (1e-4, 0.5, 10.0, 20.0):
            assert solve_feedback_exponent(smth, s, 0.1, 0.1, n_current) == n_current

    @pytest.mark.parametrize("search", [(1e-4, np.inf), (np.nan, 10.0), (1e-4, np.nan),
                                        (0.0, 10.0), (2.0, 1.0)])
    def test_bad_search_interval_rejected(self, search):
        s, _, smth, r = exact_path_bubble_fit()
        with pytest.raises(ValueError, match="search must be a finite increasing positive"):
            solve_feedback_exponent(smth, s, r.mu1, r.sigma1, 0.5, search=search)

    @pytest.mark.parametrize("mu1, sigma1, n_current", [(np.nan, 0.1, 0.5), (0.1, 0.0, 0.5),
                                                        (0.1, 0.1, -1.0)])
    def test_bad_bubble_parameters_rejected(self, mu1, sigma1, n_current):
        s, _, smth, _ = exact_path_bubble_fit()
        with pytest.raises(ValueError, match="must be"):
            solve_feedback_exponent(smth, s, mu1, sigma1, n_current)


def two_segment_series(seed, y0=0.0, t_gbm=1400, t_bub=600, mu0=2e-4, sigma0=0.008,
                       drift_noise_ratio=1.2, n=0.5):
    """GBM leg followed by a drift-dominant bubble leg with exponent n.

    The bubble leg's p^{-n} walk covers 65% of the distance to the
    singularity over its length, so the path stays finite by construction.
    """
    y_a = oracles.gen_gbm_log_prices(t_gbm, mu0, sigma0, seed=seed, y0=y0)
    u0 = np.exp(-n * y_a[-1])
    mu1 = u0 * 0.65 / (n * t_bub)
    sigma1 = mu1 / drift_noise_ratio
    y_b = oracles.gen_bubble_log_prices(t_bub, mu1, sigma1, n, seed=seed + 1000, y0=y_a[-1])
    return np.concatenate([y_a, y_b[1:]]), t_gbm


class TestEmFit:
    def test_gbm_data_recovery(self, make_series):
        # index-scale data: y stays above kappa so the switch channels are
        # inactive and the fit reduces to clean density-ratio filtering
        mu0, sigma0 = 5e-4, 0.01
        y = oracles.gen_gbm_log_prices(2000, mu0, sigma0, seed=2006, y0=1.0)
        s = make_series(y)
        params, trace, filt, _ = em_fit(s, EMConfig())
        se = sigma0 / math.sqrt(2000)
        assert abs(params.regime.mu0 - mu0) < 3 * se
        assert abs(params.regime.sigma0 - sigma0) / sigma0 < 0.10
        assert filt.filtering.values.mean() < 0.2
        trace.validate_monotone(1e-9)

    def test_two_segment_recovery(self, make_series):
        y, split = two_segment_series(seed=11)
        s = make_series(y)
        params, trace, filt, _ = em_fit(s, EMConfig(kappa=2.0))
        assert 0.35 <= params.regime.n <= 0.65
        assert abs(params.regime.sigma0 - 0.008) / 0.008 < 0.10
        first = filt.filtering.values[: split + 1].mean()
        second = filt.filtering.values[split + 1 :].mean()
        assert second > first
        trace.validate_monotone(1e-9)

    def test_loglik_monotone_on_short_noisy_series(self, make_series):
        rng = np.random.default_rng(404)
        for seed in range(3):
            y = np.cumsum(rng.normal(0.001, 0.02, 120))
            s = make_series(y)
            _, trace, _, _ = em_fit(s, EMConfig(kappa=2.0, max_iterations=80))
            trace.validate_monotone(1e-9)

    def test_short_series_rejected(self, make_series):
        with pytest.raises(InsufficientDataError):
            em_fit(make_series(np.linspace(0, 1, 9)), EMConfig())

    @pytest.mark.parametrize("cap", [1, 3])
    def test_stops_at_the_iteration_cap(self, monkeypatch, cap):
        # ENE in the bundled corpus, raw at kappa 2, has not converged to
        # 1e-12 after 3 iterations; the trace also counts the start
        n_steps = []
        solve = hmm_module.solve_feedback_exponent

        def counting_solve(*args, **kwargs):
            n_steps.append(args[4])
            return solve(*args, **kwargs)

        monkeypatch.setattr(hmm_module, "solve_feedback_exponent", counting_solve)
        config = PipelineConfig.from_file(bundled_corpus_config())
        spec = next(a for a in config.assets if a.asset_id == "ENE")
        em = dataclasses.replace(config.em, tol=1e-12, max_iterations=cap)
        assert (em.average_window, em.kappa) == (1, 2.0)
        trace = calibrate_asset("ENE", spec.path, config.column_map, em,
                                start=config.analysis_start, end=config.analysis_end).trace
        assert trace.iterations == cap + 1
        assert not trace.converged and not trace.stalled
        assert len(n_steps) == cap
        trace.validate_monotone(1e-9)

    @pytest.mark.skipif((USABLE_CPUS or 1) < 2, reason="needs 2 usable CPUs")
    def test_fit_does_not_depend_on_blas_threads(self):
        # OpenBLAS splits a dot product of more than 10,000 terms across its
        # threads, which changes the order of the sum
        printed = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", LONG_FIT], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            printed.append(done.stdout)
        assert printed[0] == printed[1]

    def test_stalled_fit_is_not_converged(self):
        # SEC in the bundled corpus stalls: no damped step of its second
        # update raises the likelihood
        config = PipelineConfig.from_file(bundled_corpus_config())
        spec = next(a for a in config.assets if a.asset_id == "SEC")
        trace = calibrate_asset(
            "SEC", spec.path, config.column_map, config.em,
            start=config.analysis_start, end=config.analysis_end,
        ).trace
        assert trace.stalled
        assert not trace.converged
        trace.validate_monotone(1e-9)

    def test_stalled_fit_scores_its_shorter_steps_in_one_batched_call(self, monkeypatch):
        # SEC (T = 729): the start and each full step take one hamilton_filter
        # call; the stall's eleven halved steps take one batched call, not
        # eleven single ones
        filter_calls, batches = [], []
        single, forward = hmm_module.hamilton_filter, hmm_module._forward

        def counting_filter(*args, **kwargs):
            filter_calls.append(len(batches))
            return single(*args, **kwargs)

        def counting_forward(ops, q, pi):
            batches.append(ops.shape[2:-1])
            return forward(ops, q, pi)

        monkeypatch.setattr(hmm_module, "hamilton_filter", counting_filter)
        monkeypatch.setattr(hmm_module, "_forward", counting_forward)
        config = PipelineConfig.from_file(bundled_corpus_config())
        spec = next(a for a in config.assets if a.asset_id == "SEC")
        fit = calibrate_asset(
            "SEC", spec.path, config.column_map, config.em,
            start=config.analysis_start, end=config.analysis_end,
        )
        assert len(fit.filt.filtering) == 729
        assert fit.trace.stalled and fit.trace.iterations == 2
        # the start, the accepted full step of iteration 1, the rejected one of
        # iteration 2, each an unbatched reduction of its own; then the stall
        assert filter_calls == [0, 1, 2]
        assert batches == [(), (), (), (11,)]


class TestFractions:
    def test_bubble_time_fraction_extremes(self, make_probs):
        assert bubble_time_fraction(make_probs(np.ones(5))) == 100.0
        assert bubble_time_fraction(make_probs(np.zeros(5))) == 0.0

    def test_bubble_time_fraction_empty(self, make_probs):
        with pytest.raises(InsufficientDataError):
            bubble_time_fraction(make_probs([]))

    def test_threshold_fractions(self, make_probs):
        assert threshold_fractions(make_probs([0.95] * 4)) == (100.0, 0.0)
        assert threshold_fractions(make_probs([0.5] * 4)) == (0.0, 0.0)
        assert threshold_fractions(make_probs([0.95, 0.05, 0.5, 0.95])) == (50.0, 25.0)


class TestEMConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EMConfig(tol=0.0)
        with pytest.raises(ValueError, match="^n_min/n_max must be"):
            EMConfig(n_min=1.0, n_max=0.5)
        # a fractional count must fail here, not as a TypeError inside calibrate_asset
        for setting in ("average_window", "max_iterations"):
            for value in (2.5, 4.0, 0):
                with pytest.raises(ValueError, match=f"^{setting} must be an integer"):
                    EMConfig(**{setting: value})
            assert getattr(EMConfig(**{setting: np.int64(3)}), setting) == 3

    @pytest.mark.parametrize("setting, value", [
        ("tol", np.nan), ("tol", np.inf), ("tol", -np.inf),
        ("kappa", np.nan), ("kappa", np.inf), ("kappa", -np.inf), ("kappa", 0.0),
        ("n_max", np.inf), ("n_max", np.nan), ("n_min", np.nan), ("n_min", -np.inf),
    ])
    def test_rejects_non_finite_values(self, setting, value):
        # a NaN tol can never be met, so EM would always run max_iterations
        name = "n_min/n_max" if setting in ("n_min", "n_max") else setting
        with pytest.raises(ValueError, match=f"^{name} must be .*finite"):
            EMConfig(**{setting: value})


class TestDegenerateSeries:
    def test_constant_series_fits_without_crashing(self, make_series):
        s = make_series(np.full(60, 0.2))
        params, trace, filt, _ = em_fit(s, EMConfig(max_iterations=30))
        assert np.all(np.isfinite(filt.filtering.values))
        trace.validate_monotone(1e-9)

    def test_monotone_ramp_fits(self, make_series):
        s = make_series(0.001 * np.arange(60.0))
        params, trace, filt, _ = em_fit(s, EMConfig(max_iterations=30))
        assert np.all(np.isfinite(filt.filtering.values))
        trace.validate_monotone(1e-9)


class TestEmRobustnessSweep:
    def test_varied_synthetic_series_fit_cleanly(self, make_series):
        # mixed scales, trends, and volatility regimes: the fit must stay
        # finite and monotone on all of them
        rng = np.random.default_rng(7001)
        cases = []
        for _ in range(4):
            t = int(rng.integers(60, 400))
            mu = float(rng.uniform(-1e-3, 2e-3))
            sigma = float(rng.uniform(0.003, 0.04))
            y0 = float(rng.uniform(-1.0, 5.0))
            cases.append(y0 + np.concatenate([[0.0], np.cumsum(rng.normal(mu, sigma, t))]))
        # volatility break in the middle
        half = np.concatenate([
            rng.normal(0.0, 0.004, 150), rng.normal(0.0, 0.02, 150)
        ])
        cases.append(np.concatenate([[0.0], np.cumsum(half)]))
        for kappa in (0.6, 2.0):
            for y in cases:
                s = make_series(y)
                params, trace, filt, smth = em_fit(
                    s, EMConfig(kappa=kappa, max_iterations=60)
                )
                assert np.all(np.isfinite(filt.filtering.values))
                assert np.all(np.isfinite(smth.smoothing.values))
                assert np.all(np.isfinite([
                    params.regime.mu0, params.regime.sigma0,
                    params.regime.mu1, params.regime.sigma1, params.regime.n,
                ]))
                np.testing.assert_allclose(params.q.sum(axis=1), 1.0, atol=1e-12)
                trace.validate_monotone(1e-9)
