import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from sinet import (
    RegimeParams,
    SingularityError,
    bubble_transition_logdensity,
    deterministic_fts_price,
    gbm_transition_logdensity,
    ig_params,
    simulate_sa_path,
    switch_logdensity,
)
from sinet.bubble import critical_time, emission_logdensities

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class TestGbmDensity:
    def test_standard_normal_at_mode(self):
        assert gbm_transition_logdensity(0.0, 0.0, 0.0, 1.0) == pytest.approx(-HALF_LOG_2PI)

    def test_maximised_at_mean(self):
        for mu0 in (-0.3, 0.0, 0.7):
            val = gbm_transition_logdensity(1.0 + mu0, 1.0, mu0, 1.0)
            assert val == pytest.approx(-HALF_LOG_2PI)

    def test_quadrature_normalisation(self):
        for mu0, sigma0 in [(0.0, 1.0), (0.05, 0.01), (-0.2, 0.5)]:
            y_prev = 0.3
            grid = np.linspace(y_prev - 10 * sigma0, y_prev + 10 * sigma0, 100_001)
            dens = np.exp(gbm_transition_logdensity(grid, y_prev, mu0, sigma0))
            assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gbm_transition_logdensity(np.nan, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gbm_transition_logdensity(0.0, np.inf, 0.0, 1.0)
        with pytest.raises(ValueError):
            gbm_transition_logdensity(0.0, 0.0, 0.0, 0.0)


class TestBubbleDensity:
    def test_unit_point_value(self):
        # all exponentials are 1, the quadratic term vanishes, ln n = n*y = 0
        assert bubble_transition_logdensity(0.0, 0.0, 0.0, 1.0, 1.0) == pytest.approx(
            -HALF_LOG_2PI
        )

    def test_gbm_limit_small_n(self):
        ys = np.linspace(-1.0, 1.0, 21)
        grid_t, grid_p = np.meshgrid(ys, ys)
        for n, tol in [(1e-4, 1e-3), (1e-6, 1e-4)]:
            bub = bubble_transition_logdensity(grid_t, grid_p, 0.05, 1.0, n)
            gbm = gbm_transition_logdensity(grid_t, grid_p, 0.05, 1.0)
            assert np.max(np.abs(bub - gbm)) < tol

    def test_quadrature_normalisation(self):
        # change-of-variables density: integrate over y_t by mapping a wide
        # u = e^{-n y} interval back to y
        cases = [
            (0.01, 0.05, 0.5, 0.0),
            (0.005, 0.02, 1.0, 0.1),
            (0.02, 0.01, 2.0, -0.2),
        ]
        for mu1, sigma1, n, y_prev in cases:
            u_prev = math.exp(-n * y_prev)
            sd = n * sigma1
            u_lo = max(u_prev - n * mu1 - 12 * sd, 1e-12)
            u_hi = u_prev - n * mu1 + 12 * sd
            grid = np.linspace(-math.log(u_hi) / n, -math.log(u_lo) / n, 100_001)
            dens = np.exp(bubble_transition_logdensity(grid, y_prev, mu1, sigma1, n))
            assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-5)

    @settings(max_examples=200, deadline=None, database=None, print_blob=True)
    @given(st.floats(-8.0, 0.0), st.floats(-1.0, 1.0), st.floats(0.005, 0.02),
           st.floats(-2.0, 2.0))
    @example(-8.0, 0.5, 0.01, 0.0)
    def test_matches_decimal_reference_at_any_n(self, log10_n, y_prev, dy, k):
        # a step of u = e^{-n y} is about n dy: a difference of exponentials
        # keeps about 16 + log10(n dy) of its digits, the density all of them
        n, sigma1 = 10.0**log10_n, 1e-3
        mu1 = dy * math.exp(-n * y_prev) + k * sigma1  # z^2 < 4: the density is above 1
        y_t = y_prev + dy
        want = oracles.bubble_logdensity_decimal(y_t, y_prev, mu1, sigma1, n)
        got = bubble_transition_logdensity(y_t, y_prev, mu1, sigma1, n)
        assert got == pytest.approx(want, rel=1e-12)

    def test_extreme_arguments_saturate_to_neg_inf(self):
        val = bubble_transition_logdensity(-2000.0, 0.0, 0.01, 0.05, 1.0)
        assert val == -np.inf
        assert not math.isnan(val)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            bubble_transition_logdensity(0.0, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            bubble_transition_logdensity(0.0, 0.0, 0.0, -1.0, 1.0)


class TestSwitchDensity:
    @pytest.fixture
    def params(self):
        return RegimeParams(mu0=0.5, sigma0=0.1, mu1=0.25, sigma1=0.1, n=1.0, kappa=1.0)

    def test_bubble_end_height(self, params):
        assert switch_logdensity(0.01, 0.02, "bubble_end", params) == pytest.approx(
            math.log(2.0)
        )

    def test_bubble_end_indicator_off(self, params):
        assert switch_logdensity(0.03, 0.02, "bubble_end", params) == -np.inf
        assert switch_logdensity(-1.5, 0.02, "bubble_end", params) == -np.inf

    def test_bubble_start_height(self, params):
        assert switch_logdensity(0.03, 0.02, "bubble_start", params) == pytest.approx(
            math.log(4.0)
        )
        assert switch_logdensity(1.2, 0.02, "bubble_start", params) == -np.inf

    def test_zero_drift_rejected(self):
        p = RegimeParams(mu0=0.0, sigma0=0.1, mu1=0.25, sigma1=0.1, n=1.0, kappa=1.0)
        with pytest.raises(ValueError):
            switch_logdensity(0.01, 0.02, "bubble_end", p)

    def test_unknown_direction(self, params):
        with pytest.raises(ValueError):
            switch_logdensity(0.0, 0.0, "sideways", params)


@st.composite
def paths_with_band_edges(draw):
    """Regime parameters and a log-price path whose steps are random moves,
    flat steps (y_t == y_prev) or landings on +kappa or -kappa."""
    regime = RegimeParams(
        mu0=draw(st.floats(-0.05, 0.05).filter(lambda v: v != 0.0)),
        sigma0=draw(st.floats(1e-3, 0.5)),
        mu1=draw(st.floats(-0.5, 0.5).filter(lambda v: v != 0.0)),
        sigma1=draw(st.floats(1e-3, 0.5)),
        n=draw(st.floats(0.05, 3.0)),
        kappa=draw(st.floats(0.05, 3.0)),
    )
    y = [draw(st.floats(-3.0, 3.0))]
    for step in draw(st.lists(st.one_of(st.floats(-0.5, 0.5), st.sampled_from("=+-")),
                              min_size=1, max_size=30)):
        edges = {"=": y[-1], "+": regime.kappa, "-": -regime.kappa}
        y.append(edges[step] if isinstance(step, str) else y[-1] + step)
    return regime, np.array(y)


class TestEmissionLogdensities:
    @settings(max_examples=200, deadline=None, database=None, print_blob=True)
    @given(paths_with_band_edges())
    # a drift whose log np.log and math.log round apart in the last bit
    @example((RegimeParams(mu0=0.01, sigma0=0.1, mu1=0.4273273482862179, sigma1=0.1,
                           n=1.0, kappa=1.0), np.array([0.0, 0.1, 0.05])))
    def test_cells_match_public_densities(self, instance):
        r, y = instance
        table = emission_logdensities(y, r)
        assert table.shape == (2, 2, len(y) - 1)
        for t in range(len(y) - 1):
            y_t, y_prev = float(y[t + 1]), float(y[t])
            want = {
                (0, 0): gbm_transition_logdensity(y_t, y_prev, r.mu0, r.sigma0),
                (1, 1): bubble_transition_logdensity(y_t, y_prev, r.mu1, r.sigma1, r.n),
                (1, 0): switch_logdensity(y_t, y_prev, "bubble_end", r),
                (0, 1): switch_logdensity(y_t, y_prev, "bubble_start", r),
            }
            for (i, j), value in want.items():
                assert math.isclose(table[i, j, t], value, rel_tol=1e-12), (i, j, t)
            # off its band a switch cell is exactly -inf, on it the flat height
            on_end = -r.kappa <= y_t < y_prev
            on_start = y_prev <= y_t <= r.kappa
            assert (table[1, 0, t] == -np.inf) == (not on_end)
            assert (table[0, 1, t] == -np.inf) == (not on_start)
            if on_end:
                assert table[1, 0, t] == float(-np.log(abs(r.mu0)))
            if on_start:
                assert table[0, 1, t] == float(-np.log(abs(r.mu1)))

    def test_switch_densities_need_nonzero_drifts(self):
        r = RegimeParams(mu0=0.0, sigma0=0.1, mu1=0.25, sigma1=0.1, n=1.0, kappa=1.0)
        with pytest.raises(ValueError, match="mu0 must be nonzero"):
            emission_logdensities(np.array([0.0, 0.1]), r)

    def test_rejects_non_finite_path(self):
        r = RegimeParams(mu0=0.1, sigma0=0.1, mu1=0.25, sigma1=0.1, n=1.0, kappa=1.0)
        with pytest.raises(ValueError, match="must be finite"):
            emission_logdensities(np.array([0.0, np.nan, 0.1]), r)


class TestDeterministicPrice:
    def test_unit_case(self):
        assert deterministic_fts_price(0.5, 1.0, 1.0, 1.0) == pytest.approx(2.0)

    def test_square_case(self):
        assert deterministic_fts_price(0.5, 1.0, 2.0, 0.5) == pytest.approx(4.0)

    def test_initial_condition(self):
        for p0, mu, n in [(1.0, 1.0, 1.0), (2.5, 0.3, 0.7), (0.8, 2.0, 1.5)]:
            assert deterministic_fts_price(0.0, p0, mu, n) == pytest.approx(p0)

    def test_strictly_increasing_and_divergent(self):
        ts = np.linspace(0.0, 1.0 - 1e-9, 2_000)
        prices = deterministic_fts_price(ts, 1.0, 1.0, 1.0)
        assert np.all(np.diff(prices) > 0)
        assert prices[-1] > 1e8

    def test_singularity_carries_critical_time(self):
        with pytest.raises(SingularityError) as err:
            deterministic_fts_price(1.0, 1.0, 1.0, 1.0)
        assert err.value.t_c == pytest.approx(1.0)


def assert_rejected(fn, kwargs, name, value, message):
    """``fn`` with argument ``name`` set to ``value`` raises ``message``."""
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(**kwargs)


class TestCriticalTime:
    # NaN fails every comparison, so each check must be one that NaN fails
    @pytest.mark.parametrize("name", ["p0", "mu", "n"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    def test_bad_argument_is_named(self, name, value):
        assert_rejected(critical_time, {"p0": 1.0, "mu": 1.0, "n": 1.0}, name, value,
                        f"{name} must be finite and positive, got {value!r}")


class TestIgParams:
    @pytest.mark.parametrize(
        "args, expected",
        [
            ((1.0, 1.0, 1.0, 1.0), (1.0, 1.0)),
            ((1.0, 0.5, 1.0, 1.0), (2.0, 1.0)),
            ((2.0, 1.0, 1.0, 1.0), (0.5, 0.25)),
        ],
    )
    def test_direct_substitution(self, args, expected):
        assert ig_params(*args) == pytest.approx(expected)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ig_params(1.0, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("name", ["p0", "mu", "sigma", "n"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_argument_is_named(self, name, value):
        assert_rejected(ig_params, {"p0": 1.0, "mu": 1.0, "sigma": 0.1, "n": 1.0}, name, value,
                        f"{name} must be finite and positive, got {value!r}")


class TestSimulatePath:
    def test_zero_noise_reduces_to_deterministic(self):
        dt = 0.01
        path = simulate_sa_path(1.0, 1.0, 0.0, 1.0, dt=dt, max_steps=500, seed=3)
        assert path.hit_critical
        ts = dt * np.arange(path.critical_time_index)
        expected = deterministic_fts_price(ts, 1.0, 1.0, 1.0)
        np.testing.assert_allclose(np.exp(path.log_prices[: len(ts)]), expected, rtol=1e-10)

    def test_zero_feedback_is_geometric_walk(self):
        dt, mu, sigma = 0.01, 0.1, 0.2
        path = simulate_sa_path(1.0, mu, sigma, 0.0, dt=dt, max_steps=300, seed=11)
        rng = np.random.default_rng(11)
        w = np.concatenate([[0.0], np.cumsum(rng.standard_normal(300) * math.sqrt(dt))])
        t = dt * np.arange(301)
        np.testing.assert_allclose(path.log_prices, mu * t + sigma * w, rtol=1e-12)
        assert not path.hit_critical

    def test_seed_determinism(self):
        a = simulate_sa_path(1.0, 0.05, 0.1, 1.0, dt=1e-3, max_steps=50_000, seed=42)
        b = simulate_sa_path(1.0, 0.05, 0.1, 1.0, dt=1e-3, max_steps=50_000, seed=42)
        np.testing.assert_array_equal(a.log_prices, b.log_prices)
        assert a.critical_time_index == b.critical_time_index

    def test_prices_finite_and_positive_before_termination(self):
        for seed in range(5):
            path = simulate_sa_path(1.0, 0.2, 0.3, 1.0, dt=1e-3, max_steps=100_000, seed=seed)
            assert path.hit_critical
            assert path.critical_time_index < len(path)
            assert np.all(np.isfinite(path.log_prices))
            assert path.critical_time is not None and path.critical_time >= 0

    def test_hit_probability_approaches_one(self):
        hits = sum(
            simulate_sa_path(1.0, 0.1, 0.2, 1.0, dt=1e-2, max_steps=40_000, seed=s).hit_critical
            for s in range(60)
        )
        assert hits == 60

    @pytest.mark.parametrize("name, value, message", [
        ("p0", np.nan, "p0 must be finite and positive, got nan"),
        ("p0", np.inf, "p0 must be finite and positive, got inf"),
        ("dt", np.nan, "dt must be finite and positive, got nan"),
        ("sigma", np.nan, "sigma must be finite and nonnegative, got nan"),
        ("sigma", np.inf, "sigma must be finite and nonnegative, got inf"),
        ("n", np.nan, "n must be finite and nonnegative, got nan"),
        ("n", np.inf, "n must be finite and nonnegative, got inf"),
        ("mu", np.nan, "mu must be finite"),
        ("mu", np.inf, "mu must be finite"),
        ("mu", -np.inf, "mu must be finite"),
    ])
    def test_bad_argument_is_named(self, name, value, message):
        kwargs = {"p0": 1.0, "mu": 0.05, "sigma": 0.1, "n": 1.0, "dt": 0.01,
                  "max_steps": 10, "seed": 0}
        assert_rejected(simulate_sa_path, kwargs, name, value, message)

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            simulate_sa_path(0.0, 1.0, 0.1, 1.0, dt=0.01, max_steps=10, seed=0)
        with pytest.raises(ValueError):
            simulate_sa_path(1.0, 1.0, 0.1, 1.0, dt=0.0, max_steps=10, seed=0)
        with pytest.raises(ValueError):
            simulate_sa_path(1.0, 1.0, 0.1, 1.0, dt=0.01, max_steps=0, seed=0)
