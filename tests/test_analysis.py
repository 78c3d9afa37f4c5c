import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special, stats

import oracles
from sinet import (
    CollinearityError,
    ConvergenceError,
    CorrelationReport,
    InsufficientDataError,
    UndefinedCorrelationError,
    correlations,
    max_loss,
    ols_regress,
    rank_transform,
)
from sinet import analysis as analysis_module


class TestMaxLoss:
    def test_hand_example(self):
        assert max_loss([100, 80, 90, 60]) == pytest.approx(40.0)

    def test_strictly_increasing_is_zero(self):
        assert max_loss([1.0, 1.5, 2.0, 8.0]) == 0.0

    def test_peak_after_trough_ignored(self):
        # decline must come after the peak: trough at 50 before the 120 peak
        # does not pair with it
        assert max_loss([100, 50, 120, 90]) == pytest.approx(100 * 50 / 120)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        values = np.exp(rng.normal(0, 0.3, 200)).cumsum() + 1.0
        base = max_loss(values)
        for scale in (0.01, 3.0, 1e6):
            assert max_loss(values * scale) == pytest.approx(base, rel=1e-12)

    def test_matches_pairwise_bruteforce(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.uniform(1.0, 10.0, 40)
            brute = max(
                (v[i] - v[j] for i in range(len(v)) for j in range(i + 1, len(v))),
                default=0.0,
            )
            expected = 100.0 * max(brute, 0.0) / v.max()
            assert max_loss(v) == pytest.approx(expected, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InsufficientDataError):
            max_loss([1.0])
        with pytest.raises(ValueError):
            max_loss([1.0, -2.0, 3.0])


class TestRankTransform:
    def test_plain_permutation(self):
        np.testing.assert_array_equal(rank_transform([3, 1, 2]), [3, 1, 2])

    def test_average_ties(self):
        np.testing.assert_array_equal(rank_transform([5, 5, 1]), [2.5, 2.5, 1])

    def test_single_element(self):
        np.testing.assert_array_equal(rank_transform([7.0]), [1.0])

    def test_rank_sum_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            values = rng.integers(0, 10, n).astype(float)
            assert rank_transform(values).sum() == pytest.approx(n * (n + 1) / 2)

    def test_matches_tie_loop_bitwise(self):
        rng = np.random.default_rng(5)
        levels = [0.0, -0.0, 1.0, 2.5]
        for _ in range(300):
            values = rng.choice(levels, int(rng.integers(1, 30)))
            assert rank_transform(values).tobytes() == oracles.average_tie_ranks(values).tobytes()

    def test_matches_scipy_convention(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 6, 50).astype(float)
        np.testing.assert_allclose(rank_transform(values), stats.rankdata(values))

    @pytest.mark.parametrize("values", [[], [[1.0, 2.0]]], ids=["empty", "2-d"])
    def test_bad_input_rejected(self, values):
        with pytest.raises(ValueError, match="^rank_transform needs a non-empty 1-d vector$"):
            rank_transform(values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_named(self, bad):
        with pytest.raises(ValueError, match="^values holds a non-finite value$"):
            rank_transform([bad, 1.0, bad])


class TestOlsRegress:
    def test_exact_linear_fit(self):
        x = np.arange(10.0)
        y = 2.0 * x + 1.0
        res = ols_regress(y, x)
        assert res.coefficients[0] == pytest.approx(2.0)
        assert res.intercept == pytest.approx(1.0)
        assert res.r_squared == pytest.approx(1.0)

    def test_orthogonal_regressor_gives_zero(self):
        x = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
        y = np.array([1.0, 1.0, -2.0, -2.0, 1.0, 1.0])
        y = y - y.mean()
        assert abs(x @ y) < 1e-12
        res = ols_regress(y, x)
        assert res.coefficients[0] == pytest.approx(0.0, abs=1e-12)
        assert res.r_squared == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, k = 20, 3
            X = rng.normal(0, 1, (n, k))
            y = rng.normal(0, 1, n) + X @ rng.normal(0, 2, k)
            mine = ols_regress(y, X)
            beta, se, r2, adj, f_stat = oracles.ols_normal_equations(y, X)
            np.testing.assert_allclose(mine.coefficients, beta[1:], atol=1e-8)
            assert mine.intercept == pytest.approx(beta[0], abs=1e-8)
            np.testing.assert_allclose(mine.std_errors, se[1:], atol=1e-8)
            assert mine.r_squared == pytest.approx(r2, abs=1e-8)
            assert mine.adj_r_squared == pytest.approx(adj, abs=1e-8)
            assert mine.f_statistic == pytest.approx(f_stat, abs=1e-8)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (30, 2))
        y = rng.normal(0, 1, 30)
        res = ols_regress(y, X)
        fitted = res.intercept + X @ res.coefficients
        resid = y - fitted
        assert abs(resid.sum()) < 1e-8
        for col in X.T:
            assert abs(resid @ col) < 1e-8

    def test_significance_markers(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, 200)
        strong = 5.0 * x + rng.normal(0, 0.5, 200)
        res = ols_regress(strong, x)
        assert res.markers[0] == "***"
        noise = rng.normal(0, 1.0, 200)
        res2 = ols_regress(noise, x)
        assert res2.p_values[0] > 0.01

    def test_collinear_column_named(self):
        rng = np.random.default_rng(8)
        x0 = rng.normal(0, 1, 25)
        X = np.column_stack([x0, 2.0 * x0])
        with pytest.raises(CollinearityError) as err:
            ols_regress(rng.normal(0, 1, 25), X)
        assert err.value.column in (0, 1)

    @pytest.mark.parametrize("make, column", [
        (lambda a, b: [a, 3.0 * a, b], 1),
        (lambda a, b: [a, 10.0 * b, 5.0 * a], 2),
        (lambda a, b: [a, b, a + b], 2),
    ], ids=["[a,3a,b]", "[a,10b,5a]", "[a,b,a+b]"])
    def test_first_dependent_column_named(self, make, column):
        # the named column lies in the span of the columns before it, and
        # no earlier column does
        rng = np.random.default_rng(14)
        a, b = rng.normal(0, 1, (2, 25))
        with pytest.raises(CollinearityError) as err:
            ols_regress(rng.normal(0, 1, 25), np.column_stack(make(a, b)))
        assert err.value.column == column

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            ols_regress(np.ones(4), np.ones((4, 3)))

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^y and X must have the same number of rows$"):
            ols_regress(np.ones(5), np.ones((6, 1)))

    @pytest.mark.parametrize("field, value, message", [
        ("r_squared", 1.5, "R^2 must lie in [0, 1]"),
        ("r_squared", -0.1, "R^2 must lie in [0, 1]"),
        ("adj_r_squared", 0.9, "adjusted R^2 cannot exceed R^2"),
        ("f_statistic", -1.0, "F statistic must be nonnegative"),
    ])
    def test_bad_fit_statistic_rejected(self, field, value, message):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, 12)
        result = ols_regress(0.1 * x + rng.normal(0, 1, 12), x)
        assert result.r_squared < 0.8
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(result, **{field: value})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["y", "X"])
    def test_non_finite_input_named(self, name, bad):
        rng = np.random.default_rng(9)
        args = {"y": rng.normal(0, 1, 10), "X": rng.normal(0, 1, (10, 2))}
        args[name].flat[3] = bad
        with pytest.raises(ValueError, match=f"^{name} holds a non-finite value$"):
            ols_regress(args["y"], args["X"])


class TestCorrelations:
    def test_identical_vectors(self):
        v = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        rep = correlations(v, v)
        assert rep.pearson == pytest.approx(1.0)
        assert rep.spearman == pytest.approx(1.0)
        assert rep.kendall == pytest.approx(1.0)

    def test_reversed_order(self):
        x = np.array([1.0, 2.0, 3.0, 5.0, 8.0])
        rep = correlations(x, -(x**3))
        assert rep.pearson <= 0.0
        assert rep.spearman == pytest.approx(-1.0)
        assert rep.kendall == pytest.approx(-1.0)

    def test_spearman_is_pearson_on_ranks(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.integers(0, 8, 30).astype(float)
            y = rng.integers(0, 8, 30).astype(float)
            rep = correlations(x, y)
            rx, ry = rank_transform(x), rank_transform(y)
            expected = ((rx - rx.mean()) @ (ry - ry.mean())) / np.sqrt(
                ((rx - rx.mean()) ** 2).sum() * ((ry - ry.mean()) ** 2).sum()
            )
            assert rep.spearman == expected

    def test_matches_scipy_tau_b(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = rng.integers(0, 5, 25).astype(float)
            y = rng.integers(0, 5, 25).astype(float)
            rep = correlations(x, y)
            ref = stats.kendalltau(x, y, variant="b").statistic
            assert rep.kendall == pytest.approx(ref, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedCorrelationError) as err:
            correlations(np.ones(5), np.arange(5.0))
        assert err.value.statistic == "pearson"

    def test_length_validation(self):
        with pytest.raises(InsufficientDataError):
            correlations([1.0], [2.0])

    @pytest.mark.parametrize("x, y", [
        ([1.0, 2.0, 3.0], [1.0, 2.0]),
        ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [4.0, 3.0]]),
    ], ids=["unequal-length", "2-d"])
    def test_shape_validation(self, x, y):
        with pytest.raises(ValueError, match="^x and y must be 1-d vectors of equal length$"):
            correlations(x, y)

    def test_coefficient_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match=r"^pearson coefficient nan outside \[-1, 1\]$"):
            CorrelationReport(np.nan, 0.5, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["x", "y"])
    def test_non_finite_input_named(self, name, bad):
        args = {"x": np.array([1.0, 2.0, 3.0]), "y": np.array([1.0, 3.0, 2.0])}
        args[name][1] = bad
        with pytest.raises(ValueError, match=f"^{name} holds a non-finite value$"):
            correlations(args["x"], args["y"])


def t_p_reference(t, dof):
    """Two-sided Student t p-values to check ``ols_regress`` against.

    At dof = 1 the closed form (2/pi) atan(1/|t|): scipy's ``stdtr`` misses
    the exact value by up to 1e-9 there at |t| < 3e-5. Otherwise
    ``2 * scipy.special.stdtr(dof, -|t|)``, which is what
    ``2 * stats.t.sf(|t|, dof)`` evaluates.
    """
    t = np.abs(np.asarray(t, dtype=float))
    if dof == 1:
        return (2.0 / np.pi) * np.arctan2(1.0, t)
    return 2.0 * special.stdtr(dof, -t)


def assert_p_values_match(p, t, dof):
    """Each p-value is within 1e-12 relative of its reference (1e-14 at the
    closed form) where that is at least 1e-300; below, both are."""
    p, want = np.asarray(p, dtype=float), t_p_reference(t, dof)
    rel = 1e-14 if dof == 1 else 1e-12
    tail = want < 1e-300
    np.testing.assert_allclose(p[~tail], want[~tail], rtol=rel, atol=0.0)
    assert (p[tail] < 1e-300).all(), (p[tail], want[tail])


@st.composite
def regressions(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 2, 61))  # dof = n - k - 1, from 1 to 60 - k
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(0, 1, (n, k))
    y = X @ rng.normal(0, draw(st.sampled_from([0.0, 0.1, 1.0, 100.0])), k)
    y = y + draw(st.sampled_from([0.0, 1e-12, 1e-3, 1.0])) * rng.normal(0, 1, n)
    return y, X


class TestOlsPValues:
    def test_zero_t_gives_one(self):
        res = ols_regress(np.zeros(5), np.arange(5.0))
        assert res.t_values[0] == 0.0 and res.p_values[0] == 1.0
        assert_p_values_match(res.p_values, res.t_values, 3)

    def test_one_degree_of_freedom(self):
        res = ols_regress(np.array([1.0, 3.1, 4.9]), np.array([0.0, 1.0, 2.0]))
        assert 0.0 < res.p_values[0] < 0.05
        assert_p_values_match(res.p_values, res.t_values, 1)

    def test_huge_t(self):
        x = np.arange(10.0)
        res = ols_regress(2.0 * x + 1.0, x)  # residuals at rounding level
        assert res.t_values[0] > 1e12
        assert 0.0 < res.p_values[0] < 1e-100
        assert_p_values_match(res.p_values, res.t_values, 8)
        rng = np.random.default_rng(0)
        x = rng.normal(size=30)
        res = ols_regress(3.0 * x + 1e-13 * rng.normal(size=30), x)
        assert res.t_values[0] > 1e13 and res.p_values[0] == 0.0
        assert_p_values_match(res.p_values, res.t_values, 28)

    def test_fixed_designs(self):
        rng = np.random.default_rng(13)
        for n, k in [(6, 1), (6, 3), (20, 3), (200, 1)]:  # dof 4, 2, 16, 198
            X = rng.normal(0, 1, (n, k))
            y = X @ rng.normal(0, 0.5, k) + rng.normal(0, 1, n)
            res = ols_regress(y, X)
            assert_p_values_match(res.p_values, res.t_values, n - k - 1)

    @settings(max_examples=200, deadline=None, database=None, print_blob=True)
    @given(regressions())
    def test_matches_t_sf(self, case):
        y, X = case
        res = ols_regress(y, X)
        assert_p_values_match(res.p_values, res.t_values, len(y) - X.shape[1] - 1)

    @settings(max_examples=500, deadline=None, database=None, print_blob=True)
    @given(st.integers(2, 200), st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False)))
    @example(100, 3e-162)  # t^2 is subnormal and t^2/(dof + t^2) underflows to 0
    @example(2, -5e-324)
    def test_matches_stdtr(self, dof, t):
        assert_p_values_match([analysis_module._t_two_sided_p(t, dof)], [t], dof)

    @pytest.mark.parametrize("dof, closed_form", [
        (1, lambda t: (2.0 / np.pi) * np.arctan(1.0 / t)),
        (2, lambda t: 2.0 / (np.sqrt(2.0 + t * t) * (np.sqrt(2.0 + t * t) + t))),
    ])
    def test_closed_forms(self, dof, closed_form):
        # independent of scipy, whose stdtr misses by up to 1e-9 at dof = 1
        t = np.geomspace(1e-8, 1e8, 1601)
        for sign in (1.0, -1.0):
            got = [analysis_module._t_two_sided_p(sign * v, dof) for v in t]
            np.testing.assert_allclose(got, closed_form(t), rtol=1e-14, atol=0.0)

    def test_series_prefactor_at_large_dof(self):
        # math.gamma overflows above dof = 341, and a series takes over
        t = np.array([0.3, 1.0, 1.7, 2.5, 4.0, 10.0, 30.0])
        for dof in (341, 342, 500, 1000, 5000):
            p = [analysis_module._t_two_sided_p(v, dof) for v in t]
            assert_p_values_match(p, t, dof)

    def test_unconverged_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(analysis_module, "_BETA_FRACTION_MAX_TERMS", 1)
        with pytest.raises(ConvergenceError, match="^incomplete beta fraction: no convergence"):
            analysis_module._t_two_sided_p(1.5, 20)
