"""Acceptance gate: every shipped guarantee, one test per criterion.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. Expected values come from independent oracles (quadrature, path
enumeration, dictionary counting, normal equations) or hand arithmetic.
"""
import functools
import math
import time

import numpy as np
import pytest
from scipy import stats

import oracles
from sinet import (
    EMConfig,
    ModelParams,
    NodeGroup,
    RegimeParams,
    SIIMatrix,
    BinnedSeries,
    build_sin,
    bubble_transition_logdensity,
    compute_indicators,
    correlations,
    em_fit,
    gbm_transition_logdensity,
    hamilton_filter,
    kim_smoother,
    m_step,
    max_loss,
    ols_regress,
    rank_transform,
    simulate_sa_path,
    solve_feedback_exponent,
    transfer_entropy,
)
from sinet.pipeline import PipelineConfig, run_pipeline
from sinet.synthetic import write_corpus
from test_hmm import (
    make_series,
    random_instance,
    smoother_from_weights,
    theta_tuple,
    two_segment_series,
)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {number:2d} [{label}]: FAIL")
                raise
            print(f"\ncriterion {number:2d} [{label}]: PASS")

        return wrapper

    return decorate


@criterion(1, "density normalization by quadrature")
def test_criterion_01_density_normalization():
    start = time.monotonic()
    checked = 0
    for mu0 in (-0.01, 0.0, 0.02):
        for sigma0 in (0.005, 0.01, 0.05, 0.2):
            y_prev = 0.25
            grid = np.linspace(y_prev - 10 * sigma0, y_prev + 10 * sigma0, 100_001)
            dens = np.exp(gbm_transition_logdensity(grid, y_prev, mu0, sigma0))
            assert abs(np.trapezoid(dens, grid) - 1.0) < 1e-5
            checked += 1
    for n in (0.25, 0.5, 1.0, 2.0):
        for mu1, sigma1 in ((0.005, 0.02), (0.01, 0.05), (0.05, 0.01)):
            for y_prev in (-0.2, 0.0, 0.3):
                u_prev = math.exp(-n * y_prev)
                sd = n * sigma1
                u_lo = max(u_prev - n * mu1 - 12 * sd, 1e-12)
                u_hi = u_prev - n * mu1 + 12 * sd
                grid = np.linspace(-math.log(u_hi) / n, -math.log(u_lo) / n, 100_001)
                dens = np.exp(bubble_transition_logdensity(grid, y_prev, mu1, sigma1, n))
                assert abs(np.trapezoid(dens, grid) - 1.0) < 1e-5
                checked += 1
    assert checked >= 20
    assert time.monotonic() - start < 10.0


@criterion(2, "bubble density reduces to GBM as n -> 0")
def test_criterion_02_gbm_limit():
    ys = np.linspace(-1.0, 1.0, 41)
    grid_t, grid_p = np.meshgrid(ys, ys)
    for mu, sigma in ((0.0, 1.0), (0.05, 0.5), (0.0, 0.2)):
        bub = bubble_transition_logdensity(grid_t, grid_p, mu, sigma, 1e-6)
        gbm = gbm_transition_logdensity(grid_t, grid_p, mu, sigma)
        assert np.max(np.abs(bub - gbm)) < 1e-4


@criterion(3, "filter/smoother match exhaustive path enumeration")
def test_criterion_03_filter_smoother_oracle():
    rng = np.random.default_rng(20_060_102)
    for _ in range(100):
        params, initial, y = random_instance(rng)
        series = make_series(y)
        filt = hamilton_filter(series, params, initial=initial)
        smth = kim_smoother(filt)
        ref_f, ref_pf, ref_s, ref_ps, ref_ll = oracles.enumerate_posteriors(
            y, params.q, initial, theta_tuple(params)
        )
        assert np.max(np.abs(filt.filtering.values - ref_f)) < 1e-10
        assert np.max(np.abs(filt.pairwise_filtered - ref_pf)) < 1e-10
        assert np.max(np.abs(smth.smoothing.values - ref_s)) < 1e-10
        assert np.max(np.abs(smth.pairwise_smoothed - ref_ps)) < 1e-10
        assert filt.loglik == pytest.approx(ref_ll, abs=1e-8)


@criterion(4, "EM monotone and updates stationary under finite differences")
def test_criterion_04_em_correctness():
    # (a) the log-likelihood trace never decreases on any test series
    test_series = []
    test_series.append(oracles.gen_gbm_log_prices(2000, 5e-4, 0.01, seed=2006, y0=1.0))
    test_series.append(two_segment_series(seed=11)[0])
    rng = np.random.default_rng(404)
    for _ in range(3):
        test_series.append(np.cumsum(rng.normal(0.001, 0.02, 150)))
    for y in test_series:
        _, trace, _, _ = em_fit(make_series(y), EMConfig(kappa=2.0, max_iterations=120))
        trace.validate_monotone(1e-9)

    # (b) closed-form updates and the feedback-exponent root are stationary
    # points of the expected complete-data objective, coordinate by coordinate
    rng = np.random.default_rng(77)
    for trial in range(5):
        path = simulate_sa_path(1.0, 5e-4, 0.008, 0.5, dt=1.0, max_steps=400,
                                seed=100 + trial)
        assert not path.hit_critical
        series = make_series(path.log_prices)
        y = series.log_prices
        T = len(y) - 1
        # posterior-like weights tilted toward the bubble cell so the
        # exponent's optimum is interior
        weights = np.empty((T, 2, 2))
        weights[0] = rng.dirichlet((1.0, 1.0, 1.0, 6.0)).reshape(2, 2)
        for k in range(1, T):
            marg = weights[k - 1].sum(axis=0)
            cond = np.stack([rng.dirichlet((1.0, 3.0)), rng.dirichlet((1.0, 6.0))])
            weights[k] = marg[:, None] * cond
        smth = smoother_from_weights(weights, series.timestamps)

        n = 0.5
        freeze = ModelParams(
            RegimeParams(1e-4, 0.01, 1e-3, 0.01, 0.5), np.array([[0.9, 0.1], [0.1, 0.9]])
        )
        for _ in range(400):
            upd = m_step(smth, series, n, freeze=freeze)
            n_next = solve_feedback_exponent(
                smth, series, upd.regime.mu1, upd.regime.sigma1, n
            )
            if abs(n_next - n) < 1e-12:
                n = n_next
                break
            n = n_next

        # polish the joint fixed point: the self-consistent residual (mu1 and
        # sigma1 re-derived at each n) crosses zero exactly at the optimum
        def residual(n_val):
            u = m_step(smth, series, n_val, freeze=freeze)
            return oracles.feedback_equation(
                y, weights[:, 1, 1], u.regime.mu1, u.regime.sigma1, n_val
            )

        lo, hi = 0.98 * n, 1.02 * n
        g_lo, g_hi = residual(lo), residual(hi)
        assert g_lo * g_hi <= 0.0, "no sign change around the fixed point"
        for _ in range(200):
            n = 0.5 * (lo + hi)
            g_mid = residual(n)
            if abs(g_mid) < 1e-9:
                break
            if g_lo * g_mid <= 0.0:
                hi = n
            else:
                lo, g_lo = n, g_mid
        upd = m_step(smth, series, n, freeze=freeze)
        r = upd.regime
        assert abs(
            oracles.feedback_equation(y, weights[:, 1, 1], r.mu1, r.sigma1, n)
        ) < 1e-8

        # finite differences per coordinate against the block of the
        # objective that actually varies with it (the other blocks are
        # additive constants whose float noise would swamp the derivative)
        coordinate_objectives = {
            "mu0": lambda v: oracles.normal_block_objective(y, weights, v, r.sigma0),
            "sigma0": lambda v: oracles.normal_block_objective(y, weights, r.mu0, v),
            "mu1": lambda v: oracles.bubble_block_objective(y, weights, v, r.sigma1, n),
            "sigma1": lambda v: oracles.bubble_block_objective(y, weights, r.mu1, v, n),
            "n": lambda v: oracles.bubble_block_objective(y, weights, r.mu1, r.sigma1, v),
        }
        for name, value in (
            ("mu0", r.mu0), ("sigma0", r.sigma0), ("mu1", r.mu1),
            ("sigma1", r.sigma1), ("n", n),
        ):
            # 4-point central stencil: the objective's third derivative in the
            # sigma coordinates is ~1/sigma^3, which a 2-point stencil cannot
            # resolve below 1e-5 at daily-return scales
            h = max(1e-5 * abs(value), 1e-7)
            fn = coordinate_objectives[name]
            deriv = (
                fn(value - 2 * h) - 8 * fn(value - h) + 8 * fn(value + h) - fn(value + 2 * h)
            ) / (12 * h)
            assert abs(deriv) < 1e-5, f"{name} not stationary: dQ={deriv}"
        for i in range(2):
            q_i1 = upd.q[i, 1]
            h = 1e-7
            w_i1 = weights[:, i, 1].sum()
            w_i0 = weights[:, i, 0].sum()
            f = lambda v: w_i1 * math.log(v) + w_i0 * math.log(1 - v)
            deriv = (f(q_i1 + h) - f(q_i1 - h)) / (2 * h)
            assert abs(deriv) < 1e-5, f"q[{i},1] not stationary: dQ={deriv}"


@criterion(5, "two-regime parameter recovery")
def test_criterion_05_parameter_recovery():
    start = time.monotonic()
    y, split = two_segment_series(seed=11)  # true n = 0.5, sigma0 = 0.008
    series = make_series(y)
    params, trace, filt, _ = em_fit(series, EMConfig(kappa=2.0))
    assert 0.35 <= params.regime.n <= 0.65
    assert abs(params.regime.sigma0 - 0.008) / 0.008 < 0.10
    gbm_mean = filt.filtering.values[: split + 1].mean()
    bubble_mean = filt.filtering.values[split + 1 :].mean()
    assert bubble_mean > gbm_mean
    trace.validate_monotone(1e-9)
    assert time.monotonic() - start < 60.0


@criterion(6, "critical times follow the inverse-Gaussian law (KS test)")
def test_criterion_06_critical_time_law():
    start = time.monotonic()
    p0, mu, sigma, n, dt = 1.0, 0.05, 0.1, 1.0, 1e-3
    times = np.empty(10_000)
    for k in range(10_000):
        path = simulate_sa_path(p0, mu, sigma, n, dt=dt, max_steps=150_000, seed=k)
        assert path.hit_critical, f"path {k} did not reach the singularity"
        times[k] = path.critical_time
    mean, shape = p0 ** (-n) / (n * mu), (p0 ** (-n) / (n * sigma)) ** 2
    # discrete-grid first passage happens at or after the continuous one;
    # with dt = 1e-3 the bias is far below the KS resolution for N = 10^4
    result = stats.kstest(times, stats.invgauss(mu=mean / shape, scale=shape).cdf)
    assert result.pvalue > 0.01, f"KS p-value {result.pvalue}"
    assert time.monotonic() - start < 60.0


@criterion(7, "transfer entropy matches the counting oracle")
def test_criterion_07_te_oracle():
    rng = np.random.default_rng(31)
    for _ in range(60):
        length = int(rng.integers(3, 51))
        bins = int(rng.integers(2, 11))
        u_raw = rng.integers(0, bins, length)
        v_raw = rng.integers(0, bins, length)
        mine = transfer_entropy(
            BinnedSeries(u_raw, bins), BinnedSeries(v_raw, bins)
        )
        ref = oracles.transfer_entropy_counting(u_raw.tolist(), v_raw.tolist())
        assert mine == pytest.approx(ref, abs=1e-12)

    u = BinnedSeries(rng.integers(0, 10, 10_000), 10)
    v = BinnedSeries(rng.integers(0, 10, 10_000), 10)
    assert transfer_entropy(u, v) < 0.02

    v_raw = rng.integers(0, 10, 10_000)
    u_raw = np.concatenate([[0], v_raw[:-1]])
    copy_te = transfer_entropy(BinnedSeries(u_raw, 10), BinnedSeries(v_raw, 10), base=10.0)
    assert 0.95 <= copy_te <= 1.0


@criterion(8, "indicator identities and hand fixtures")
def test_criterion_08_indicator_identities():
    rng = np.random.default_rng(43)
    for _ in range(20):
        k = int(rng.integers(3, 9))
        nodes = tuple(f"n{i}" for i in range(k))
        labels = rng.choice(["industrial", "financial"], size=k)
        if len(set(labels)) == 1:
            labels[0] = "financial" if labels[0] == "industrial" else "industrial"
        values = rng.uniform(0, 1, (k, k))
        np.fill_diagonal(values, 0.0)
        table = compute_indicators(SIIMatrix(nodes, values), NodeGroup(dict(zip(nodes, labels))))
        for suffix in ("All", "Fin", "IX"):
            net = table.column(f"NSII-on-{suffix}")
            gross = table.column(f"SI-to-{suffix}") - table.column(f"SI-from-{suffix}")
            assert np.array_equal(net, gross)  # exact, not approximate
        assert abs(table.column("NSII-on-All").sum()) <= 1e-12

    # 3-node hand fixture
    values = np.array([[0.0, 0.4, 0.2], [0.1, 0.0, 0.0], [0.0, 0.3, 0.0]])
    matrix = SIIMatrix(("x", "y", "z"), values)
    groups = NodeGroup({"x": "industrial", "y": "industrial", "z": "financial"})
    table = compute_indicators(matrix, groups)
    assert table.value("x", "SI-to-All") == pytest.approx(0.6)
    assert table.value("x", "SI-from-All") == pytest.approx(0.1)
    assert table.value("x", "NSII-on-All") == pytest.approx(0.5)
    assert table.value("x", "SI-to-Fin") == pytest.approx(0.2)
    assert table.value("x", "NSII-on-IX") == pytest.approx(0.3)
    graph = build_sin(matrix, groups, threshold=0.25)
    assert {(e[0], e[1]) for e in graph.edges} == {("x", "y"), ("z", "y")}


@criterion(9, "regression and correlation statistics match oracles")
def test_criterion_09_statistics_oracle():
    rng = np.random.default_rng(59)
    for _ in range(50):
        n, k = int(rng.integers(15, 40)), int(rng.integers(1, 5))
        X = rng.normal(0, 1, (n, k))
        y = rng.normal(0, 1, n) + X @ rng.normal(0, 2, k)
        mine = ols_regress(y, X)
        beta, se, r2, adj, f_stat = oracles.ols_normal_equations(y, X)
        assert np.max(np.abs(mine.coefficients - beta[1:])) < 1e-8
        assert abs(mine.intercept - beta[0]) < 1e-8
        assert np.max(np.abs(mine.std_errors - se[1:])) < 1e-8
        assert abs(mine.r_squared - r2) < 1e-8
        assert abs(mine.adj_r_squared - adj) < 1e-8
        assert abs(mine.f_statistic - f_stat) < 1e-8

    for _ in range(20):
        x = rng.integers(0, 8, 25).astype(float)
        y = rng.integers(0, 8, 25).astype(float)
        rep = correlations(x, y)
        rx, ry = rank_transform(x), rank_transform(y)
        pearson_on_ranks = float(
            ((rx - rx.mean()) @ (ry - ry.mean()))
            / np.sqrt(((rx - rx.mean()) ** 2).sum() * ((ry - ry.mean()) ** 2).sum())
        )
        assert rep.spearman == pearson_on_ranks  # exact identity

    assert max_loss([100, 80, 90, 60]) == 40.0


@criterion(10, "bundled corpus run is fast and byte-identically reproducible")
def test_criterion_10_end_to_end_determinism(tmp_path, without_stages):
    start = time.monotonic()
    corpus = tmp_path / "corpus"
    write_corpus(corpus, seed=42)
    config_a = PipelineConfig.from_file(corpus / "corpus.cfg")
    config_a.output_dir = tmp_path / "a"
    config_b = PipelineConfig.from_file(corpus / "corpus.cfg")
    config_b.output_dir = tmp_path / "b"
    report_a = run_pipeline(config_a)
    report_b = run_pipeline(config_b)
    assert report_a.processed == report_b.processed == ["ENE", "MAT", "IND", "BNK", "SEC"]
    assert not report_a.failed

    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        if name == "config_echo.cfg":  # echoes the (differing) output_dir
            continue
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        if name == "run_report.json":  # stage wall times differ from run to run
            a, b = without_stages(a), without_stages(b)
        assert a == b, f"{name} differs between identical runs"
    produced = set(names)
    assert {"sii_matrix.csv", "indicators.csv", "sin.dot", "sin.json",
            "losses.csv", "regressions.json", "run_report.txt"} <= produced
    assert any(n.startswith("probabilities_") for n in produced)
    assert time.monotonic() - start < 300.0
