import re
import warnings

import numpy as np
import pytest

import oracles
import sinet.entropy as entropy_module
from sinet import (
    BinnedSeries,
    SIIMatrix,
    discretize,
    nsii,
    sii,
    sii_matrix,
    transfer_entropy,
)


def binned(seq, bins=10):
    return BinnedSeries(np.asarray(seq, dtype=np.int64), bins)


class TestDiscretize:
    def test_left_closed_edges(self, make_probs):
        out = discretize(make_probs([0.05, 0.10]))
        np.testing.assert_array_equal(out.bins, [0, 1])

    def test_one_maps_to_last_bin(self, make_probs):
        out = discretize(make_probs([1.0, 0.999999]))
        np.testing.assert_array_equal(out.bins, [9, 9])

    def test_generic_grid(self, make_probs):
        values = np.linspace(0.0, 1.0, 101)
        out = discretize(make_probs(values))
        expected = np.minimum((values * 10).astype(int), 9)
        np.testing.assert_array_equal(out.bins, expected)

    def test_bin_count_validation(self, make_probs):
        with pytest.raises(ValueError):
            discretize(make_probs([0.5]), bin_count=1)
        # a fractional count must fail here, not as a numpy type error in the TE kernel
        assets = {name: make_probs(np.linspace(0.1, 0.9, 20)) for name in "ab"}
        # past 40 bins a block of the TE kernel would outgrow TE_BLOCK
        for bin_count in (2.5, 4.0, 41, np.int64(41)):
            message = f"bin_count must be an integer in [2, 40], got {bin_count!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                discretize(make_probs([0.5]), bin_count=bin_count)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sii_matrix(assets, bin_count)
        assert discretize(make_probs([0.5]), bin_count=np.int64(4)).bin_count == 4
        assert sii_matrix(assets, 40).values.shape == (2, 2)


class TestTransferEntropy:
    @pytest.mark.parametrize("base", [1.0, np.nan, np.inf, -np.inf])
    def test_base_must_be_finite_and_exceed_one(self, base):
        u = binned(np.arange(20) % 10)
        with pytest.raises(ValueError, match=f"base must be finite and exceed 1, got {base!r}"):
            transfer_entropy(u, u, base=base)

    def test_constant_target_is_zero(self):
        rng = np.random.default_rng(0)
        u = binned(np.zeros(50, dtype=int))
        v = binned(rng.integers(0, 10, 50))
        assert transfer_entropy(u, v) == 0.0

    def test_independent_iid_pair_is_small(self):
        rng = np.random.default_rng(42)
        u = binned(rng.integers(0, 10, 10_000))
        v = binned(rng.integers(0, 10, 10_000))
        assert transfer_entropy(u, v) < 0.02

    def test_deterministic_copy_approaches_one(self):
        rng = np.random.default_rng(7)
        v_raw = rng.integers(0, 10, 10_000)
        u_raw = np.concatenate([[0], v_raw[:-1]])  # u_t := v_{t-1}
        te = transfer_entropy(binned(u_raw), binned(v_raw), base=10.0)
        assert 0.95 <= te <= 1.0

    def test_hand_fixture_exact(self):
        # frozen from exact fraction arithmetic over the 3-bin histogram
        u = binned([0, 1, 0, 2, 1, 1, 0, 0], bins=3)
        v = binned([0, 0, 1, 2, 1, 0, 0, 2], bins=3)
        assert transfer_entropy(u, v, base=10.0) == pytest.approx(
            0.23694393509457853, abs=1e-14
        )

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            length = int(rng.integers(3, 51))
            bins = int(rng.integers(2, 11))
            u_raw = rng.integers(0, bins, length)
            v_raw = rng.integers(0, bins, length)
            mine = transfer_entropy(binned(u_raw, bins), binned(v_raw, bins))
            ref = oracles.transfer_entropy_counting(u_raw.tolist(), v_raw.tolist())
            assert mine == pytest.approx(ref, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            u = binned(rng.integers(0, 4, 30), bins=4)
            v = binned(rng.integers(0, 4, 30), bins=4)
            assert transfer_entropy(u, v) >= 0.0

    def test_invariant_under_joint_relabeling(self):
        rng = np.random.default_rng(17)
        u_raw = rng.integers(0, 6, 400)
        v_raw = rng.integers(0, 6, 400)
        perm = rng.permutation(6)
        base_value = transfer_entropy(binned(u_raw, 6), binned(v_raw, 6))
        permuted = transfer_entropy(binned(perm[u_raw], 6), binned(perm[v_raw], 6))
        assert permuted == pytest.approx(base_value, abs=1e-14)


class TestSii:
    def test_self_influence_on_markov_series_is_small(self, make_probs):
        # first-order chain on [0,1]: knowing the source's (= own) past adds
        # nothing beyond the target's own one-step history
        rng = np.random.default_rng(5)
        x = np.empty(10_000)
        x[0] = 0.5
        for t in range(1, len(x)):
            x[t] = np.clip(0.9 * x[t - 1] + 0.1 * rng.random(), 0.0, 1.0)
        probs = make_probs(x)
        assert sii(probs, probs) < 0.02

    def test_constant_target_is_zero(self, make_probs):
        rng = np.random.default_rng(6)
        x = make_probs(rng.random(100))
        y = make_probs(np.full(100, 0.4))
        assert sii(x, y) == 0.0

    def test_direction_convention(self, make_probs):
        # x drives y with one lag, so influence x->y must dominate y->x
        rng = np.random.default_rng(8)
        x_raw = rng.random(5_000)
        y_raw = np.empty(5_000)
        y_raw[0] = 0.5
        y_raw[1:] = x_raw[:-1]
        x, y = make_probs(x_raw), make_probs(y_raw)
        assert sii(x, y) > 10 * sii(y, x)


class TestNsii:
    @pytest.fixture
    def matrix(self):
        values = np.array([[0.0, 0.4, 0.2], [0.1, 0.0, 0.0], [0.0, 0.3, 0.0]])
        return SIIMatrix(("x", "y", "z"), values)

    def test_hand_values(self, matrix):
        assert nsii("x", "y", matrix) == pytest.approx(0.3)

    def test_antisymmetry(self, matrix):
        for a in ("x", "y", "z"):
            for b in ("x", "y", "z"):
                assert nsii(a, b, matrix) == -nsii(b, a, matrix)

    def test_self_is_zero(self, matrix):
        assert nsii("y", "y", matrix) == 0.0

    def test_unknown_node(self, matrix):
        with pytest.raises(KeyError):
            nsii("x", "w", matrix)


class TestContainers:
    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: BinnedSeries(np.array([0, 10]), 10), "bins must lie in [0, 9]",
                     id="bin-above"),
        pytest.param(lambda: BinnedSeries(np.array([-1, 1]), 4), "bins must lie in [0, 3]",
                     id="bin-below"),
        pytest.param(lambda: SIIMatrix(("a", "b"), np.zeros((3, 3))),
                     "values must be 2x2 to match nodes", id="matrix-shape"),
        pytest.param(lambda: SIIMatrix(("a", "b"), np.array([[0.0, np.nan], [0.1, 0.0]])),
                     "SII values must be finite", id="matrix-nan"),
        pytest.param(lambda: SIIMatrix(("a", "b"), np.array([[0.0, 0.2], [np.inf, 0.0]])),
                     "SII values must be finite", id="matrix-inf"),
        pytest.param(lambda: SIIMatrix(("a", "b"), np.array([[0.0, 0.2], [0.1, 0.3]])),
                     "diagonal must be zero", id="matrix-diagonal"),
    ])
    def test_bad_container_rejected(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


class TestSiiMatrix:
    @pytest.mark.parametrize("base", [1.0, np.nan, np.inf, -np.inf])
    def test_base_must_be_finite_and_exceed_one(self, make_probs, base):
        # a NaN or infinite base used to give an all-NaN or all-zero matrix
        assets = {name: make_probs(np.linspace(0.1, 0.9, 20)) for name in "ab"}
        with pytest.raises(ValueError, match=f"base must be finite and exceed 1, got {base!r}"):
            sii_matrix(assets, base=base)

    def test_constant_series_give_zero_matrix(self, make_probs):
        assets = {
            "a": make_probs(np.full(60, 0.3)),
            "b": make_probs(np.full(60, 0.3)),
        }
        m = sii_matrix(assets)
        np.testing.assert_array_equal(m.values, 0.0)

    def test_nan_series_never_reaches_binning(self, make_probs, monkeypatch):
        calls = []
        monkeypatch.setattr(entropy_module, "discretize", lambda *args: calls.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns when it casts NaN to int
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                sii_matrix({
                    "a": make_probs([0.1, 0.2, 0.3, 0.4, 0.5]),
                    "b": make_probs([0.1, np.nan, 0.3, 0.4, 0.5]),
                })
        assert calls == []

    def test_entries_match_standalone_sii(self, make_probs):
        rng = np.random.default_rng(23)
        assets = {name: make_probs(rng.random(300)) for name in "abc"}
        m = sii_matrix(assets)
        for src in "abc":
            for dst in "abc":
                if src != dst:
                    assert m[src, dst] == pytest.approx(
                        sii(assets[src], assets[dst]), abs=1e-14
                    )

    def test_matches_pairwise_oracle(self, make_probs):
        rng = np.random.default_rng(29)
        names = ["n1", "n2", "n3", "n4", "n5"]
        raw = {name: rng.random(400) for name in names}
        assets = {name: make_probs(vals) for name, vals in raw.items()}
        m = sii_matrix(assets)
        for src in names:
            for dst in names:
                if src == dst:
                    assert m[src, dst] == 0.0
                    continue
                u = np.minimum((raw[dst] * 10).astype(int), 9)
                v = np.minimum((raw[src] * 10).astype(int), 9)
                ref = oracles.transfer_entropy_counting(u.tolist(), v.tolist())
                assert m[src, dst] == pytest.approx(ref, abs=1e-12)

    def test_alignment_validation(self, make_probs):
        assets = {
            "a": make_probs(np.full(10, 0.5)),
            "b": make_probs(np.full(11, 0.5)),
        }
        with pytest.raises(ValueError, match="b"):
            sii_matrix(assets)

    def test_needs_two_assets(self, make_probs):
        with pytest.raises(ValueError):
            sii_matrix({"a": make_probs([0.5, 0.5, 0.5])})


class TestBubbleDayMask:
    def test_all_true_mask_equals_unmasked(self, make_probs):
        # level 0 counts without a mask, and equals counting under the
        # all-true mask bit for bit
        rng = np.random.default_rng(61)
        x = make_probs(rng.random(200))
        y = make_probs(rng.random(200))
        masked = transfer_entropy(discretize(y), discretize(x), mask=np.ones(199, dtype=bool))
        assert sii(x, y, bubble_level=0.0) == masked
        assert sii(x, y) == masked

    @pytest.mark.parametrize("level", [np.nan, -0.1, 1.5, np.inf])
    def test_level_outside_unit_interval_rejected(self, make_probs, level):
        x = make_probs(np.linspace(0.0, 1.0, 20))
        message = f"bubble_level must lie in [0, 1], got {level!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sii(x, x, bubble_level=level)

    def test_level_is_keyword_only(self, make_probs):
        # a stale positional call must raise, not bind a flag to the level
        x = make_probs(np.linspace(0.0, 1.0, 20))
        with pytest.raises(TypeError):
            sii(x, x, 10, 10.0, True)
        with pytest.raises(TypeError):
            sii_matrix({"a": x, "b": x}, 10, 10.0, "", True)

    def test_masked_matches_subsampled_oracle(self, make_probs):
        rng = np.random.default_rng(67)
        x_raw, y_raw = rng.random(300), rng.random(300)
        x, y = make_probs(x_raw), make_probs(y_raw)
        level = 0.3
        mine = sii(x, y, bubble_level=level)

        # independent subsampled counting: keep triples where both assets
        # qualify on both involved days
        from collections import Counter
        import math
        u = np.minimum((y_raw * 10).astype(int), 9)  # target = y
        v = np.minimum((x_raw * 10).astype(int), 9)  # source = x
        both = np.minimum(x_raw, y_raw) >= level
        triples = Counter(); tp = Counter(); lp = Counter(); sg = Counter()
        total = 0
        for t in range(1, 300):
            if both[t] and both[t - 1]:
                triples[(u[t], u[t - 1], v[t - 1])] += 1
                tp[(u[t], u[t - 1])] += 1
                lp[(u[t - 1], v[t - 1])] += 1
                sg[u[t - 1]] += 1
                total += 1
        te = 0.0
        for (a, b, c), k in triples.items():
            ratio = (k * sg[b]) / (tp[(a, b)] * lp[(b, c)])
            te += (k / total) * math.log(ratio, 10)
        assert mine == pytest.approx(max(te, 0.0), abs=1e-12)

    def test_overtight_mask_rejected(self, make_probs):
        x = make_probs([0.1, 0.1, 0.1, 0.1])
        y = make_probs([0.1, 0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="fewer than 2"):
            sii(x, y, bubble_level=0.9)


class TestKernelDiagonal:
    """A series counted against itself gives exactly 0.0: H(v_prev | u_prev)
    and H(v_prev | u_t, u_prev) cancel term by term when v is u, with or
    without a bubble-day mask."""

    @pytest.mark.parametrize("seed, length, bins", [(3, 40, 2), (5, 300, 10), (7, 1000, 4)])
    def test_unmasked(self, make_probs, seed, length, bins):
        rng = np.random.default_rng(seed)
        rows = np.array([discretize(make_probs(rng.random(length) ** k), bins).bins
                         for k in (1, 2, 3, 5)])
        values, sizes = entropy_module._te_kernel(rows, bins, 10.0)
        assert (np.diag(values) == 0.0).all()
        assert (np.diag(sizes) == length - 1).all()

    @pytest.mark.parametrize("level", [0.0, 0.3, 0.5, 0.8])
    def test_bubble_only_masks(self, make_probs, level):
        rng = np.random.default_rng(11)
        series = [make_probs(rng.random(500) ** k) for k in (0.5, 1, 2, 3)]
        rows = np.array([discretize(s, 10).bins for s in series])
        days = np.stack([entropy_module._bubble_days(s, level) for s in series])
        values, sizes = entropy_module._te_kernel(rows, 10, 10.0, days)
        assert (np.diag(values) == 0.0).all()
        assert (np.diag(sizes) == days.sum(axis=1)).all()
