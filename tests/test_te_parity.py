"""Parity of the batched transfer-entropy kernel with the per-pair
histograms in ``oracles``: every value within ``TOL`` of the reference, the
same sample sizes, and the same errors."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import sinet.entropy as entropy_module
from sinet import (
    BinnedSeries,
    ProbabilitySeries,
    sii,
    sii_matrix,
    transfer_entropy,
)

PARITY = settings(max_examples=200, deadline=None, database=None, print_blob=True)
LEVELS = [0.0, 0.5, 0.9, 1.0]
# the kernel sums entropies of count tables and the reference sums the
# logs of ratios of frequencies: their rounding differs by about 1e-15
TOL = 1e-13


def dates(n):
    return np.datetime64("2006-01-02", "D") + np.arange(n)


def outcome(fn, *args, **kwargs):
    """The value, or the ValueError raised."""
    try:
        return np.asarray(fn(*args, **kwargs), dtype=float)
    except ValueError as err:
        return ("ValueError", str(err))


def assert_same_outcome(value, expected):
    """Equal errors, and values within TOL."""
    if isinstance(expected, tuple):
        assert value == expected
    else:
        assert isinstance(value, np.ndarray) and value.shape == expected.shape
        assert np.abs(value - expected).max(initial=0.0) <= TOL


def kernel_raw(series, bins, level=0.0):
    """The kernel's unclamped values and sample sizes for a basket, masked
    as the library masks it: only at a level above 0."""
    rows = np.array([np.minimum(np.floor(np.asarray(x) * bins).astype(np.int64), bins - 1)
                     for x in series])
    days = None
    if level > 0.0:
        high = np.array(series) >= level
        days = high[:, 1:] & high[:, :-1]
    return entropy_module._te_kernel(rows, bins, 10.0, days)


def assert_sizes_match(series, bins, level):
    """The kernel's sample size of every pair is the reference's count of
    kept triples."""
    _, sizes = kernel_raw(series, bins, level)
    want = [[int(oracles.bubble_day_mask(x, y, level).sum()) for y in series] for x in series]
    assert sizes.tolist() == want


def library_matrix(series, bins, base, level):
    assets = {f"a{k}": ProbabilitySeries(dates(len(x)), x) for k, x in enumerate(series)}
    return sii_matrix(assets, bins, base, bubble_level=level).values


def assert_matrix_parity(series, bins, base=10.0, level=0.0):
    """The library at ``level`` against the reference conditioned on
    ``level``, which at 0 keeps every triple through an all-true mask."""
    got = outcome(library_matrix, series, bins, base, level)
    want = outcome(oracles.sii_matrix_pairwise, series, bins, base, True, level)
    assert_same_outcome(got, want)
    if len(series[0]) >= 3:
        assert_sizes_match(series, bins, level)


def series_of(kind, rng, T):
    """Probability series of several shapes: uniform noise, a constant,
    a few levels including the bin edges 0.5, 0.9 and 1, and a persistent
    walk that revisits few cells."""
    if kind == "uniform":
        return rng.random(T)
    if kind == "constant":
        return np.full(T, rng.choice([0.0, 0.3, 0.5, 1.0]))
    if kind == "levels":
        return rng.choice([0.0, 0.45, 0.5, 0.9, 1.0], T)
    return np.clip(0.5 + np.cumsum(rng.normal(0.0, 0.05, T)), 0.0, 1.0)


@st.composite
def baskets(draw):
    K = draw(st.integers(2, 9))
    T = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["uniform", "constant", "levels", "walk"]),
                          min_size=K, max_size=K))
    bins = draw(st.integers(2, 12))
    return {
        "series": [series_of(kind, rng, T) for kind in kinds],
        "bins": bins,
        "base": draw(st.sampled_from([2.0, np.e, 10.0, 1.5])),
        "level": draw(st.sampled_from(LEVELS)),
        # 1 puts every target in a block of its own, the middle value splits
        # the basket into blocks of three targets
        "block": draw(st.sampled_from(
            [1, 3 * max(T - 1, bins**3), entropy_module.TE_BLOCK])),
    }


@PARITY
@given(baskets())
def test_matrix_matches_pairwise_reference(case):
    with mock.patch.object(entropy_module, "TE_BLOCK", case.pop("block")):
        assert_matrix_parity(**case)


@PARITY
@given(baskets())
def test_sii_matches_pairwise_reference(case):
    x, y = case["series"][:2]
    got = outcome(sii, ProbabilitySeries(dates(len(x)), x), ProbabilitySeries(dates(len(y)), y),
                  case["bins"], case["base"], bubble_level=case["level"])
    binned = [np.minimum(np.floor(s * case["bins"]).astype(np.int64), case["bins"] - 1)
              for s in (x, y)]
    mask = oracles.bubble_day_mask(x, y, case["level"])
    want = outcome(oracles.transfer_entropy_pairwise, binned[1], binned[0],
                   case["bins"], case["base"], mask)
    assert_same_outcome(got, want)


@pytest.mark.parametrize("masked", [False, True])
def test_wide_basket_matches_pairwise_reference(masked):
    # the size of the benchmark's series, with lag-coupled logistic latents
    rng = np.random.default_rng(40)
    leader = np.cumsum(rng.normal(0.0, 0.1, 2_921))
    latents = [0.6 * leader[1:] + 0.8 * np.cumsum(rng.normal(0.0, 0.1, 2_920))
               for _ in range(40)]
    series = [1.0 / (1.0 + np.exp(-2.0 * z)) for z in latents]
    assert_matrix_parity(series, 10, level=0.1 if masked else 0.0)


@pytest.mark.parametrize("T", [3, 4])
@pytest.mark.parametrize("level", LEVELS)
def test_shortest_baskets_match(T, level):
    rng = np.random.default_rng(T)
    series = [rng.random(T), np.full(T, 1.0), np.full(T, 0.5), rng.random(T)]
    assert_matrix_parity(series, 10)
    assert_matrix_parity(series, 3, level=level)


def test_constant_basket_is_zero():
    series = [np.full(50, v) for v in (0.0, 0.3, 0.3, 1.0)]
    assert_matrix_parity(series, 10)
    assert not library_matrix(series, 10, 10.0, 0.0).any()


@pytest.mark.parametrize("T", [0, 1, 2])
def test_too_short_basket_raises_like_reference(T):
    series = [np.full(T, 0.5), np.full(T, 0.2)]
    assert_matrix_parity(series, 10)
    assert outcome(library_matrix, series, 10, 10.0, 0.0) == (
        "ValueError", "need at least 3 observations to form lagged triples")


def test_bad_base_raises_like_reference():
    series = [np.linspace(0.0, 1.0, 20), np.linspace(1.0, 0.0, 20)]
    for base in (1.0, np.nan, np.inf, -np.inf):
        assert_matrix_parity(series, 10, base=base)


# two (source, target) pairs of binary series whose transfer entropy the
# kernel rounds to a tiny negative value, found by a search over random series
RESIDUE_PAIRS = [
    ([1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0], [1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0]),
    ([0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1], [1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1]),
]


def residue_series(bits):
    return 0.25 + 0.5 * np.array(bits, dtype=float)


def binned(seq, bins=10):
    return BinnedSeries(np.asarray(seq, dtype=np.int64), bins)


def test_negative_residues_clamp_to_zero():
    # the kernel's own value from each pair's source to its target is
    # negative: the matrix, sii and transfer_entropy all report 0.0, and
    # every other entry is the kernel's value bit for bit
    series = [residue_series(bits) for pair in RESIDUE_PAIRS for bits in pair]
    assert_matrix_parity(series, 2)
    raw, _ = kernel_raw(series, 2)
    assert raw[0, 1] < 0.0 and raw[2, 3] < 0.0
    got = library_matrix(series, 2, 10.0, 0.0)
    assert got.tobytes() == np.where(raw < 0.0, 0.0, raw).tobytes()
    for source, target in RESIDUE_PAIRS:
        assert sii(ProbabilitySeries(dates(14), residue_series(source)),
                   ProbabilitySeries(dates(14), residue_series(target)), 2) == 0.0
        assert transfer_entropy(binned(target, 2), binned(source, 2)) == 0.0
    # a thin pair beside the residue raises as the reference does
    late = np.concatenate([[0.95, 0.95], np.full(12, 0.1)])
    thin = series[:2] + [late]
    assert kernel_raw(thin, 2, 0.25)[1][0, 2] == 1
    assert_matrix_parity(thin, 2, level=0.25)
    assert outcome(library_matrix, thin, 2, 10.0, 0.25) == (
        "ValueError", "mask keeps fewer than 2 triples")


@pytest.mark.parametrize("u, v, mask, message", [
    (binned([1, 2, 3]), binned([1, 2]), None, "series lengths differ: 3 vs 2"),
    (binned([1, 2]), binned([1, 2]), None,
     "need at least 3 observations to form lagged triples"),
    (binned([1, 2, 3], bins=10), binned([1, 2, 3], bins=5), None,
     "series must share the same bin count"),
    (binned([1, 2, 3, 4]), binned([1, 2, 3, 4]), [True, False],
     "mask must align with the lagged triples"),
    (binned([1, 2, 3, 4]), binned([1, 2, 3, 4]), [True, False, False],
     "mask keeps fewer than 2 triples"),
], ids=["u0-v0-None", "u1-v1-None", "u2-v2-None", "u3-v3-mask3", "u4-v4-mask4"])
def test_transfer_entropy_validates_like_joint_histogram(u, v, mask, message):
    """transfer_entropy rejects a pair it cannot form the joint histogram of
    the lagged triples from, with these exact messages."""
    with pytest.raises(ValueError) as err:
        transfer_entropy(u, v, mask=mask)
    assert str(err.value) == message
