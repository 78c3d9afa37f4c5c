"""Invariants of transfer entropy that hold whatever the kernel's rounding:
symbol relabelling, the [0, log_base B] range, exact zeros for a constant
side, the one-pair case agreeing with the matrix, and agreement with a
50-digit decimal reference."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import sinet.entropy as entropy_module
from sinet import BinnedSeries, ProbabilitySeries, sii_matrix, transfer_entropy
from test_te_parity import TOL, baskets, dates

PROPERTY = settings(max_examples=200, deadline=None, database=None, print_blob=True)


def binned(probs, bins):
    return np.minimum(np.floor(np.asarray(probs) * bins).astype(np.int64), bins - 1)


def matrix_or_none(case):
    """The basket's influence matrix, or None when a mask keeps fewer than
    two triples of some pair."""
    assets = {f"a{k}": ProbabilitySeries(dates(len(x)), x)
              for k, x in enumerate(case["series"])}
    with mock.patch.object(entropy_module, "TE_BLOCK", case["block"]):
        try:
            return sii_matrix(assets, case["bins"], case["base"],
                              bubble_level=case["level"]).values
        except ValueError as err:
            assert str(err) == "mask keeps fewer than 2 triples"
            return None


@st.composite
def symbol_pairs(draw):
    bins = draw(st.integers(2, 12))
    T = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    symbols = rng.integers(0, draw(st.integers(1, bins)), (2, T))
    if draw(st.booleans()):  # a persistent walk over few cells
        symbols[0] = np.clip(np.cumsum(rng.integers(-1, 2, T)) + bins // 2, 0, bins - 1)
    mask = None
    if draw(st.booleans()):
        mask = rng.random(T - 1) < draw(st.sampled_from([0.3, 0.7, 1.0]))
        if mask.sum() < 2:
            mask[:2] = True
    base = draw(st.sampled_from([2.0, np.e, 10.0, 1.5]))
    return symbols[0], symbols[1], bins, base, mask, rng.permutation(bins)


@PROPERTY
@given(symbol_pairs())
def test_relabelling_symbols_moves_no_value(pair):
    u, v, bins, base, mask, perm = pair

    def te(target, source):
        return transfer_entropy(BinnedSeries(target, bins), BinnedSeries(source, bins),
                                base, mask)

    value = te(u, v)
    assert abs(te(perm[u], v) - value) <= TOL
    assert abs(te(u, perm[v]) - value) <= TOL


@PROPERTY
@given(baskets())
def test_every_entry_lies_between_zero_and_log_bins(case):
    values = matrix_or_none(case)
    if values is not None:
        assert (values >= 0.0).all()
        assert (values <= np.log(case["bins"]) / np.log(case["base"]) + TOL).all()


@PROPERTY
@given(baskets(), st.data())
def test_constant_source_or_target_gives_exact_zero(case, data):
    K = len(case["series"])
    constant = data.draw(st.lists(st.integers(0, K - 1), min_size=1, unique=True))
    for k in constant:
        case["series"][k] = np.full(len(case["series"][k]),
                                    data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])))
    values = matrix_or_none(case)
    if values is not None:
        for k in constant:
            assert (values[k] == 0.0).all() and (values[:, k] == 0.0).all()


@PROPERTY
@given(baskets())
def test_transfer_entropy_equals_its_matrix_entry_bitwise(case):
    values = matrix_or_none(case)
    if values is None:
        return
    series, bins = case["series"], case["bins"]
    for i, x in enumerate(series):
        for j, y in enumerate(series):
            if i == j:
                continue
            # at level 0 the all-true mask: the fold is exact
            mask = oracles.bubble_day_mask(x, y, case["level"])
            value = transfer_entropy(BinnedSeries(binned(y, bins), bins),
                                     BinnedSeries(binned(x, bins), bins), case["base"], mask)
            assert np.float64(value).tobytes() == values[i, j].tobytes()


def coupled_pair(T, bins, seed):
    """Logistic series where the target follows the source with one lag."""
    rng = np.random.default_rng(seed)
    leader = np.cumsum(rng.normal(0.0, 0.1, T + 1))
    target = 0.6 * leader[:-1] + 0.8 * np.cumsum(rng.normal(0.0, 0.1, T))
    return (binned(1.0 / (1.0 + np.exp(-2.0 * target)), bins),
            binned(1.0 / (1.0 + np.exp(-2.0 * leader[1:])), bins))


@pytest.mark.parametrize("T, bins, base, masked", [
    (3_000, 10, 10.0, False),
    (3_000, 10, 10.0, True),
    (2_920, 3, 2.0, False),
    (500, 12, np.e, True),
    (40, 4, 10.0, False),
])
def test_kernel_and_pairwise_reference_match_decimal(T, bins, base, masked):
    u, v = coupled_pair(T, bins, seed=T + bins)
    mask = (np.arange(T - 1) % 3 != 0) if masked else None
    want = oracles.transfer_entropy_decimal(u, v, bins, base, mask)
    assert want > 0.0
    got = transfer_entropy(BinnedSeries(u, bins), BinnedSeries(v, bins), base, mask)
    assert abs(got - want) <= TOL
    assert abs(oracles.transfer_entropy_pairwise(u, v, bins, base, mask) - want) <= TOL
