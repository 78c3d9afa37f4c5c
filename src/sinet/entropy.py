"""Transfer entropy between coarse-grained bubble-probability series.

Probabilities are binned into B equal-width cells and treated as symbols.
With one lag of history on both sides, the transfer entropy from a source
series v to a target series u reduces to

    TE = sum p(u_t, u_{t-1}, v_{t-1}) *
         log_s [ p(u_t, u_{t-1}, v_{t-1}) p(u_{t-1}) /
                 (p(u_t, u_{t-1}) p(u_{t-1}, v_{t-1})) ]

over occupied triples, all four tables estimated by counting. The pairwise
matrix of these values over a basket of assets is the raw material of the
influence network; one batched kernel computes it, and a single pair is
its one-by-one case.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .series import ProbabilitySeries

NEGATIVE_RESIDUE_WARN = 1e-9
# Most elements (targets x steps, or targets x B^3 counts) in one block of
# the batched transfer-entropy kernel.
TE_BLOCK = 1 << 16


@dataclass(frozen=True)
class BinnedSeries:
    """Integer symbol sequence over ``bin_count`` equal-width bins."""

    bins: np.ndarray
    bin_count: int = 10

    def __post_init__(self):
        b = np.asarray(self.bins, dtype=np.int64)
        if self.bin_count < 2:
            raise ValueError("bin_count must be >= 2")
        if len(b) and (b.min() < 0 or b.max() >= self.bin_count):
            raise ValueError(f"bins must lie in [0, {self.bin_count - 1}]")
        b.setflags(write=False)
        object.__setattr__(self, "bins", b)

    def __len__(self) -> int:
        return len(self.bins)


@dataclass(frozen=True)
class SIIMatrix:
    """Pairwise speculative-influence intensities with a zero diagonal."""

    nodes: tuple[str, ...]
    values: np.ndarray
    window: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        k = len(self.nodes)
        if v.shape != (k, k):
            raise ValueError(f"values must be {k}x{k} to match nodes")
        if not np.all(np.isfinite(v)):
            raise ValueError("SII values must be finite")
        if np.any(np.diag(v) != 0.0):
            raise ValueError("diagonal must be zero")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def index_of(self, node: str) -> int:
        try:
            return self.nodes.index(node)
        except ValueError:
            raise KeyError(f"unknown node {node!r}") from None

    def __getitem__(self, pair) -> float:
        x, y = pair
        return float(self.values[self.index_of(x), self.index_of(y)])


def discretize(probs: ProbabilitySeries, bin_count: int = 10) -> BinnedSeries:
    """Map probabilities to equal-width bins: k = floor(value * B).

    Bins are left-closed and right-open except the last, which also contains
    the value 1.0 exactly.
    """
    if bin_count < 2:
        raise ValueError("bin_count must be >= 2")
    v = probs.values  # in [0, 1]: ProbabilitySeries rejects anything else, NaN too
    bins = np.minimum(np.floor(v * bin_count).astype(np.int64), bin_count - 1)
    return BinnedSeries(bins, bin_count)


def _te_kernel(
    sources: np.ndarray,
    targets: np.ndarray,
    bin_count: int,
    base: float,
    source_days: np.ndarray | None = None,
    target_days: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped transfer entropy from every row of ``sources`` to every row
    of ``targets`` (bin symbols, one series per row, all of length T >= 3).

    Returns the values and the sample sizes, both indexed [source, target].
    With day flags (given for both sides, one row of length T-1 per
    series), pair (i, r) counts only the triples where
    ``source_days[i] & target_days[r]``.

    Targets are taken in blocks of at most ``TE_BLOCK`` elements, counting
    both the block's triples (targets x steps) and its cells (targets x
    B^3), and one bincount per source counts the triples of the whole
    block. Each pair's value is still bit for bit what counting it alone
    gives: its tables are the same integer counts over the same divisions,
    and its sum is one ``np.dot`` over its occupied cells in C order.
    """
    B = bin_count
    cells = B**3
    steps = targets.shape[1] - 1
    v_prev = sources[:, :-1]
    masked = source_days is not None
    log_base = float(np.log(base))
    values = np.empty((len(sources), len(targets)))
    sizes = np.empty((len(sources), len(targets)), dtype=np.int64)
    ones = np.ones(B, dtype=np.int64)
    block = min(len(targets), max(1, TE_BLOCK // max(steps, cells)))
    # where each cell of a block (r, u_t, u_prev, v_prev) falls in the
    # pair tables; a shorter last block uses a prefix of each map
    grid = np.arange(block * cells)
    row = grid // cells
    target_pair = grid // B                                  # (r, u_t, u_prev)
    lagged_pair = row * (B * B) + grid % (B * B)             # (r, u_prev, v_prev)
    lagged = row * B + target_pair % B                       # (r, u_prev)
    # buffers for a block's target codes and triple codes, reused per block
    target_codes = np.empty((block, steps), dtype=np.int64)
    triple_codes = np.empty_like(target_codes)
    for lo in range(0, len(targets), block):
        u = targets[lo:lo + block]
        rows = len(u)
        size = rows * cells
        bounds = np.arange(rows + 1) * cells
        # cell r*B^3 + (u_t*B + u_prev)*B + v_prev for target r of the block
        target_code, code = target_codes[:rows], triple_codes[:rows]
        np.multiply(u[:, 1:], B, out=target_code)
        target_code += u[:, :-1]
        target_code *= B
        target_code += np.arange(rows)[:, None] * cells
        for i, v in enumerate(v_prev):
            np.add(target_code, v, out=code)
            if masked:  # dropped triples land in a discard cell past the block
                code[~(target_days[lo:lo + rows] & source_days[i])] = size
            counts = np.bincount(code.ravel(), minlength=size)[:size]
            # integer marginals, as exact as the triple counts
            n = counts.reshape(rows, cells).sum(axis=1)
            tp = counts.reshape(-1, B) @ ones
            lp = counts.reshape(rows, B, B * B).sum(axis=1).ravel()
            lag = tp.reshape(rows, B, B).sum(axis=1).ravel()
            cell = np.flatnonzero(counts > 0)                   # C order within each pair
            pair_n = n[row[cell]]
            p3 = counts[cell] / pair_n
            ratio = p3 * (lag[lagged[cell]] / pair_n)
            ratio /= (tp[target_pair[cell]] / pair_n) * (lp[lagged_pair[cell]] / pair_n)
            logs = np.log(ratio)
            ends = np.searchsorted(cell, bounds).tolist()
            for j in range(rows):
                a, b = ends[j], ends[j + 1]
                values[i, lo + j] = float(np.dot(p3[a:b], logs[a:b])) / log_base
            sizes[i, lo:lo + rows] = n
    return values, sizes


def _clamped(value: float, size: int) -> float:
    """One pair's reported value: rejects a mask that keeps fewer than two
    triples, and clamps a negative rounding residue to zero (the
    0*log(0) convention leaves only rounding below zero)."""
    if size < 2:
        raise ValueError("mask keeps fewer than 2 triples")
    if value < 0.0:
        if value < -NEGATIVE_RESIDUE_WARN:
            warnings.warn(
                f"transfer entropy rounding residue {value:.3e} clamped to 0",
                RuntimeWarning,
                stacklevel=3,
            )
        value = 0.0
    return value


def transfer_entropy(
    u: BinnedSeries, v: BinnedSeries, base: float = 10.0, mask=None
) -> float:
    """Transfer entropy from source v to target u, one lag each side.

    Zero-probability triples are skipped (the 0*log(0) convention); a tiny
    negative rounding residue is clamped to zero. ``mask`` restricts the
    histogram to selected triples.
    """
    if base <= 1.0:
        raise ValueError("log base must exceed 1")
    if len(u) != len(v):
        raise ValueError(f"series lengths differ: {len(u)} vs {len(v)}")
    if len(u) < 3:
        raise ValueError("need at least 3 observations to form lagged triples")
    if u.bin_count != v.bin_count:
        raise ValueError("series must share the same bin count")
    days = None
    if mask is not None:
        days = np.asarray(mask, dtype=bool)[None]
        if days.shape != (1, len(u) - 1):
            raise ValueError("mask must align with the lagged triples")
    values, sizes = _te_kernel(v.bins[None], u.bins[None], u.bin_count, base, days, days)
    return _clamped(values.item(), sizes.item())


def _bubble_days(probs: ProbabilitySeries, level: float) -> np.ndarray:
    """Triples (t = 1..T-1) on both of whose days the asset is at or above
    ``level``; a pair keeps the triples where both assets' flags are set."""
    high = probs.values >= level
    return high[1:] & high[:-1]


def sii(
    x_probs: ProbabilitySeries,
    y_probs: ProbabilitySeries,
    bin_count: int = 10,
    base: float = 10.0,
    bubble_only: bool = False,
    bubble_level: float = 0.5,
) -> float:
    """Speculative influence intensity of asset x on asset y.

    This is the transfer entropy with x's bubble-probability series as the
    source and y's as the target, over the full window by default.
    ``bubble_only`` restricts the histogram to days on which both assets'
    bubble probabilities reach ``bubble_level`` (an alternative reading of
    conditioning on the joint bubble state; not the default).
    """
    mask = (
        _bubble_days(x_probs, bubble_level) & _bubble_days(y_probs, bubble_level)
        if bubble_only else None
    )
    return transfer_entropy(
        discretize(y_probs, bin_count), discretize(x_probs, bin_count),
        base=base, mask=mask,
    )


def nsii(x: str, y: str, m: SIIMatrix) -> float:
    """Net influence of x on y: SII(x -> y) - SII(y -> x)."""
    return m[x, y] - m[y, x]


def sii_matrix(
    assets: dict[str, ProbabilitySeries],
    bin_count: int = 10,
    base: float = 10.0,
    window: str = "",
    bubble_only: bool = False,
    bubble_level: float = 0.5,
) -> SIIMatrix:
    """All ordered-pair influence intensities for a basket of assets.

    Series must be aligned (equal timestamps). Every pair is counted by one
    batched kernel, and each entry equals ``sii`` of its pair bit for bit.
    """
    if len(assets) < 2:
        raise ValueError("need at least 2 assets")
    names = list(assets)
    first = assets[names[0]]
    for name in names[1:]:
        s = assets[name]
        if len(s) != len(first) or not np.array_equal(s.timestamps, first.timestamps):
            raise ValueError(f"series {name!r} is not aligned with {names[0]!r}")

    bins = np.empty((len(names), len(first)), dtype=np.int32)  # symbols < bin_count
    for row, name in zip(bins, names):
        row[:] = discretize(assets[name], bin_count).bins
    if base <= 1.0:
        raise ValueError("log base must exceed 1")
    if len(first) < 3:
        raise ValueError("need at least 3 observations to form lagged triples")
    days = (
        np.stack([_bubble_days(assets[name], bubble_level) for name in names])
        if bubble_only else None
    )
    raw, sizes = _te_kernel(bins, bins, bin_count, base, days, days)
    values = np.zeros(raw.shape)
    for i, (row, row_sizes) in enumerate(zip(raw.tolist(), sizes.tolist())):
        for j, (value, size) in enumerate(zip(row, row_sizes)):
            if i != j:
                values[i, j] = _clamped(value, size)
    return SIIMatrix(tuple(names), values, window=window)
