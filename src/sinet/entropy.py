"""Transfer entropy between coarse-grained bubble-probability series.

Probabilities are binned into B equal-width cells and treated as symbols.
With one lag of history on both sides, the transfer entropy from a source
series v to a target series u reduces to

    TE = sum p(u_t, u_{t-1}, v_{t-1}) *
         log_s [ p(u_t, u_{t-1}, v_{t-1}) p(u_{t-1}) /
                 (p(u_t, u_{t-1}) p(u_{t-1}, v_{t-1})) ]

over occupied triples, all four tables estimated by counting. That is the
conditional mutual information H(v_{t-1} | u_{t-1}) - H(v_{t-1} | u_t, u_{t-1}),
and it is computed as such, from the entropies of the integer count tables
(see ``_te_kernel``). The pairwise matrix of these values over a basket of
assets is the raw material of the influence network; one batched kernel
computes it, and a single pair is its one-by-one case.
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
        if not isinstance(self.bin_count, (int, np.integer)) or self.bin_count < 2:
            raise ValueError(f"bin_count must be an integer >= 2, got {self.bin_count!r}")
        b = np.asarray(self.bins, dtype=np.int64)
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
    v = probs.values  # in [0, 1]: ProbabilitySeries rejects anything else, NaN too
    bins = np.minimum(np.floor(v * bin_count).astype(np.int64), bin_count - 1)
    return BinnedSeries(bins, bin_count)


def _te_kernel(
    bins: np.ndarray, bin_count: int, base: float, days: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped transfer entropy from every row to every row of one stack
    ``bins`` (bin symbols, one series per row, all of length T >= 3).

    Returns the values and the sample sizes, both indexed [source, target].
    With day flags (one row of length T-1 per series), pair (i, r) counts
    only the triples where ``days[i] & days[r]``.

    Targets are taken in blocks of at most ``TE_BLOCK`` elements, counting
    both the block's triples (targets x steps) and its cells (targets x
    B^3), and one bincount per source counts the triples of the whole
    block. A pair's value then comes from its integer count tables alone,
    with h(k) = k ln k read from one table (h(0) = 0, so empty cells add
    nothing):

        n ln(base) TE = sum_(u_t, u_prev) [sum_v h(c3) - h(tp)]
                        - sum_u_prev [sum_v h(lp) - h(lag)]

    Each group's terms are summed over v_prev before the group's own total
    is subtracted, so a constant source or target cancels term by term to
    exactly 0.0. The block keeps v_prev and u_t as its leading axes and
    every sum runs over a leading axis or a run of B cells of one pair, so
    a pair's value does not depend on the block it is counted in.
    """
    B = bin_count
    cells = B**3
    steps = bins.shape[1] - 1
    v_prev = bins[:, :-1]
    log_base = float(np.log(base))
    values = np.empty((len(bins), len(bins)))
    sizes = np.empty((len(bins), len(bins)), dtype=np.int64)
    h = np.arange(steps + 1, dtype=float)  # no count exceeds the steps
    h[1:] *= np.log(h[1:])
    block = min(len(bins), max(1, TE_BLOCK // max(steps, cells)))
    # buffers for a block's target codes and triple codes, reused per block
    target_codes = np.empty((block, steps), dtype=np.int64)
    triple_codes = np.empty_like(target_codes)
    for lo in range(0, len(bins), block):
        u = bins[lo:lo + block]
        rows = len(u)
        size = rows * cells
        # cell ((v_prev*B + u_t)*rows + r)*B + u_prev for target r of the block
        target_code, code = target_codes[:rows], triple_codes[:rows]
        np.multiply(u[:, 1:], rows, out=target_code)
        target_code += np.arange(rows)[:, None]
        target_code *= B
        target_code += u[:, :-1]
        for i, v in enumerate(v_prev):
            np.add(target_code, v * (size // B), out=code)
            if days is not None:  # dropped triples land in a discard cell past the block
                code[~(days[lo:lo + rows] & days[i])] = size
            counts = np.bincount(code.ravel(), minlength=size)[:size].reshape(B, B, -1)
            tp = counts.sum(axis=0)   # (u_t, (r, u_prev))
            lp = counts.sum(axis=1)   # (v_prev, (r, u_prev))
            lag = lp.sum(axis=0)      # (r, u_prev)
            pair = (h[counts].sum(axis=0) - h[tp]).sum(axis=0).reshape(rows, B).sum(axis=1)
            own = (h[lp].sum(axis=0) - h[lag]).reshape(rows, B).sum(axis=1)
            n = lag.reshape(rows, B).sum(axis=1)
            # a pair without triples is 0.0 here; _reported rejects its size
            values[i, lo:lo + rows] = (pair - own) / (np.maximum(n, 1) * log_base)
            sizes[i, lo:lo + rows] = n
    return values, sizes


def _reported(
    bins: np.ndarray, bin_count: int, base: float, days: np.ndarray | None = None,
) -> np.ndarray:
    """Every pair's reported value, laid out as :func:`_te_kernel` lays it
    out: the one place that decides an SII value. In (source, target)
    order, the first pair that keeps fewer than two triples raises, and a
    negative rounding residue (all that the 0*log(0) convention leaves below
    zero) becomes 0.0, with a warning below -``NEGATIVE_RESIDUE_WARN``.
    """
    if not 1.0 < base < np.inf:
        raise ValueError(f"base must be finite and exceed 1, got {base!r}")
    if bins.shape[1] < 3:
        raise ValueError("need at least 3 observations to form lagged triples")
    values, sizes = _te_kernel(bins, bin_count, base, days)
    # only the pairs the rule rejects or changes
    for k in np.flatnonzero((sizes < 2) | (values < 0.0)).tolist():
        if sizes.flat[k] < 2:
            raise ValueError("mask keeps fewer than 2 triples")
        if values.flat[k] < -NEGATIVE_RESIDUE_WARN:
            warnings.warn(
                f"transfer entropy rounding residue {values.flat[k]:.3e} clamped to 0",
                RuntimeWarning,
                stacklevel=3,
            )
        values.flat[k] = 0.0
    return values


def transfer_entropy(
    u: BinnedSeries, v: BinnedSeries, base: float = 10.0, mask=None
) -> float:
    """Transfer entropy from source v to target u, one lag each side.

    Zero-probability triples are skipped (the 0*log(0) convention). The
    value is entry (v, u) of the pair's 2x2 matrix under :func:`sii_matrix`'s
    pair rule. ``mask`` restricts the histogram to selected triples.
    """
    if len(u) != len(v):
        raise ValueError(f"series lengths differ: {len(u)} vs {len(v)}")
    if u.bin_count != v.bin_count:
        raise ValueError("series must share the same bin count")
    days = None
    if mask is not None:
        days = np.array([mask, mask], dtype=bool)  # the pair's mask on both rows
        if days.shape != (2, len(u) - 1):
            raise ValueError("mask must align with the lagged triples")
    # row 0 is the source v and row 1 the target u: only entry (0, 1) is read
    return float(_reported(np.stack([v.bins, u.bins]), u.bin_count, base, days)[0, 1])


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
    *,
    bubble_level: float = 0.0,
) -> float:
    """Speculative influence intensity of asset x on asset y: the (source,
    target) entry of :func:`sii_matrix` over the basket of x as "source"
    and y as "target", so both series must have the same dates.

    This is the transfer entropy with x's bubble-probability series as the
    source and y's as the target, over every day of the window at the
    default ``bubble_level`` of 0. A level above 0 restricts the histogram
    to days on which both assets' bubble probabilities reach it (a reading
    of conditioning on the joint bubble state).
    """
    m = sii_matrix({"source": x_probs, "target": y_probs}, bin_count, base,
                   bubble_level=bubble_level)
    return m["source", "target"]


def nsii(x: str, y: str, m: SIIMatrix) -> float:
    """Net influence of x on y: SII(x -> y) - SII(y -> x)."""
    return m[x, y] - m[y, x]


def sii_matrix(
    assets: dict[str, ProbabilitySeries],
    bin_count: int = 10,
    base: float = 10.0,
    window: str = "",
    *,
    bubble_level: float = 0.0,
) -> SIIMatrix:
    """All ordered-pair influence intensities for a basket of assets.

    Series must be aligned (equal timestamps). Every pair is counted by one
    batched kernel, and an entry is bit for bit the same in any basket.
    Pairs are checked in (source, target) order: a negative rounding residue
    is clamped to zero (with a warning below -``NEGATIVE_RESIDUE_WARN``), and
    the first pair whose mask keeps fewer than two triples raises.

    A ``bubble_level`` above 0 keeps only the triples of a pair on whose two
    days both assets' probabilities reach it. At 0 every triple qualifies,
    and the kernel counts them without a mask.
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
    if not 0.0 <= bubble_level <= 1.0:
        raise ValueError(f"bubble_level must lie in [0, 1], got {bubble_level!r}")
    days = (
        np.stack([_bubble_days(assets[name], bubble_level) for name in names])
        if bubble_level > 0.0 else None
    )
    # a series against itself cancels term by term: the diagonal is exactly 0.0
    return SIIMatrix(tuple(names), _reported(bins, bin_count, base, days), window=window)
