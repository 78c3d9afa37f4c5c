"""Influence indicators and the thresholded unidirectional network.

Nodes carry an industrial or financial group label. Gross indicators sum the
pairwise influence intensities a node sends to (or receives from) a target
set; net indicators are their differences. The network takes, per unordered
pair, the positive net direction as a candidate, min-max rescales the nets
of all candidates into [0, 1] and keeps those whose raw net reaches a threshold.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import rank_transform
from .entropy import SIIMatrix
from .errors import ConfigurationError

INDUSTRIAL = "industrial"
FINANCIAL = "financial"

GROSS_INDICATORS = (
    "SI-to-All",
    "SI-from-All",
    "SI-to-Fin",
    "SI-from-Fin",
    "SI-to-IX",
    "SI-from-IX",
)
NET_INDICATORS = ("NSII-on-All", "NSII-on-Fin", "NSII-on-IX")
ALL_INDICATORS = GROSS_INDICATORS + NET_INDICATORS


@dataclass(frozen=True)
class NodeGroup:
    """Group label of every node."""

    groups: dict[str, str]

    def __post_init__(self):
        bad = {n: g for n, g in self.groups.items() if g not in (INDUSTRIAL, FINANCIAL)}
        if bad:
            raise ConfigurationError(f"unknown group labels: {bad}")

    def group_of(self, node: str) -> str:
        try:
            return self.groups[node]
        except KeyError:
            raise ConfigurationError(f"node {node!r} has no group label") from None


@dataclass(frozen=True)
class IndicatorTable:
    """Per-node aggregate indicators, keyed by indicator name."""

    nodes: tuple[str, ...]
    values: dict[str, np.ndarray]

    def __post_init__(self):
        for name in ALL_INDICATORS:
            if name not in self.values:
                raise ValueError(f"missing indicator column {name!r}")
            if len(self.values[name]) != len(self.nodes):
                raise ValueError(f"indicator column {name!r} has wrong length")
        for suffix in ("All", "Fin", "IX"):
            net = np.asarray(self.values[f"NSII-on-{suffix}"], dtype=float)
            gross = np.asarray(self.values[f"SI-to-{suffix}"], dtype=float) - np.asarray(
                self.values[f"SI-from-{suffix}"], dtype=float
            )
            if not np.array_equal(net, gross):
                raise ValueError(f"NSII-on-{suffix} must equal its gross difference exactly")

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.values[name], dtype=float)

    def value(self, node: str, name: str) -> float:
        return float(self.values[name][self.nodes.index(node)])


@dataclass(frozen=True)
class SINGraph:
    """Thresholded unidirectional influence network.

    ``nodes`` maps node id to display attributes (group, size value, color
    value); ``edges`` are (source, target, weight) with weight the rescaled
    net intensity in [0, 1]. ``threshold`` applies to raw net intensities.
    Node ids are distinct, and every edge joins two of them.
    """

    nodes: tuple[str, ...]
    groups: dict[str, str]
    size_values: dict[str, float]
    color_values: dict[str, Optional[float]]
    edges: tuple[tuple[str, str, float], ...]
    threshold: float

    def __post_init__(self):
        known = set()
        for node in self.nodes:
            if node in known:
                raise ValueError(f"repeated node {node!r}")
            known.add(node)
        seen_pairs = set()
        for src, dst, w in self.edges:
            if src not in known or dst not in known:
                raise ValueError(f"edge ({src!r}, {dst!r}) has an endpoint that is not a node")
            if src == dst:
                raise ValueError("self-edges are not allowed")
            if (src, dst) in seen_pairs or (dst, src) in seen_pairs:
                raise ValueError(f"duplicate or bidirectional pair ({src}, {dst})")
            seen_pairs.add((src, dst))
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"edge weight {w} outside [0, 1]")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def compute_indicators(m: SIIMatrix, groups: NodeGroup) -> IndicatorTable:
    """Gross and net influence indicators for every node of the matrix.

    Sums exclude the diagonal. Net indicators are exact differences of the
    gross ones, so NSII-on-All sums to zero over all nodes.
    """
    v = m.values
    nodes = m.nodes
    fin = np.array([groups.group_of(n) == FINANCIAL for n in nodes])
    ind = ~fin

    def masked_sums(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sel = np.where(mask, 1.0, 0.0)
        to = v @ sel            # sum over targets j in mask of v[i, j]
        frm = v.T @ sel         # sum over sources j in mask of v[j, i]
        return to, frm

    to_all, from_all = masked_sums(np.ones(len(nodes), dtype=bool))
    to_fin, from_fin = masked_sums(fin)
    to_ix, from_ix = masked_sums(ind)

    values = {
        "SI-to-All": to_all,
        "SI-from-All": from_all,
        "SI-to-Fin": to_fin,
        "SI-from-Fin": from_fin,
        "SI-to-IX": to_ix,
        "SI-from-IX": from_ix,
        "NSII-on-All": to_all - from_all,
        "NSII-on-Fin": to_fin - from_fin,
        "NSII-on-IX": to_ix - from_ix,
    }
    return IndicatorTable(nodes, values)


def _rescale(values: np.ndarray) -> np.ndarray:
    """Dilation onto [0, 1]: affine min-max map, all-equal inputs map to 1."""
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.ones_like(values)
    return (values - lo) / (hi - lo)


def build_sin(
    m: SIIMatrix,
    groups: NodeGroup,
    threshold: float = 0.3,
    losses: Optional[dict[str, float]] = None,
) -> SINGraph:
    """Build the unidirectional network from an intensity matrix.

    For each unordered pair the positive net direction is a candidate edge;
    candidates at or above ``threshold`` (raw, pre-rescaling) are kept with
    min-max rescaled weights. Industrial node sizes rank NSII-on-IX within
    their group; financial node sizes rank NSII-on-Fin minus SI-from-IX.
    Color values rank the supplied losses within each group.
    """
    if not 0.0 <= threshold < np.inf:
        raise ValueError(f"threshold must be finite and nonnegative, got {threshold!r}")
    table = compute_indicators(m, groups)
    nodes = m.nodes
    labels = [groups.group_of(n) for n in nodes]
    fin = np.array([label == FINANCIAL for label in labels], dtype=bool)

    # the positive net direction of each pair i < j, in row-major order
    i, j = np.triu_indices(len(nodes), 1)
    net = m.values[i, j] - m.values[j, i]
    live = net != 0.0
    forward = net[live] > 0.0
    src = np.where(forward, i[live], j[live])
    dst = np.where(forward, j[live], i[live])
    raw = np.abs(net[live])
    edges = []
    if len(raw):
        kept = raw >= threshold
        edges = [(nodes[a], nodes[b], w) for a, b, w in
                 zip(src[kept].tolist(), dst[kept].tolist(), _rescale(raw)[kept].tolist())]

    size_score = np.where(fin, table.column("NSII-on-Fin") - table.column("SI-from-IX"),
                          table.column("NSII-on-IX"))
    size_values: dict[str, float] = {}
    color_values: dict[str, Optional[float]] = {n: None for n in nodes}
    if losses is not None:
        missing = [n for n in nodes if n not in losses]
        if missing:
            raise ConfigurationError(f"losses missing for nodes: {missing}")
        loss = np.array([losses[n] for n in nodes], dtype=float)
    for mask in (~fin, fin):
        members = [n for n, member in zip(nodes, mask) if member]
        if members:
            size_values.update(zip(members, rank_transform(size_score[mask]).tolist()))
            if losses is not None:
                color_values.update(zip(members, rank_transform(loss[mask]).tolist()))

    return SINGraph(
        nodes=nodes,
        groups=dict(zip(nodes, labels)),
        size_values=size_values,
        color_values=color_values,
        edges=tuple(edges),
        threshold=threshold,
    )
