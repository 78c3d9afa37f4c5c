"""File formats: CSV ingestion, key-value configuration, graph and table
exports.

All numeric output uses shortest round-trip decimal text (``repr``), so
identical inputs produce byte-identical files. Every artifact carries a
provenance line naming the configuration hash and analysis window it came
from.
"""
from __future__ import annotations

import csv
import json
from datetime import date
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .network import SINGraph
from .series import ProbabilitySeries

GRAPH_SCHEMA = "sin-graph/1"

DEFAULT_COLUMNS = {"date": "date", "price": "price", "market_cap": "market_cap"}


def _fmt(x) -> str:
    """Full-precision decimal text for floats; ints and strings unchanged."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


# ---------------------------------------------------------------------------
# CSV ingestion

def read_price_table(path, column_map=None) -> dict:
    """Read a (date, price[, market_cap]) CSV, sorted by date.

    Returns a dict with ``dates`` (datetime64[D]), ``prices`` and, when the
    mapped column exists, ``caps``. Rows are validated one by one so errors
    carry their 1-based line number.
    """
    colmap = dict(DEFAULT_COLUMNS)
    if column_map:
        colmap.update(column_map)
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"price file {path} does not exist")

    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigurationError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for field in ("date", "price"):
            if colmap[field] not in header:
                raise ConfigurationError(
                    f"{path}: missing required column {colmap[field]!r} (maps {field})"
                )
        date_idx = header.index(colmap["date"])
        price_idx = header.index(colmap["price"])
        cap_idx = header.index(colmap["market_cap"]) if colmap["market_cap"] in header else None

        dates: list[date] = []
        prices: list[float] = []
        caps: list[float] = []
        seen: set[date] = set()
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                day = date.fromisoformat(row[date_idx].strip())
            except (ValueError, IndexError):
                raise ValueError(f"{path}: unparseable date on line {lineno}") from None
            if day in seen:
                raise ValueError(f"{path}: duplicate date {day} on line {lineno}")
            seen.add(day)
            try:
                price = float(row[price_idx])
            except (ValueError, IndexError):
                raise ValueError(f"{path}: unparseable price on line {lineno}") from None
            if not np.isfinite(price) or price <= 0:
                raise ValueError(f"{path}: non-positive price on line {lineno}")
            cap = None
            if cap_idx is not None:
                try:
                    cap = float(row[cap_idx])
                except (ValueError, IndexError):
                    raise ValueError(
                        f"{path}: unparseable market_cap on line {lineno}"
                    ) from None
                if not np.isfinite(cap) or cap <= 0:
                    raise ValueError(f"{path}: non-positive market_cap on line {lineno}")
            dates.append(day)
            prices.append(price)
            caps.append(cap)

    order = np.argsort(np.array(dates, dtype="datetime64[D]"), kind="stable")
    table = {
        "dates": np.array(dates, dtype="datetime64[D]")[order],
        "prices": np.asarray(prices, dtype=float)[order],
    }
    if cap_idx is not None:
        table["caps"] = np.asarray(caps, dtype=float)[order]
    return table


# ---------------------------------------------------------------------------
# Key-value configuration files

def read_key_values(path) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}: line {lineno} is not 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigurationError(f"{path}: empty key on line {lineno}")
        if key in out:
            raise ConfigurationError(f"{path}: duplicate key {key!r} on line {lineno}")
        out[key] = value.strip()
    return out


# ---------------------------------------------------------------------------
# Graph export / import

def export_graph(g: SINGraph, fmt: str, path, provenance: str = "") -> Path:
    """Write a network to ``path`` as 'dot' or 'graph-json'. Returns the path."""
    path = Path(path)
    if fmt == "dot":
        lines = []
        if provenance:
            lines.append(f"// {provenance}")
        lines.append("digraph SIN {")
        lines.append(f"  // threshold={_fmt(float(g.threshold))}")
        for node in g.nodes:
            attrs = [f'group="{g.groups[node]}"']
            if node in g.size_values:
                attrs.append(f"size_value={_fmt(g.size_values[node])}")
            color = g.color_values.get(node)
            if color is not None:
                attrs.append(f"color_value={_fmt(color)}")
            lines.append(f'  "{node}" [{", ".join(attrs)}];')
        for src, dst, weight in g.edges:
            pen = 0.5 + 4.5 * weight
            lines.append(
                f'  "{src}" -> "{dst}" [weight={_fmt(weight)}, penwidth={_fmt(pen)}];'
            )
        lines.append("}")
        path.write_text("\n".join(lines) + "\n")
        return path
    if fmt == "graph-json":
        doc = {
            "schema": GRAPH_SCHEMA,
            "provenance": provenance,
            "threshold": float(g.threshold),
            "nodes": [
                {
                    "id": node,
                    "group": g.groups[node],
                    "size_value": g.size_values.get(node),
                    "color_value": g.color_values.get(node),
                }
                for node in g.nodes
            ],
            "edges": [
                {"source": src, "target": dst, "weight": weight}
                for src, dst, weight in g.edges
            ],
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return path
    raise ValueError(f"unknown graph format {fmt!r} (expected 'dot' or 'graph-json')")


def import_graph_json(path) -> tuple[SINGraph, str]:
    """Read a graph-JSON file back into a :class:`SINGraph` plus provenance."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != GRAPH_SCHEMA:
        raise ConfigurationError(
            f"{path}: unsupported graph schema {doc.get('schema')!r}"
        )
    nodes = tuple(n["id"] for n in doc["nodes"])
    groups = {n["id"]: n["group"] for n in doc["nodes"]}
    size_values = {
        n["id"]: float(n["size_value"]) for n in doc["nodes"] if n["size_value"] is not None
    }
    color_values = {
        n["id"]: (None if n["color_value"] is None else float(n["color_value"]))
        for n in doc["nodes"]
    }
    edges = tuple(
        (e["source"], e["target"], float(e["weight"])) for e in doc["edges"]
    )
    graph = SINGraph(
        nodes=nodes,
        groups=groups,
        size_values=size_values,
        color_values=color_values,
        edges=edges,
        threshold=float(doc["threshold"]),
    )
    return graph, doc.get("provenance", "")


# ---------------------------------------------------------------------------
# Tabular writers

def write_probabilities_csv(
    path, filtering: ProbabilitySeries, smoothing: ProbabilitySeries, provenance: str = ""
) -> Path:
    path = Path(path)
    lines = []
    if provenance:
        lines.append(f"# {provenance}")
    lines.append("date,filtering,smoothing")
    for ts, f, s in zip(filtering.timestamps, filtering.values, smoothing.values):
        lines.append(f"{ts},{_fmt(float(f))},{_fmt(float(s))}")
    path.write_text("\n".join(lines) + "\n")
    return path


def read_probabilities_csv(path, column: str = "filtering") -> ProbabilitySeries:
    lines = Path(path).read_text().splitlines()
    data = [n for n, line in enumerate(lines) if line and not line.startswith("#")]
    if not data:
        raise ConfigurationError(f"{path}: empty table")
    header = lines[data[0]].split(",")
    if column not in header:
        raise ConfigurationError(f"{path}: no column {column!r}")
    idx = header.index(column)
    rows = [lines[n].split(",") for n in data[1:]]
    dates = np.array([cells[0] for cells in rows], dtype="datetime64[D]")
    missing = np.flatnonzero(np.isnat(dates))
    if len(missing):
        raise ConfigurationError(f"{path}: missing date on line {data[1 + missing[0]] + 1}")
    values = np.array([float(cells[idx]) for cells in rows])
    return ProbabilitySeries(dates, values)


def write_matrix_csv(path, nodes, values, provenance: str = "") -> Path:
    path = Path(path)
    lines = []
    if provenance:
        lines.append(f"# {provenance}")
    lines.append("node," + ",".join(nodes))
    for name, row in zip(nodes, np.asarray(values, dtype=float)):
        lines.append(name + "," + ",".join(_fmt(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_matrix_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    header, rows = _read_rows(path)
    values = np.array([[float(v) for v in row[1:]] for row in rows], dtype=float)
    return tuple(header[1:]), values


def write_table_csv(path, header: list[str], rows: list[list], provenance: str = "") -> Path:
    path = Path(path)
    lines = []
    if provenance:
        lines.append(f"# {provenance}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    rows = [
        line for line in Path(path).read_text().splitlines()
        if line and not line.startswith("#")
    ]
    if not rows:
        raise ConfigurationError(f"{path}: empty table")
    return rows[0].split(","), [r.split(",") for r in rows[1:]]


def read_indicators_csv(path):
    """Read an indicator table written by the pipeline."""
    from .network import ALL_INDICATORS, IndicatorTable

    header, rows = _read_rows(path)
    if header[0] != "node":
        raise ConfigurationError(f"{path}: first column must be 'node'")
    nodes = tuple(r[0] for r in rows)
    values = {}
    for name in ALL_INDICATORS:
        if name not in header:
            raise ConfigurationError(f"{path}: missing indicator column {name!r}")
        idx = header.index(name)
        values[name] = np.array([float(r[idx]) for r in rows])
    return IndicatorTable(nodes, values)


def read_losses_csv(path) -> dict[str, float]:
    header, rows = _read_rows(path)
    if header[:2] != ["node", "max_loss_pct"]:
        raise ConfigurationError(f"{path}: expected columns node,max_loss_pct")
    return {r[0]: float(r[1]) for r in rows}


def read_groups_csv(path):
    """Read node-group assignments: node,group[,subsector] per line."""
    from .network import NodeGroup

    header, rows = _read_rows(path)
    if header[:2] != ["node", "group"]:
        raise ConfigurationError(f"{path}: expected columns node,group[,subsector]")
    groups = {}
    subsectors = {}
    for r in rows:
        groups[r[0]] = r[1]
        if len(r) > 2 and r[2]:
            subsectors[r[0]] = r[2]
    return NodeGroup(groups, subsectors)
