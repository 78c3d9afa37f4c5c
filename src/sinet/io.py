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
from itertools import repeat
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

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
#
# Every table reader goes through ``_read_table``: the file is read once, all
# data rows are cut into cells in one ``split``, and each column a reader
# needs is converted by one numpy call. Checks are vectorised masks; only
# when one fires is the offending column scanned, to name the first bad
# line. Bad cells fail with ``<path>: <what> on line <n>`` (1-based).

# date.fromisoformat only takes years 1 to 9999
_FIRST_DAY, _LAST_DAY = np.datetime64("0001-01-01"), np.datetime64("9999-12-31")


class _Table(NamedTuple):
    """The data rows of a CSV file, cut into cells.

    ``cells`` holds the rows one after another, each padded with "" to
    ``width`` cells (at least the header's width); ``widths`` is each row's
    own cell count and ``linenos`` its 1-based line number.
    """

    path: Path
    header: list[str]
    linenos: Sequence[int]
    widths: list[int]
    cells: list[str]
    width: int

    def column(self, j: int) -> list[str]:
        return self.cells[j :: self.width]

    def fail(self, row: int, what: str) -> ConfigurationError:
        return ConfigurationError(f"{self.path}: {what} on line {self.linenos[row]}")


def _read_table(path, price_file: bool = False) -> _Table:
    """Cut a CSV file into a header and data rows.

    Pipeline tables skip empty lines and lines starting with '#' and split
    on every comma. Price files honour csv quoting, strip the header names
    and skip rows whose cells are all blank; '#' has no special meaning.
    """
    path = Path(path)
    text = path.read_text()
    quoted = price_file and '"' in text
    if price_file:
        lines = text.split("\n")  # read_text() turns \r\n and \r into \n
        if lines[-1] == "":
            lines.pop()
        if not lines:
            raise ConfigurationError(f"{path}: empty file")
        if quoted:
            lines = list(csv.reader(lines))
            rows = [r for r in lines[1:] if any(c.strip() for c in r)]
            header = [h.strip() for h in lines[0]]
        else:
            rows = [r for r in lines[1:] if r.replace(",", "").strip()]
            header = [h.strip() for h in lines[0].split(",")]
        first = 0
    else:
        lines = text.splitlines()
        rows = [line for line in lines if line and line[0] != "#"]
        if not rows:
            raise ConfigurationError(f"{path}: empty table")
        first = lines.index(rows[0])
        header = rows.pop(0).split(",")
    linenos = range(first + 2, first + 2 + len(rows))
    if len(lines) > first + 1 + len(rows):  # skipped lines among the rows
        linenos, k = [], first + 1
        for row in rows:
            while lines[k] != row:
                k += 1
            k += 1
            linenos.append(k)

    if rows and not quoted:
        commas = list(map(str.count, rows, repeat(",")))
        width = commas[0] + 1
        if commas.count(width - 1) == len(rows) and width >= len(header):
            cells = ",".join(rows).split(",")
            return _Table(path, header, linenos, [width] * len(rows), cells, width)
        rows = [r.split(",") for r in rows]
    widths = [len(r) for r in rows]
    width = max(widths + [len(header)])
    pad = [""] * width
    cells = [c for r in rows for c in (r + pad)[:width]]
    return _Table(path, header, linenos, widths, cells, width)


def _float_column(cells: list[str]) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """``float()`` of every cell, and a mask of the cells it rejects (NaN
    there); the mask is None when every cell parses."""
    try:
        return np.fromiter(map(float, cells), float, len(cells)), None
    except ValueError:
        values = np.full(len(cells), np.nan)
        bad = np.zeros(len(cells), dtype=bool)
        for k, cell in enumerate(cells):
            try:
                values[k] = float(cell)
            except ValueError:
                bad[k] = True
        return values, bad


def _float_columns(table: _Table, columns) -> list[np.ndarray]:
    """The given columns as floats; the first bad cell in file order (the
    leftmost on its line) fails the read."""
    out, bad = [], []
    for j in columns:
        values, mask = _float_column(table.column(j))
        out.append(values)
        if mask is not None:
            bad.append((int(np.argmax(mask)), j))
    if bad:
        row, j = min(bad)
        what = "missing" if table.widths[row] <= j else "unparseable"
        raise table.fail(row, f"{what} {table.header[j]}")
    return out


def _iso_dates(cells: list[str]) -> np.ndarray:
    """``date.fromisoformat(cell.strip())`` of every cell as datetime64[D],
    NaT where it fails. numpy parses the whole column; only the cells that
    are not already YYYY-MM-DD in years 1 to 9999 go through
    ``fromisoformat``.
    """
    try:
        dates = np.array(cells, dtype="datetime64[D]")
        plain = (dates >= _FIRST_DAY) & (dates <= _LAST_DAY)
        plain &= np.datetime_as_string(dates) == np.array(cells, dtype=str)
    except (ValueError, OverflowError):
        dates = np.full(len(cells), np.datetime64("NaT", "D"))
        plain = np.zeros(len(cells), dtype=bool)
    for k in np.flatnonzero(~plain):
        try:
            dates[k] = date.fromisoformat(cells[k].strip())
        except ValueError:
            dates[k] = np.datetime64("NaT")
    return dates


def read_price_table(path, column_map=None) -> dict:
    """Read a (date, price[, market_cap]) CSV, sorted by date.

    Returns a dict with ``dates`` (datetime64[D]), ``prices`` and, when the
    mapped column exists, ``caps``. Dates are ISO dates as
    ``date.fromisoformat`` reads them; prices and caps must be finite and
    positive. A bad row raises ValueError naming its 1-based line: the first
    one in the file, with the first failing check on it, in the order
    unparseable date, duplicate date, unparseable or non-positive price,
    then market_cap.
    """
    colmap = dict(DEFAULT_COLUMNS)
    if column_map:
        colmap.update(column_map)
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"price file {path} does not exist")

    table = _read_table(path, price_file=True)
    for field in ("date", "price"):
        if colmap[field] not in table.header:
            raise ConfigurationError(
                f"{path}: missing required column {colmap[field]!r} (maps {field})"
            )
    dates = _iso_dates(table.column(table.header.index(colmap["date"])))
    order = np.argsort(dates, kind="stable")
    repeated = np.zeros(len(dates), dtype=bool)
    repeated[order[1:]] = dates[order[1:]] == dates[order[:-1]]

    checks = [("unparseable date", np.isnat(dates)), ("duplicate date", repeated)]
    out = {"dates": dates[order]}
    for field, key in (("price", "prices"), ("market_cap", "caps")):
        if colmap[field] not in table.header:
            continue
        values, unparseable = _float_column(table.column(table.header.index(colmap[field])))
        checks.append((f"unparseable {field}", unparseable))
        checks.append((f"non-positive {field}", ~(np.isfinite(values) & (values > 0))))
        out[key] = values[order]
    failing = [(int(np.argmax(m)), i) for i, (_, m) in enumerate(checks)
               if m is not None and m.any()]
    if failing:
        row, i = min(failing)
        what = checks[i][0] + (f" {dates[row]}" if i == 1 else "")
        raise ValueError(f"{path}: {what} on line {table.linenos[row]}")
    return out


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
    lines.extend(map(
        "{},{!r},{!r}".format,
        np.datetime_as_string(filtering.timestamps).tolist(),
        filtering.values.tolist(),
        smoothing.values.tolist(),
    ))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_probabilities_csv(path, column: str = "filtering") -> ProbabilitySeries:
    """Read one probability column of a table written by
    :func:`write_probabilities_csv`; dates are in the first column."""
    table = _read_table(path)
    if column not in table.header:
        raise ConfigurationError(f"{path}: no column {column!r}")
    cells = table.column(0)
    try:
        dates = np.array(cells, dtype="datetime64[D]")
    except ValueError:
        for row, cell in enumerate(cells):
            try:
                np.array([cell], dtype="datetime64[D]")
            except ValueError:
                raise table.fail(row, "unparseable date") from None
        raise
    missing = np.flatnonzero(np.isnat(dates))
    if len(missing):
        raise table.fail(missing[0], "missing date")
    (values,) = _float_columns(table, [table.header.index(column)])
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
    table = _read_table(path)
    width = len(table.header)
    for row, cells in enumerate(table.widths):
        if cells != width:
            raise table.fail(row, f"{cells} cells where the header has {width}")
    values = _float_columns(table, range(1, width))
    matrix = np.column_stack(values) if values else np.empty((len(table.linenos), 0))
    return tuple(table.header[1:]), matrix


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


def read_indicators_csv(path):
    """Read an indicator table written by the pipeline."""
    from .network import ALL_INDICATORS, IndicatorTable

    table = _read_table(path)
    if table.header[0] != "node":
        raise ConfigurationError(f"{path}: first column must be 'node'")
    for name in ALL_INDICATORS:
        if name not in table.header:
            raise ConfigurationError(f"{path}: missing indicator column {name!r}")
    values = _float_columns(table, [table.header.index(name) for name in ALL_INDICATORS])
    return IndicatorTable(tuple(table.column(0)), dict(zip(ALL_INDICATORS, values)))


def read_losses_csv(path) -> dict[str, float]:
    table = _read_table(path)
    if table.header[:2] != ["node", "max_loss_pct"]:
        raise ConfigurationError(f"{path}: expected columns node,max_loss_pct")
    (losses,) = _float_columns(table, [1])
    return dict(zip(table.column(0), losses.tolist()))


def read_groups_csv(path):
    """Read node-group assignments: node,group[,subsector] per line."""
    from .network import NodeGroup

    table = _read_table(path)
    if table.header[:2] != ["node", "group"]:
        raise ConfigurationError(f"{path}: expected columns node,group[,subsector]")
    for row, cells in enumerate(table.widths):
        if cells < 2:
            raise table.fail(row, "missing group")
    nodes = table.column(0)
    groups = dict(zip(nodes, table.column(1)))
    subsectors = {}
    if table.width > 2:
        subsectors = {node: sub for node, sub in zip(nodes, table.column(2)) if sub}
    return NodeGroup(groups, subsectors)
