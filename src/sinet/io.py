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
from .network import ALL_INDICATORS, FINANCIAL, INDUSTRIAL, IndicatorTable, NodeGroup, SINGraph
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
# Every table reader goes through ``_read_table`` (the probabilities reader
# only when numpy's tokenizer refuses a file): the file is read once, all
# data rows are cut into cells in one ``split``, and each column a reader
# needs is converted by one numpy call. Each reader then lists its checks as
# row masks, in the order they rank within one line, and ``_Table.check``
# fails the read at the first line any of them flags, with the
# highest-ranked check failing there: ``<path>: <what> on line <n>``
# (1-based).

# date.fromisoformat only takes years from 1
_FIRST_DAY = np.datetime64("0001-01-01")


class _Table(NamedTuple):
    """The data rows of a CSV file, cut into cells.

    ``cells`` holds the rows one after another, each padded with "" to
    ``width`` cells (at least the header's width); ``widths`` is each row's
    own cell count and ``linenos`` its 1-based line number.
    """

    path: Path
    header: list[str]
    linenos: Sequence[int]
    widths: np.ndarray
    cells: list[str]
    width: int

    def column(self, j: int) -> list[str]:
        return self.cells[j :: self.width]

    def check(self, checks, error=ConfigurationError) -> None:
        """Raise ``error`` for the first line any check flags, naming the
        first of ``checks`` that flags it.

        ``checks`` are ``(what, mask)`` pairs in the order they rank within
        one line: ``mask`` flags the failing rows (None when none fails; it
        may stop short of the last row) and ``what`` is the message, or a
        function of the row that gives it.
        """
        failing = [(int(np.argmax(mask)), rank) for rank, (_, mask) in enumerate(checks)
                   if mask is not None and mask.any()]
        if failing:
            row, rank = min(failing)
            what = checks[rank][0]
            if callable(what):
                what = what(row)
            raise error(f"{self.path}: {what} on line {self.linenos[row]}")


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
            return _Table(path, header, linenos, np.full(len(rows), width), cells, width)
        rows = [r.split(",") for r in rows]
    widths = [len(r) for r in rows]
    width = max(widths + [len(header)])
    pad = [""] * width
    cells = [c for r in rows for c in (r + pad)[:width]]
    return _Table(path, header, linenos, np.array(widths, dtype=int), cells, width)


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


def _numbers(table: _Table, columns) -> tuple[list[np.ndarray], list]:
    """The given columns of a pipeline table as floats, and their checks in
    line order: ``missing <column>`` where a row is too short to have the
    cell, then ``unparseable <column>`` where ``float()`` rejects it."""
    parsed = {j: _float_column(table.column(j)) for j in sorted(columns)}
    checks = []
    for j, (_, bad) in parsed.items():
        if bad is not None:
            checks.append((f"missing {table.header[j]}", table.widths <= j))
            checks.append((f"unparseable {table.header[j]}", bad))
    return [parsed[j][0] for j in columns], checks


def _repeated_nodes(table: _Table) -> tuple:
    """The check ``duplicate node <name>`` on the first column: it flags each
    row whose node an earlier row already names."""
    nodes = table.column(0)
    repeated = np.ones(len(nodes), dtype=bool)
    repeated[np.unique(nodes, return_index=True)[1]] = False
    return (lambda row: f"duplicate node {nodes[row]!r}", repeated)


def _non_finite(table: _Table, columns, values: np.ndarray) -> tuple:
    """The check ``non-finite <column>`` on the parsed ``columns``, one per
    column of ``values``: it flags each row holding a NaN or an infinity,
    naming the leftmost such column."""
    bad = ~np.isfinite(values)
    return (lambda row: f"non-finite {table.header[columns[int(np.argmax(bad[row]))]]}",
            bad.any(axis=1))


def _plain(text: str, n: int) -> bool:
    """Whether ``text`` is ``n`` DDDD-DD-DD cells joined by commas: a comma
    after every 10 characters, dashes at offsets 4 and 7 and 8n ASCII digits
    around them."""
    digits = text.encode().translate(None, b",-")
    return (len(text) == 11 * n - 1 and text[10::11] == "," * (n - 1)
            and text[4::11] == "-" * n and text[7::11] == "-" * n
            and len(digits) == 8 * n and digits.isdigit())


def _plain_dates(cells: list[str]) -> np.ndarray:
    """numpy's datetime64[D] of every cell written YYYY-MM-DD, NaT at every
    other cell.

    A test on the joined text proves every cell plain, and numpy parses the
    whole column in one call; the cells are looked at one by one only when
    either step fails.
    """
    if cells and _plain(",".join(cells), len(cells)):
        try:
            return np.array(cells, dtype="datetime64[D]")
        except ValueError:  # a month or day out of range
            pass
    dates = np.full(len(cells), np.datetime64("NaT"), dtype="datetime64[D]")
    for k, cell in enumerate(cells):
        if _plain(cell, 1):
            try:
                dates[k] = np.datetime64(cell, "D")
            except ValueError:
                pass
    return dates


def plain_date(text: str, what: str) -> np.datetime64:
    """``text`` as a day, by the YYYY-MM-DD rule of the table readers; a
    ConfigurationError naming ``what`` when it is not one."""
    day = _plain_dates([text])[0]
    if np.isnat(day):
        raise ConfigurationError(f"{what}: date {text!r} not in YYYY-MM-DD form")
    return day


def read_price_table(path, column_map=None) -> dict:
    """Read a (date, price[, market_cap]) CSV, sorted by date.

    Returns a dict with ``dates`` (datetime64[D]), ``prices`` and, when the
    mapped column exists, ``caps``. Dates are ISO dates as
    ``date.fromisoformat`` reads them: plain YYYY-MM-DD cells are parsed by
    numpy in one call, the rest one by one. Prices and caps must be finite
    and positive. A bad row raises ValueError naming the first bad line,
    with the first check that fails on it, in the order unparseable date,
    duplicate date, unparseable price, non-positive price, unparseable
    market_cap, non-positive market_cap: the order in which a row-by-row
    reader would meet them.
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
    cells = table.column(table.header.index(colmap["date"]))
    dates = _plain_dates(cells)
    for k in np.flatnonzero(~(dates >= _FIRST_DAY)):  # NaT or year 0
        try:
            dates[k] = date.fromisoformat(cells[k].strip())
        except ValueError:
            dates[k] = np.datetime64("NaT")
    order = np.argsort(dates, kind="stable")
    repeated = np.zeros(len(dates), dtype=bool)
    repeated[order[1:]] = dates[order[1:]] == dates[order[:-1]]

    checks = [("unparseable date", np.isnat(dates)),
              (lambda row: f"duplicate date {dates[row]}", repeated)]
    out = {"dates": dates[order]}
    for field, key in (("price", "prices"), ("market_cap", "caps")):
        if colmap[field] not in table.header:
            continue
        values, unparseable = _float_column(table.column(table.header.index(colmap[field])))
        checks.append((f"unparseable {field}", unparseable))
        checks.append((f"non-positive {field}", ~(np.isfinite(values) & (values > 0))))
        out[key] = values[order]
    table.check(checks, ValueError)
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

def _write_csv(path, header: list[str], rows, provenance: str) -> Path:
    """Write an optional ``# provenance`` line, the header and the rows,
    each already joined by commas."""
    path = Path(path)
    lines = [f"# {provenance}"] if provenance else []
    lines.append(",".join(header))
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_probabilities_csv(
    path, filtering: ProbabilitySeries, smoothing: ProbabilitySeries, provenance: str = ""
) -> Path:
    return _write_csv(path, ["date", "filtering", "smoothing"], map(
        "{},{!r},{!r}".format,
        np.datetime_as_string(filtering.timestamps).tolist(),
        filtering.values.tolist(),
        smoothing.values.tolist(),
    ), provenance)


# The line breaks of str.splitlines() other than \n and \r: the line reader
# splits on them, numpy's tokenizer does not, and its float parser strips
# them as whitespace.
_OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _loadtxt_probabilities(path: Path, column: str) -> Optional[ProbabilitySeries]:
    """What :func:`read_probabilities_csv` returns for a valid table, read
    by numpy's C tokenizer; None when the line reader has to decide.

    The file is taken only when its suffix is ``.csv`` (numpy opens a
    ``.gz``, ``.bz2``, ``.xz`` or ``.lzma`` path through a decompressor),
    it splits into the line reader's lines (none of
    ``_OTHER_LINE_BREAKS``) and it has data rows. '#' lines below the
    header are not skipped: their date cell fails the YYYY-MM-DD proof.
    numpy's float parser reads a subset of what ``float()`` reads (no '_',
    no non-ASCII digits), to the same value.
    """
    if path.suffix != ".csv":
        return None
    text = path.read_text()
    if any(c in text for c in _OTHER_LINE_BREAKS):
        return None
    end, skip = -1, 0
    while True:  # the header is the first line neither empty nor a comment
        start, end = end + 1, text.find("\n", end + 1)
        if end < 0:
            return None
        skip += 1
        if start < end and text[start] != "#":
            break
    header = text[start:end].split(",")
    if column not in header or not text[end + 1:].strip():
        return None
    try:
        rows = np.loadtxt(path, delimiter=",", comments=None, skiprows=skip,
                          usecols=(0, header.index(column)), ndmin=1,
                          dtype=[("d", "U11"), ("p", float)])
    except ValueError:
        return None
    dates = _plain_dates(rows["d"].tolist())  # U11: a longer cell is not plain
    values = rows["p"].copy()
    if (np.isnat(dates).any() or (dates[1:] <= dates[:-1]).any()
            or not ((values >= 0.0) & (values <= 1.0)).all()):
        return None
    return ProbabilitySeries(dates, values)


def read_probabilities_csv(path, column: str = "filtering") -> ProbabilitySeries:
    """Read one probability column of a table written by
    :func:`write_probabilities_csv`.

    Dates are in the first column, as YYYY-MM-DD and strictly increasing;
    numpy alone would also read ``2006-02`` as 2006-02-01. A bad row raises
    ConfigurationError naming the first bad line, with the first check that
    fails on it, in the order unparseable, missing or not-YYYY-MM-DD date,
    duplicate or unsorted date, missing or unparseable probability,
    probability outside [0, 1] (NaN included).

    A table is read by numpy's C tokenizer first; only when that read or
    its checks refuse the file does the line reader read it again, to
    return what it reads or to name the bad line.
    """
    series = _loadtxt_probabilities(Path(path), column)
    if series is not None:
        return series
    table = _read_table(path)
    if column not in table.header:
        raise ConfigurationError(f"{path}: no column {column!r}")
    cells = table.column(0)
    dates = _plain_dates(cells)
    backward = np.zeros(len(dates), dtype=bool)
    backward[1:] = dates[1:] <= dates[:-1]

    def not_plain(row):
        try:
            day = np.datetime64(cells[row], "D")
        except ValueError:
            return "unparseable date"
        if np.isnat(day):
            return "missing date"
        return f"date {cells[row]!r} not in YYYY-MM-DD form"

    def not_after(row):
        what = "duplicate" if dates[row] == dates[row - 1] else "unsorted"
        return f"{what} date {dates[row]}"

    (values,), checks = _numbers(table, [table.header.index(column)])
    table.check([(not_plain, np.isnat(dates)), (not_after, backward), *checks,
                 ("probability outside [0, 1]", ~((values >= 0.0) & (values <= 1.0)))])
    return ProbabilitySeries(dates, values)


def write_matrix_csv(path, nodes, values, provenance: str = "") -> Path:
    rows = np.asarray(values, dtype=float).tolist()
    return _write_csv(path, ["node", *nodes], (
        ",".join([name, *map(repr, row)]) for name, row in zip(nodes, rows)
    ), provenance)


def read_matrix_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a matrix written by :func:`write_matrix_csv`. A bad row raises
    ConfigurationError naming the first bad line, with the first check that
    fails on it, in the order cell count, row label (the header's node at
    that position; a row past the last node has none), leftmost missing or
    unparseable value, leftmost non-finite value, nonzero diagonal. A
    matrix with fewer rows than nodes raises after that; a header that
    names a node twice raises before any row check."""
    table = _read_table(path)
    width = len(table.header)
    labels, nodes = table.column(0), table.header[1:]
    if len(set(nodes)) < len(nodes):
        twice = next(node for k, node in enumerate(nodes) if node in nodes[:k])
        raise ConfigurationError(f"{path}: duplicate node {twice!r} in the header")
    columns = range(1, width)
    values, checks = _numbers(table, columns)
    matrix = np.column_stack(values) if values else np.empty((len(labels), 0))
    diagonal = np.arange(min(len(labels), len(nodes)))
    mislabelled = np.ones(len(labels), dtype=bool)
    mislabelled[:len(nodes)] = np.fromiter(map(str.__ne__, labels, nodes), dtype=bool)

    def wrong_label(row):
        has = repr(nodes[row]) if row < len(nodes) else "no node"
        return f"row {labels[row]!r} where the header has {has}"

    table.check([
        (lambda row: f"{table.widths[row]} cells where the header has {width}",
         table.widths != width),
        (wrong_label, mislabelled),
        *checks,
        _non_finite(table, columns, matrix),
        ("nonzero diagonal", matrix[diagonal, diagonal] != 0.0),
    ])
    if len(labels) < len(nodes):
        raise ConfigurationError(
            f"{path}: {len(labels)} rows where the header has {len(nodes)} nodes")
    return tuple(nodes), matrix


def write_table_csv(path, header: list[str], rows: list[list], provenance: str = "") -> Path:
    return _write_csv(path, header, (",".join(map(_fmt, row)) for row in rows), provenance)


def read_indicators_csv(path):
    """Read an indicator table written by the pipeline. A bad row raises
    ConfigurationError naming the first bad line: a duplicate node, then the
    leftmost missing or unparseable value, then the leftmost non-finite
    one."""
    table = _read_table(path)
    if table.header[0] != "node":
        raise ConfigurationError(f"{path}: first column must be 'node'")
    for name in ALL_INDICATORS:
        if name not in table.header:
            raise ConfigurationError(f"{path}: missing indicator column {name!r}")
    columns = [table.header.index(name) for name in ALL_INDICATORS]
    values, checks = _numbers(table, columns)
    table.check([_repeated_nodes(table), *checks,
                 _non_finite(table, columns, np.column_stack(values))])
    return IndicatorTable(tuple(table.column(0)), dict(zip(ALL_INDICATORS, values)))


def read_losses_csv(path) -> dict[str, float]:
    """Read node,max_loss_pct rows. A bad row raises ConfigurationError
    naming the first bad line: a duplicate node, then a missing, unparseable
    or non-finite loss."""
    table = _read_table(path)
    if table.header[:2] != ["node", "max_loss_pct"]:
        raise ConfigurationError(f"{path}: expected columns node,max_loss_pct")
    (losses,), checks = _numbers(table, [1])
    table.check([_repeated_nodes(table), *checks, _non_finite(table, [1], losses[:, None])])
    return dict(zip(table.column(0), losses.tolist()))


def read_groups_csv(path):
    """Read node-group assignments: node,group[,subsector] per line. A bad
    row raises ConfigurationError naming the first bad line: a duplicate
    node, then a missing group, then a group other than industrial and
    financial."""
    table = _read_table(path)
    if table.header[:2] != ["node", "group"]:
        raise ConfigurationError(f"{path}: expected columns node,group[,subsector]")
    labels = table.column(1)
    table.check([_repeated_nodes(table), ("missing group", table.widths < 2),
                 (lambda row: f"unknown group {labels[row]!r}",
                  ~np.isin(labels, [INDUSTRIAL, FINANCIAL]))])
    nodes = table.column(0)
    groups = dict(zip(nodes, labels))
    subsectors = {}
    if table.width > 2:
        subsectors = {node: sub for node, sub in zip(nodes, table.column(2)) if sub}
    return NodeGroup(groups, subsectors)
