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
import re
from datetime import date
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .network import ALL_INDICATORS, FINANCIAL, INDUSTRIAL, IndicatorTable, NodeGroup, SINGraph
from .series import ProbabilitySeries

GRAPH_SCHEMA = "sin-graph/1"

DEFAULT_COLUMNS = {"date": "date", "price": "price", "market_cap": "market_cap"}


def format_value(x) -> str:
    """Full-precision decimal text for floats; ints and strings unchanged."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


# ---------------------------------------------------------------------------
# CSV ingestion
#
# Valid price and probabilities tables are read by numpy's C tokenizer
# (``_tokenized``), which gives up on any table it cannot prove valid.
# Every other table, and each one it gives up on, goes through the line
# reader ``_read_table`` row by row, with one ``float()`` or
# ``date.fromisoformat`` per cell. Each reader then lists its checks as row
# masks, in the order they rank within one line, and ``_Table.check`` fails
# the read at the first line any of them flags, with the highest-ranked
# check failing there: ``<path>: <what> on line <n>`` (1-based).

# date.fromisoformat only takes years from 1; datetime64[D] counts days
# from 1970-01-01 and writes NaT as the least int64
_FIRST_DAY = np.datetime64("0001-01-01")
_EPOCH, _NAT = date(1970, 1, 1).toordinal(), np.iinfo(np.int64).min
_YMD = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")  # a date as the pipeline writes it


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
        one line: ``mask`` flags the failing rows (it may stop short of the
        last row) and ``what`` is the message, or a function of the row that
        gives it.
        """
        failing = [(int(np.argmax(mask)), rank) for rank, (_, mask) in enumerate(checks)
                   if mask.any()]
        if failing:
            row, rank = min(failing)
            what = checks[rank][0]
            if callable(what):
                what = what(row)
            raise error(f"{self.path}: {what} on line {self.linenos[row]}")


def _read_table(path, price_file: bool = False) -> _Table:
    """Cut a CSV file, read as UTF-8 without a leading byte-order mark, into
    a header and data rows.

    Pipeline tables skip empty lines and lines starting with '#' and split
    on every comma. Price files honour csv quoting, strip the header names
    and skip rows whose cells are all blank; '#' has no special meaning.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig")
    if price_file:
        lines = text.split("\n")  # read_text() turns \r\n and \r into \n
        if lines[-1] == "":
            lines.pop()
        if not lines:
            raise ConfigurationError(f"{path}: empty file")
        lines = list(csv.reader(lines))
        header = [h.strip() for h in lines[0]]
        kept = [k for k, r in enumerate(lines) if k and "".join(r).strip()]
        rows = [lines[k] for k in kept]
    else:
        lines = text.splitlines()
        kept = [k for k, line in enumerate(lines) if line and line[0] != "#"]
        if not kept:
            raise ConfigurationError(f"{path}: empty table")
        header = lines[kept.pop(0)].split(",")
        rows = [lines[k].split(",") for k in kept]
    linenos = [k + 1 for k in kept]
    widths = [len(r) for r in rows]
    width = max(widths + [len(header)])
    pad = [""] * width
    cells = [c for r in rows for c in (r + pad)[:width]]
    return _Table(path, header, linenos, np.array(widths, dtype=int), cells, width)


def _float_column(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``float()`` of every cell, and a mask of the cells it rejects (NaN
    there)."""
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


def _days(cells) -> np.ndarray:
    """``date.fromisoformat`` of every cell as datetime64[D], NaT where it
    raises: a cell that is no ISO date, a day out of range or year 0."""
    days = []
    for cell in cells:
        try:
            days.append(date.fromisoformat(cell).toordinal() - _EPOCH)
        except ValueError:
            days.append(_NAT)
    return np.array(days, dtype=np.int64).view("datetime64[D]")


def _plain_dates(cells: list[str]) -> np.ndarray:
    """The day of every cell written YYYY-MM-DD in ASCII digits, from year
    1, NaT at every other cell."""
    return _days([cell if _YMD.fullmatch(cell) else "" for cell in cells])


def plain_date(text: str, what: str) -> np.datetime64:
    """``text`` as a day, by the YYYY-MM-DD rule of the table readers; a
    ConfigurationError naming ``what`` when it is not one."""
    day = _plain_dates([text])[0]
    if np.isnat(day):
        raise ConfigurationError(f"{what}: date {text!r} not in YYYY-MM-DD form")
    return day


# Characters that send a table to the line reader: the line breaks of
# str.splitlines() other than \n and \r (the line reader of pipeline tables
# splits on them, numpy's tokenizer does not, and its float parser strips
# them as whitespace), and NUL, at which numpy ends a cell it reads as bytes.
_REFUSED = "\x00\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# A YYYY-MM-DD cell as 11 bytes: byte k less _PLAIN_LOW[k] is at most
# _PLAIN_SPAN[k] (uint8 arithmetic takes a byte below its low above 200)
_PLAIN_LOW = np.frombuffer(b"0000-00-00\x00", np.uint8)
_PLAIN_SPAN = np.array([9, 9, 9, 9, 0, 9, 9, 0, 9, 9, 0], np.uint8)


def _tokenized(path: Path, date: Optional[str], columns: dict[str, str],
               price_file: bool = False) -> Optional[dict[str, np.ndarray]]:
    """A valid table as its reader returns it, read by numpy's C tokenizer;
    None when the line reader has to decide.

    The result holds ``dates``, from the column named ``date`` (the first
    column when it is None), and, as floats, the first of ``columns``
    (key: column name) and each later one the header has. Price files are
    sorted by date; pipeline tables must already be sorted. The header is
    the first line of a price file, its cells stripped, and the first line
    of a pipeline table neither empty nor a comment.

    The file is taken only when its suffix is ``.csv`` (numpy opens a
    ``.gz``, ``.bz2``, ``.xz`` or ``.lzma`` path through a decompressor),
    its text holds none of ``_REFUSED``, nor a quote in a price file (the
    line reader honours csv quoting there), it has data rows, and every
    date cell is YYYY-MM-DD in ASCII digits, from year 1, with no date
    repeated. numpy's tokenizer skips empty lines as the line reader does
    and fails on a row too short for a column. A '#' line below a pipeline
    table's header and a blank price row are not skipped: their date cell
    fails the YYYY-MM-DD proof. numpy's float parser reads a subset of what
    ``float()`` reads (no '_', no non-ASCII digits), to the same value.
    """
    if path.suffix != ".csv":
        return None
    try:
        text = path.read_bytes().decode("utf-8-sig")  # faster than read_text()
        if "\r" in text:  # \r\n and \r end a line, as read_text() reads them
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if any(c in text for c in _REFUSED) or price_file and '"' in text:
            return None
        end, skip = -1, 0
        while True:  # the header line
            start, end = end + 1, text.find("\n", end + 1)
            if end < 0:
                return None
            skip += 1
            if price_file or start < end and text[start] != "#":
                break
        header = text[start:end].split(",")
        if price_file:
            header = [h.strip() for h in header]
        first = next(iter(columns.values()))
        if (date is not None and date not in header or first not in header
                or len(text.rstrip()) <= end + 1):  # no data rows
            return None
        keys = [key for key, name in columns.items() if name in header]
        rows = np.loadtxt(path, delimiter=",", comments=None, skiprows=skip, ndmin=1,
                          encoding="utf-8-sig", dtype=",".join(["S11"] + ["f8"] * len(keys)),
                          usecols=[0 if date is None else header.index(date),
                                   *(header.index(columns[key]) for key in keys)])
        cells = rows["f0"].copy()
        if not (cells.view(np.uint8).reshape(-1, 11) - _PLAIN_LOW <= _PLAIN_SPAN).all():
            return None
        dates = cells.astype("datetime64[D]")  # ValueError: a month or day out of range
    except ValueError:  # UnicodeError too
        return None
    order = np.argsort(dates, kind="stable") if price_file else np.arange(len(dates))
    dates = dates[order]
    if dates[0] < _FIRST_DAY or (dates[1:] <= dates[:-1]).any():
        return None
    return {"dates": dates, **{key: rows[f"f{k}"][order] for k, key in enumerate(keys, 1)}}


def read_price_table(path, column_map=None) -> dict:
    """Read a (date, price[, market_cap]) CSV, sorted by date.

    Returns a dict with ``dates`` (datetime64[D]), ``prices`` and, when the
    mapped column exists, ``caps``. Dates are ISO dates as
    ``date.fromisoformat`` reads them. Prices and caps must be finite and
    positive. A bad row raises ValueError naming the first bad line, with
    the first check that fails on it, in the order unparseable date,
    duplicate date, unparseable price, non-finite price, non-positive
    price, then the same three for market_cap: the order in which a
    row-by-row reader would meet them.

    A table is read by numpy's C tokenizer first (``_tokenized``). The line
    reader reads it again when that read or its checks refuse it: a quote,
    a suffix other than ``.csv``, a date cell not YYYY-MM-DD in ASCII
    digits, a blank or short row, a cell numpy's float parser refuses, any
    failing check. It returns what it reads or names the bad line.
    """
    colmap = dict(DEFAULT_COLUMNS)
    if column_map:
        colmap.update(column_map)
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"price file {path} does not exist")
    columns = {"prices": colmap["price"], "caps": colmap["market_cap"]}
    out = _tokenized(path, colmap["date"], columns, price_file=True)
    if out is not None and all(((out[key] > 0) & (out[key] < np.inf)).all()
                               for key in ("prices", "caps") if key in out):
        return out

    table = _read_table(path, price_file=True)
    for field in ("date", "price"):
        if colmap[field] not in table.header:
            raise ConfigurationError(
                f"{path}: missing required column {colmap[field]!r} (maps {field})"
            )
    dates = _days([cell.strip() for cell in table.column(table.header.index(colmap["date"]))])
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
        checks.append((f"non-finite {field}", ~np.isfinite(values)))
        checks.append((f"non-positive {field}", values <= 0))
        out[key] = values[order]
    table.check(checks, ValueError)
    return out


# ---------------------------------------------------------------------------
# Key-value configuration files

def read_key_values(path) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    for lineno, raw in enumerate(lines, start=1):
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

def _dot_id(text: str) -> str:
    """``text`` as a quoted DOT id, with backslashes and double quotes
    escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_graph(g: SINGraph, fmt: str, path, provenance: str = "") -> Path:
    """Write a network to ``path`` as 'dot' or 'graph-json'. Returns the path."""
    path = Path(path)
    if fmt == "dot":
        lines = []
        if provenance:
            lines.append(f"// {provenance}")
        lines.append("digraph SIN {")
        lines.append(f"  // threshold={format_value(float(g.threshold))}")
        for node in g.nodes:
            attrs = [f"group={_dot_id(g.groups[node])}"]
            if node in g.size_values:
                attrs.append(f"size_value={format_value(g.size_values[node])}")
            color = g.color_values.get(node)
            if color is not None:
                attrs.append(f"color_value={format_value(color)}")
            lines.append(f'  {_dot_id(node)} [{", ".join(attrs)}];')
        for src, dst, weight in g.edges:
            pen = 0.5 + 4.5 * weight
            lines.append(f"  {_dot_id(src)} -> {_dot_id(dst)} "
                         f"[weight={format_value(weight)}, penwidth={format_value(pen)}];")
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


_NUMBER = (int, float)
_JSON_KINDS = {str: "a string", list: "a list", _NUMBER: "a number"}


def import_graph_json(path) -> tuple[SINGraph, str]:
    """Read a graph-JSON file back into a :class:`SINGraph` plus provenance.

    A file that is not such a graph raises ConfigurationError naming it:
    invalid JSON, a missing key, a value of the wrong type (a number is
    never a bool), a repeated node or an edge to a node it does not list.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"{path}: {err}") from None

    def get(obj, key, kind, where, nullable=False):
        if not isinstance(obj, dict):
            raise ConfigurationError(f"{path}: {where} is not an object")
        if key not in obj:
            raise ConfigurationError(f"{path}: {where} has no {key!r}")
        value = obj[key]
        if not (nullable and value is None
                or isinstance(value, kind) and not isinstance(value, bool)):
            raise ConfigurationError(f"{path}: {key!r} of {where} is not {_JSON_KINDS[kind]}")
        return value

    schema = get(doc, "schema", str, "the document")
    if schema != GRAPH_SCHEMA:
        raise ConfigurationError(f"{path}: unsupported graph schema {schema!r}")
    nodes, groups, size_values, color_values = [], {}, {}, {}
    for k, n in enumerate(get(doc, "nodes", list, "the document")):
        node = get(n, "id", str, f"nodes[{k}]")
        nodes.append(node)
        groups[node] = get(n, "group", str, f"nodes[{k}]")
        size = get(n, "size_value", _NUMBER, f"nodes[{k}]", nullable=True)
        if size is not None:
            size_values[node] = float(size)
        color = get(n, "color_value", _NUMBER, f"nodes[{k}]", nullable=True)
        color_values[node] = None if color is None else float(color)
    edges = tuple(
        (get(e, "source", str, f"edges[{k}]"), get(e, "target", str, f"edges[{k}]"),
         float(get(e, "weight", _NUMBER, f"edges[{k}]")))
        for k, e in enumerate(get(doc, "edges", list, "the document"))
    )
    threshold = float(get(doc, "threshold", _NUMBER, "the document"))
    provenance = get(doc, "provenance", str, "the document") if "provenance" in doc else ""
    try:
        graph = SINGraph(tuple(nodes), groups, size_values, color_values, edges, threshold)
    except ValueError as err:
        raise ConfigurationError(f"{path}: {err}") from None
    return graph, provenance


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
    """One row per date of the two series, which must be on the same dates."""
    dates, other = filtering.timestamps, smoothing.timestamps
    if len(dates) != len(other):
        raise ValueError(
            f"filtering has {len(dates)} rows and smoothing {len(other)}: they must be equal")
    differ = np.flatnonzero(dates != other)
    if differ.size:
        k = differ[0]
        raise ValueError(f"filtering and smoothing dates differ at row {k + 1}: "
                         f"{dates[k]} and {other[k]}")
    return _write_csv(path, ["date", "filtering", "smoothing"], map(
        "{},{!r},{!r}".format,
        np.datetime_as_string(filtering.timestamps).tolist(),
        filtering.values.tolist(),
        smoothing.values.tolist(),
    ), provenance)


def read_probabilities_csv(path, column: str = "filtering") -> ProbabilitySeries:
    """Read one probability column of a table written by
    :func:`write_probabilities_csv`.

    Dates are in the first column, as YYYY-MM-DD and strictly increasing;
    numpy alone would also read ``2006-02`` as 2006-02-01. A bad row raises
    ConfigurationError naming the first bad line, with the first check that
    fails on it, in the order unparseable, missing or not-YYYY-MM-DD date,
    duplicate or unsorted date, missing or unparseable probability,
    probability outside [0, 1] (NaN included).

    A table is read by numpy's C tokenizer first (``_tokenized``); only when
    that read or its checks refuse the file does the line reader read it
    again, to return what it reads or to name the bad line.
    """
    fast = _tokenized(Path(path), None, {"values": column})
    if fast is not None and ((fast["values"] >= 0.0) & (fast["values"] <= 1.0)).all():
        return ProbabilitySeries(fast["dates"], fast["values"])
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
        if _YMD.fullmatch(cells[row]):  # year 0
            return "unparseable date"
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
    return _write_csv(path, header, (",".join(map(format_value, row)) for row in rows), provenance)


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
    """Read node-group assignments: node,group per line (later columns are
    ignored). A bad row raises ConfigurationError naming the first bad line:
    a duplicate node, then a missing group, then a group other than
    industrial and financial."""
    table = _read_table(path)
    if table.header[:2] != ["node", "group"]:
        raise ConfigurationError(f"{path}: expected columns node,group")
    labels = table.column(1)
    table.check([_repeated_nodes(table), ("missing group", table.widths < 2),
                 (lambda row: f"unknown group {labels[row]!r}",
                  ~np.isin(labels, [INDUSTRIAL, FINANCIAL]))])
    return NodeGroup(dict(zip(table.column(0), labels)))
