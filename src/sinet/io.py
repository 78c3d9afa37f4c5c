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
import math
import re
from datetime import date
from pathlib import Path
from typing import Optional

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
# reader ``_read_table``, which cuts it into rows. Each reader then checks
# the rows one at a time, in file order, with one ``float()`` or
# ``date.fromisoformat`` per cell it needs, and fails the read at the first
# check that fails: ``<path>: <what> on line <n>`` (1-based).

_FIRST_DAY = np.datetime64("0001-01-01")  # date.fromisoformat only takes years from 1
_EPOCH = date(1970, 1, 1).toordinal()  # datetime64[D] counts days from 1970-01-01
_YMD = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")  # a date as the pipeline writes it


def read_bytes(path) -> bytes:
    """The bytes of an input file; a ConfigurationError when ``path`` does
    not exist or is a directory. Every reader of an input goes through it."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise ConfigurationError(f"{path} does not exist") from None
    except IsADirectoryError:
        raise ConfigurationError(f"{path} is not a file") from None


def _read_text(path) -> str:
    """The text of an input file: UTF-8 without a leading byte-order mark,
    with \\r\\n and \\r read as \\n."""
    text = read_bytes(path).decode("utf-8-sig")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_table(path, price_file: bool = False) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Cut a CSV file, read as UTF-8 without a leading byte-order mark, into
    a header and data rows, each with its 1-based line number.

    Pipeline tables skip empty lines and lines starting with '#' and split
    on every comma. Price files honour csv quoting, strip the header names
    and skip rows whose cells are all blank; '#' has no special meaning.
    """
    path = Path(path)
    text = _read_text(path)
    if price_file:
        lines = text.split("\n")  # _read_text turns \r\n and \r into \n
        if lines[-1] == "":
            lines.pop()
        if not lines:
            raise ConfigurationError(f"{path}: empty file")
        lines = list(csv.reader(lines))
        header = [h.strip() for h in lines[0]]
        rows = [(k + 1, r) for k, r in enumerate(lines) if k and "".join(r).strip()]
    else:
        rows = [(k + 1, line.split(",")) for k, line in enumerate(text.splitlines())
                if line and line[0] != "#"]
        if not rows:
            raise ConfigurationError(f"{path}: empty table")
        header = rows.pop(0)[1]
    return header, rows


def _bad_line(path, lineno: int, what: str, error=ConfigurationError) -> Exception:
    return error(f"{Path(path)}: {what} on line {lineno}")


def _finite_cells(path, header: list[str], lineno: int, cells: list[str],
                  columns) -> list[float]:
    """``float()`` of the cells of one row at ``columns``, which are in file
    order; fails at the leftmost missing or unparseable cell, then at the
    leftmost non-finite one (``non-finite <column>``)."""
    values = []
    for j in columns:
        if len(cells) <= j:
            raise _bad_line(path, lineno, f"missing {header[j]}")
        try:
            values.append(float(cells[j]))
        except ValueError:
            raise _bad_line(path, lineno, f"unparseable {header[j]}") from None
    for j, value in zip(columns, values):
        if not math.isfinite(value):
            raise _bad_line(path, lineno, f"non-finite {header[j]}")
    return values


def _plain_day(cell: str) -> Optional[int]:
    """The day number of a cell written YYYY-MM-DD in ASCII digits, from
    year 1, counted from 1970-01-01; None for any other cell."""
    try:
        return date.fromisoformat(cell).toordinal() - _EPOCH if _YMD.fullmatch(cell) else None
    except ValueError:  # a month or day out of range, year 0
        return None


def plain_date(text: str, what: str) -> np.datetime64:
    """``text`` as a day, by the YYYY-MM-DD rule of the table readers; a
    ConfigurationError naming ``what`` when it is not one."""
    day = _plain_day(text)
    if day is None:
        raise ConfigurationError(f"{what}: date {text!r} not in YYYY-MM-DD form")
    return np.datetime64(day, "D")


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
    text = _read_text(path)
    try:
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
    except ValueError:
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
    price, then the same three for market_cap.

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
    columns = {"prices": colmap["price"], "caps": colmap["market_cap"]}
    out = _tokenized(path, colmap["date"], columns, price_file=True)
    if out is not None and all(((out[key] > 0) & (out[key] < np.inf)).all()
                               for key in ("prices", "caps") if key in out):
        return out

    header, rows = _read_table(path, price_file=True)
    for field in ("date", "price"):
        if colmap[field] not in header:
            raise ConfigurationError(
                f"{path}: missing required column {colmap[field]!r} (maps {field})"
            )
    d = header.index(colmap["date"])
    fields = [(field, key, header.index(colmap[field]), [])
              for field, key in (("price", "prices"), ("market_cap", "caps"))
              if colmap[field] in header]
    days, seen = [], set()
    for lineno, cells in rows:
        try:
            day = date.fromisoformat(cells[d].strip())
        except (ValueError, IndexError):
            raise _bad_line(path, lineno, "unparseable date", ValueError) from None
        if day in seen:
            raise _bad_line(path, lineno, f"duplicate date {day}", ValueError)
        seen.add(day)
        days.append(day.toordinal() - _EPOCH)
        for field, _, j, values in fields:
            try:
                value = float(cells[j])
            except (ValueError, IndexError):
                raise _bad_line(path, lineno, f"unparseable {field}", ValueError) from None
            if not math.isfinite(value):
                raise _bad_line(path, lineno, f"non-finite {field}", ValueError)
            if value <= 0:
                raise _bad_line(path, lineno, f"non-positive {field}", ValueError)
            values.append(value)
    dates = np.array(days, dtype=np.int64).view("datetime64[D]")
    order = np.argsort(dates, kind="stable")
    return {"dates": dates[order],
            **{key: np.array(values, dtype=float)[order] for _, key, _, values in fields}}


# ---------------------------------------------------------------------------
# Key-value configuration files

def read_key_values(path) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    lines = _read_text(path).splitlines()
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
        doc = json.loads(_read_text(path))
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
    header, rows = _read_table(path)
    if column not in header:
        raise ConfigurationError(f"{path}: no column {column!r}")
    j = header.index(column)
    days, values = [], []
    for lineno, cells in rows:
        day = _plain_day(cells[0])
        if day is None:
            try:
                what = ("missing date" if np.isnat(np.datetime64(cells[0], "D"))
                        else "unparseable date" if _YMD.fullmatch(cells[0])  # year 0
                        else f"date {cells[0]!r} not in YYYY-MM-DD form")
            except ValueError:
                what = "unparseable date"
            raise _bad_line(path, lineno, what)
        if days and day <= days[-1]:
            what = "duplicate" if day == days[-1] else "unsorted"
            raise _bad_line(path, lineno, f"{what} date {cells[0]}")
        if len(cells) <= j:
            raise _bad_line(path, lineno, f"missing {column}")
        try:
            value = float(cells[j])
        except ValueError:
            raise _bad_line(path, lineno, f"unparseable {column}") from None
        if not 0.0 <= value <= 1.0:
            raise _bad_line(path, lineno, "probability outside [0, 1]")
        days.append(day)
        values.append(value)
    return ProbabilitySeries(np.array(days, dtype=np.int64).view("datetime64[D]"),
                             np.array(values, dtype=float))


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
    header, rows = _read_table(path)
    width, nodes = len(header), header[1:]
    if len(set(nodes)) < len(nodes):
        twice = next(node for k, node in enumerate(nodes) if node in nodes[:k])
        raise ConfigurationError(f"{path}: duplicate node {twice!r} in the header")
    matrix = []
    for r, (lineno, cells) in enumerate(rows):
        if len(cells) != width:
            raise _bad_line(path, lineno, f"{len(cells)} cells where the header has {width}")
        if r >= len(nodes) or cells[0] != nodes[r]:
            has = repr(nodes[r]) if r < len(nodes) else "no node"
            raise _bad_line(path, lineno, f"row {cells[0]!r} where the header has {has}")
        matrix.append(_finite_cells(path, header, lineno, cells, range(1, width)))
        if matrix[r][r] != 0.0:
            raise _bad_line(path, lineno, "nonzero diagonal")
    if len(rows) < len(nodes):
        raise ConfigurationError(
            f"{path}: {len(rows)} rows where the header has {len(nodes)} nodes")
    return tuple(nodes), np.array(matrix, dtype=float).reshape(len(rows), len(nodes))


def write_table_csv(path, header: list[str], rows: list[list], provenance: str = "") -> Path:
    return _write_csv(path, header, (",".join(map(format_value, row)) for row in rows), provenance)


def read_indicators_csv(path):
    """Read an indicator table written by the pipeline. A bad row raises
    ConfigurationError naming the first bad line: a duplicate node, then the
    leftmost missing or unparseable value, then the leftmost non-finite
    one."""
    header, rows = _read_table(path)
    if header[0] != "node":
        raise ConfigurationError(f"{path}: first column must be 'node'")
    for name in ALL_INDICATORS:
        if name not in header:
            raise ConfigurationError(f"{path}: missing indicator column {name!r}")
    columns = sorted(header.index(name) for name in ALL_INDICATORS)
    table = {}
    for lineno, cells in rows:
        if cells[0] in table:
            raise _bad_line(path, lineno, f"duplicate node {cells[0]!r}")
        table[cells[0]] = _finite_cells(path, header, lineno, cells, columns)
    values = np.array(list(table.values()), dtype=float).reshape(len(table), len(columns))
    return IndicatorTable(tuple(table), {
        name: values[:, columns.index(header.index(name))] for name in ALL_INDICATORS})


def read_losses_csv(path) -> dict[str, float]:
    """Read node,max_loss_pct rows. A bad row raises ConfigurationError
    naming the first bad line: a duplicate node, then a missing, unparseable
    or non-finite loss."""
    header, rows = _read_table(path)
    if header[:2] != ["node", "max_loss_pct"]:
        raise ConfigurationError(f"{path}: expected columns node,max_loss_pct")
    losses = {}
    for lineno, cells in rows:
        if cells[0] in losses:
            raise _bad_line(path, lineno, f"duplicate node {cells[0]!r}")
        losses[cells[0]], = _finite_cells(path, header, lineno, cells, [1])
    return losses


def read_groups_csv(path):
    """Read node-group assignments: node,group per line (later columns are
    ignored). A bad row raises ConfigurationError naming the first bad line:
    a duplicate node, then a missing group, then a group other than
    industrial and financial."""
    header, rows = _read_table(path)
    if header[:2] != ["node", "group"]:
        raise ConfigurationError(f"{path}: expected columns node,group")
    groups = {}
    for lineno, cells in rows:
        if cells[0] in groups:
            raise _bad_line(path, lineno, f"duplicate node {cells[0]!r}")
        if len(cells) < 2:
            raise _bad_line(path, lineno, "missing group")
        if cells[1] not in (INDUSTRIAL, FINANCIAL):
            raise _bad_line(path, lineno, f"unknown group {cells[1]!r}")
        groups[cells[0]] = cells[1]
    return NodeGroup(groups)
