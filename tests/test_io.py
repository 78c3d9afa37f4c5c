import hashlib
import re
from datetime import date, timedelta
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from sinet import (ConfigurationError, NodeGroup, ProbabilitySeries, SIIMatrix, SINGraph,
                   build_sin)
from sinet import io as sio
from sinet.network import ALL_INDICATORS, GROSS_INDICATORS
from sinet.synthetic import bundled_corpus_config


def write(path, text):
    path.write_text(text)
    return path


def raises_exactly(exc, path, what):
    """``pytest.raises`` for the message ``<path>: <what>`` and nothing else."""
    return pytest.raises(exc, match=rf"^{re.escape(str(path))}: {re.escape(what)}$")


class TestLoadPriceCsv:
    def test_two_row_file(self, tmp_path):
        p = write(tmp_path / "a.csv", "date,price\n2006-01-02,10.0\n2006-01-03,10.5\n")
        table = sio.read_price_table(p)
        np.testing.assert_array_equal(
            table["dates"], np.array(["2006-01-02", "2006-01-03"], dtype="datetime64[D]")
        )
        np.testing.assert_array_equal(table["prices"], [10.0, 10.5])
        assert "caps" not in table

    def test_unsorted_rows_get_sorted(self, tmp_path):
        p = write(
            tmp_path / "a.csv",
            "date,price\n2006-01-04,3.0\n2006-01-02,1.0\n2006-01-03,2.0\n",
        )
        table = sio.read_price_table(p)
        np.testing.assert_array_equal(table["prices"], [1.0, 2.0, 3.0])
        assert np.all(np.diff(table["dates"]) > np.timedelta64(0, "D"))

    def test_zero_price_names_line(self, tmp_path):
        p = write(
            tmp_path / "a.csv",
            "date,price\n2006-01-02,1.0\n2006-01-03,1.1\n2006-01-04,1.2\n2006-01-05,0\n",
        )
        with raises_exactly(ConfigurationError, p, "non-positive price on line 5"):
            sio.read_price_table(p)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e309"])
    @pytest.mark.parametrize("field", ["price", "market_cap"])
    def test_non_finite_names_line(self, tmp_path, field, cell):
        row = f"2006-01-03,{cell},5.0" if field == "price" else f"2006-01-03,1.0,{cell}"
        p = write(tmp_path / "a.csv", f"date,price,market_cap\n2006-01-02,1.0,5.0\n{row}\n")
        assert _outcome(oracles.read_price_table_rows, p, None) == (
            ConfigurationError, f"{p}: non-finite {field} on line 3")
        with raises_exactly(ConfigurationError, p, f"non-finite {field} on line 3"):
            sio.read_price_table(p)

    def test_unparseable_date_names_line(self, tmp_path):
        p = write(tmp_path / "a.csv", "date,price\n2006-01-02,1.0\nnot-a-date,1.1\n")
        with raises_exactly(ConfigurationError, p, "unparseable date on line 3"):
            sio.read_price_table(p)

    def test_missing_date_column_names_it(self, tmp_path):
        p = write(tmp_path / "a.csv", "day,price\n2006-01-02,1.0\n")
        with raises_exactly(ConfigurationError, p, "missing required column 'date' (maps date)"):
            sio.read_price_table(p)

    def test_duplicate_date_rejected(self, tmp_path):
        p = write(
            tmp_path / "a.csv", "date,price\n2006-01-02,1.0\n2006-01-02,1.1\n"
        )
        with raises_exactly(ConfigurationError, p, "duplicate date 2006-01-02 on line 3"):
            sio.read_price_table(p)

    def test_column_map_and_caps(self, tmp_path):
        p = write(
            tmp_path / "a.csv",
            "day,close,cap\n2006-01-02,2.0,200\n2006-01-03,2.2,220\n",
        )
        table = sio.read_price_table(
            p, {"date": "day", "price": "close", "market_cap": "cap"}
        )
        np.testing.assert_allclose(table["caps"], [200.0, 220.0])

    def test_missing_file(self, tmp_path):
        absent = tmp_path / "absent.csv"
        with pytest.raises(
            ConfigurationError, match=rf"^{re.escape(str(absent))} does not exist$"
        ):
            sio.read_price_table(absent)


class TestKeyValues:
    def test_comments_and_blanks(self, tmp_path):
        p = write(
            tmp_path / "c.cfg",
            "# heading\n\nalpha = 1  # trailing\nbeta = two words\n",
        )
        assert sio.read_key_values(p) == {"alpha": "1", "beta": "two words"}

    def test_duplicate_key_rejected(self, tmp_path):
        p = write(tmp_path / "c.cfg", "a = 1\na = 2\n")
        with raises_exactly(ConfigurationError, p, "duplicate key 'a' on line 2"):
            sio.read_key_values(p)

    def test_empty_key_rejected(self, tmp_path):
        p = write(tmp_path / "c.cfg", "a = 1\n = 1\n")
        with raises_exactly(ConfigurationError, p, "empty key on line 2"):
            sio.read_key_values(p)

    def test_hash_inside_a_value_is_not_a_comment(self, tmp_path):
        p = write(tmp_path / "c.cfg",
                  "data_dir = d#1\n#a = 1\n  # b = 2\noutput_dir = out#2\t# trailing\n")
        assert sio.read_key_values(p) == {"data_dir": "d#1", "output_dir": "out#2"}

    def test_malformed_line_rejected(self, tmp_path):
        p = write(tmp_path / "c.cfg", "just words\n")
        with raises_exactly(ConfigurationError, p, "line 1 is not 'key = value'"):
            sio.read_key_values(p)


@pytest.fixture
def hand_graph():
    values = np.array(
        [[0.0, 0.4, 0.2], [0.1, 0.0, 0.0], [0.0, 0.3, 0.0]]
    )
    m = SIIMatrix(("x", "y", "z"), values)
    groups = NodeGroup({"x": "industrial", "y": "industrial", "z": "financial"})
    return build_sin(m, groups, threshold=0.25, losses={"x": 60.0, "y": 40.0, "z": 50.0})


class TestGraphExport:
    def test_dot_edges_match_retained_pairs(self, tmp_path, hand_graph):
        path = sio.export_graph(hand_graph, "dot", tmp_path / "g.dot", "config=abc w")
        text = path.read_text()
        assert text.startswith("// config=abc w\n")
        assert '"x" -> "y"' in text and '"z" -> "y"' in text
        assert text.count("->") == 2

    def test_dot_without_edges_keeps_nodes(self, tmp_path, hand_graph):
        m = SIIMatrix(("x", "y"), np.zeros((2, 2)))
        g = build_sin(m, NodeGroup({"x": "industrial", "y": "financial"}), 0.5)
        text = sio.export_graph(g, "dot", tmp_path / "g.dot").read_text()
        assert '"x"' in text and '"y"' in text
        assert "->" not in text

    def test_json_round_trip_is_byte_identical(self, tmp_path, hand_graph):
        first = sio.export_graph(hand_graph, "graph-json", tmp_path / "g.json", "p")
        graph, provenance = sio.import_graph_json(first)
        second = sio.export_graph(graph, "graph-json", tmp_path / "g2.json", provenance)
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_format_rejected(self, tmp_path, hand_graph):
        with pytest.raises(
            ValueError, match=r"^unknown graph format 'gexf' \(expected 'dot' or 'graph-json'\)$"
        ):
            sio.export_graph(hand_graph, "gexf", tmp_path / "g.gexf")

    def test_bad_schema_rejected(self, tmp_path):
        p = write(tmp_path / "g.json", '{"schema": "other/9", "nodes": [], "edges": []}')
        with raises_exactly(ConfigurationError, p, "unsupported graph schema 'other/9'"):
            sio.import_graph_json(p)


    def test_dot_ids_are_escaped(self, tmp_path):
        m = SIIMatrix(('A"x', "B\\y", "C"), np.array(
            [[0.0, 0.5, 0.0], [0.25, 0.0, 0.0], [0.0, 0.75, 0.0]]))
        g = build_sin(m, NodeGroup({'A"x': "industrial", "B\\y": "financial", "C": "industrial"}),
                      0.1)
        path = sio.export_graph(g, "dot", tmp_path / "g.dot", "config=abc")
        assert path.read_bytes() == (
            b'// config=abc\n'
            b'digraph SIN {\n'
            b'  // threshold=0.1\n'
            b'  "A\\"x" [group="industrial", size_value=1.5];\n'
            b'  "B\\\\y" [group="financial", size_value=1.0];\n'
            b'  "C" [group="industrial", size_value=1.5];\n'
            b'  "A\\"x" -> "B\\\\y" [weight=0.0, penwidth=0.5];\n'
            b'  "C" -> "B\\\\y" [weight=1.0, penwidth=5.0];\n'
            b'}\n'
        )

    def test_dot_writes_numpy_floats_as_plain_text(self, tmp_path):
        # an int threshold is written as a float
        g = SINGraph(("a", "b"), {"a": "industrial", "b": "financial"},
                     {"a": np.float64(1.5)}, {"a": np.float64(12.5), "b": None},
                     (("a", "b", np.float64(0.25)),), 0)
        assert sio.export_graph(g, "dot", tmp_path / "g.dot").read_text() == (
            "digraph SIN {\n"
            "  // threshold=0.0\n"
            '  "a" [group="industrial", size_value=1.5, color_value=12.5];\n'
            '  "b" [group="financial"];\n'
            '  "a" -> "b" [weight=0.25, penwidth=1.625];\n'
            "}\n"
        )


GRAPH_HEAD = '"schema": "sin-graph/1", "provenance": "p", "threshold": 0.3'
NODE_A = '{"id": "a", "group": "industrial", "size_value": 1.0, "color_value": null}'
NODE_INT_ID = NODE_A.replace('"a"', "3")
NODE_BOOL_SIZE = NODE_A.replace("1.0", "true")


class TestGraphImportErrors:
    """A graph-JSON file that is not a graph of the schema fails naming
    the file and what is wrong, never with a bare KeyError or TypeError."""

    @pytest.mark.parametrize("text, what", [
        ("[1, 2]", "the document is not an object"),
        ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ('{"nodes": [], "edges": []}', "the document has no 'schema'"),
        (f'{{{GRAPH_HEAD}, "edges": []}}', "the document has no 'nodes'"),
        (f'{{{GRAPH_HEAD}, "nodes": {{}}, "edges": []}}', "'nodes' of the document is not a list"),
        (f'{{{GRAPH_HEAD}, "nodes": [7], "edges": []}}', "nodes[0] is not an object"),
        (f'{{{GRAPH_HEAD}, "nodes": [{NODE_A}, {{"id": "b"}}], "edges": []}}',
         "nodes[1] has no 'group'"),
        (f'{{{GRAPH_HEAD}, "nodes": [{NODE_INT_ID}], "edges": []}}',
         "'id' of nodes[0] is not a string"),
        (f'{{{GRAPH_HEAD}, "nodes": [{NODE_BOOL_SIZE}], "edges": []}}',
         "'size_value' of nodes[0] is not a number"),
        (f'{{{GRAPH_HEAD}, "nodes": [{NODE_A}], '
         '"edges": [{"source": "a", "target": "a", "weight": "1"}]}',
         "'weight' of edges[0] is not a number"),
        (f'{{{GRAPH_HEAD}, "nodes": [{NODE_A}], "edges": []}}'.replace('"p"', "5"),
         "'provenance' of the document is not a string"),
        (f'{{{GRAPH_HEAD}, "nodes": [{NODE_A}, {NODE_A}], "edges": []}}',
         "repeated node 'a'"),
        (f'{{{GRAPH_HEAD}, "nodes": [{NODE_A}], '
         '"edges": [{"source": "a", "target": "b", "weight": 1.0}]}',
         "edge ('a', 'b') has an endpoint that is not a node"),
    ], ids=["list", "invalid", "no-schema", "no-nodes", "nodes-object", "node-number",
            "no-group", "int-id", "bool-size", "string-weight", "int-provenance",
            "repeated-node", "unlisted-endpoint"])
    def test_names_the_fault(self, tmp_path, text, what):
        p = write(tmp_path / "g.json", text)
        with raises_exactly(ConfigurationError, p, what):
            sio.import_graph_json(p)


BOM = "\ufeff"


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write it,
    is not part of the first line."""

    def test_price_table(self, tmp_path):
        p = write(tmp_path / "p.csv", BOM + "date,price\n2006-01-02,1.5\n2006-01-03,2.0\n")
        assert sio.read_price_table(p)["prices"].tolist() == [1.5, 2.0]

    def test_quoted_price_table(self, tmp_path):
        p = write(tmp_path / "p.csv", BOM + '"date","price"\n"2006-01-02","1.5"\n')
        assert sio.read_price_table(p)["prices"].tolist() == [1.5]

    @pytest.mark.parametrize("suffix", [".csv", ".txt"])
    def test_probabilities_table(self, tmp_path, suffix):
        p = write(tmp_path / f"p{suffix}",
                  BOM + "# note\ndate,filtering,smoothing\n2006-01-02,0.25,0.5\n")
        assert sio.read_probabilities_csv(p).values.tolist() == [0.25]

    def test_matrix(self, tmp_path):
        p = write(tmp_path / "m.csv", BOM + "# note\nnode,a,b\na,0.0,0.5\nb,0.25,0.0\n")
        assert sio.read_matrix_csv(p)[0] == ("a", "b")

    def test_indicator_table(self, tmp_path):
        header = ",".join(["node", *ALL_INDICATORS])
        p = write(tmp_path / "i.csv", BOM + f"# note\n{header}\na" + ",0.0" * 9 + "\n")
        assert sio.read_indicators_csv(p).nodes == ("a",)

    def test_loss_table(self, tmp_path):
        p = write(tmp_path / "l.csv", BOM + "# note\nnode,max_loss_pct\na,12.5\n")
        assert sio.read_losses_csv(p) == {"a": 12.5}

    def test_group_table(self, tmp_path):
        p = write(tmp_path / "g.csv", BOM + "node,group\na,industrial\nb,financial\n")
        assert sio.read_groups_csv(p).groups == {"a": "industrial", "b": "financial"}

    def test_config_file(self, tmp_path):
        p = write(tmp_path / "c.cfg", BOM + "alpha = 1\n")
        assert sio.read_key_values(p) == {"alpha": "1"}

    def test_graph_json(self, tmp_path):
        p = write(tmp_path / "g.json", BOM + f'{{{GRAPH_HEAD}, "nodes": [{NODE_A}], "edges": []}}')
        assert sio.import_graph_json(p)[0].nodes == ("a",)


class TestNotUtf8:
    """A file that is not UTF-8 fails naming it and the offset of its first
    bad byte, counted from 0 at the start of the file, byte-order mark
    included."""

    @pytest.mark.parametrize("read", [
        sio.read_price_table, sio.read_probabilities_csv, sio.read_matrix_csv,
        sio.read_indicators_csv, sio.read_losses_csv, sio.read_groups_csv,
        sio.read_key_values, sio.import_graph_json,
    ], ids=lambda read: read.__name__)
    @pytest.mark.parametrize("suffix", [".csv", ".txt"])
    def test_every_reader_names_the_file(self, tmp_path, read, suffix):
        p = tmp_path / f"input{suffix}"
        for head, at in ((b"", 25), (BOM.encode(), 28)):
            p.write_bytes(head + b"date,price\n2006-01-02,1.0\xff\n")
            with raises_exactly(ConfigurationError, p, f"not UTF-8 at byte {at}"):
                read(p)


class TestTableRoundTrips:
    def test_probabilities_csv(self, tmp_path, make_probs):
        filt = make_probs([0.1, 0.5, 0.9])
        smth = make_probs([0.2, 0.6, 0.8])
        path = sio.write_probabilities_csv(tmp_path / "p.csv", filt, smth, "config=x")
        assert path.read_text().startswith("# config=x\n")
        back_f = sio.read_probabilities_csv(path, "filtering")
        back_s = sio.read_probabilities_csv(path, "smoothing")
        np.testing.assert_array_equal(back_f.values, filt.values)
        np.testing.assert_array_equal(back_s.values, smth.values)
        np.testing.assert_array_equal(back_f.timestamps, filt.timestamps)

    @pytest.mark.parametrize("cell, what", [
        ("2006-02", "date '2006-02' not in YYYY-MM-DD form"),
        ("2007", "date '2007' not in YYYY-MM-DD form"),
        (" 2008-03-04", "date ' 2008-03-04' not in YYYY-MM-DD form"),
        ("+006-01-02", "date '+006-01-02' not in YYYY-MM-DD form"),
        ("-006-01-02", "date '-006-01-02' not in YYYY-MM-DD form"),
        ("0000-01-01", "date '0000-01-01' not in YYYY-MM-DD form"),
        ("2006-13-01", "date '2006-13-01' not in YYYY-MM-DD form"),
        ("2006-01-03", "duplicate date 2006-01-03"),
        ("2006-01-02", "unsorted date 2006-01-02"),
    ])
    def test_probabilities_csv_bad_date_names_line(self, tmp_path, cell, what):
        # numpy reads every one of these cells; line 5 is bad too, but only
        # the first bad line is named
        path = write(tmp_path / "p.csv", "# provenance\ndate,filtering,smoothing\n"
                     f"2006-01-03,0.5,0.5\n{cell},0.5,0.5\n2006-01-01,0.5,0.5\n")
        with raises_exactly(ConfigurationError, path, f"{what} on line 4"):
            sio.read_probabilities_csv(path)

    def test_probabilities_csv_header_only_is_empty(self, tmp_path):
        path = write(tmp_path / "p.csv", "date,filtering,smoothing\n")
        assert len(sio.read_probabilities_csv(path)) == 0

    @pytest.mark.parametrize("cell", ["", "NaT"])
    def test_probabilities_csv_missing_date_names_line(self, tmp_path, cell):
        path = write(tmp_path / "p.csv", "# provenance\ndate,filtering,smoothing\n"
                     f"2006-01-02,0.5,0.5\n\n{cell},0.5,0.5\n")
        with raises_exactly(ConfigurationError, path,
                            f"date {cell!r} not in YYYY-MM-DD form on line 5"):
            sio.read_probabilities_csv(path)

    def test_probabilities_csv_nan_rejected(self, tmp_path):
        path = write(tmp_path / "p.csv", "date,filtering,smoothing\n"
                     "2006-01-02,0.5,0.5\n2006-01-03,nan,0.5\n")
        with raises_exactly(ConfigurationError, path, "probability outside [0, 1] on line 3"):
            sio.read_probabilities_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "1.5", "-0.25", "inf"])
    def test_probabilities_csv_out_of_range_before_unparseable(self, tmp_path, cell):
        # a later unparseable cell does not hide the bad probability
        path = write(tmp_path / "p.csv", "date,filtering,smoothing\n2006-01-02,0.5,0.5\n"
                     f"2006-01-03,{cell},0.5\n2006-01-04,abc,0.5\n")
        with raises_exactly(ConfigurationError, path, "probability outside [0, 1] on line 3"):
            sio.read_probabilities_csv(path)

    def test_matrix_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.random((4, 4))
        np.fill_diagonal(values, 0.0)
        path = sio.write_matrix_csv(tmp_path / "m.csv", ("a", "b", "c", "d"), values)
        nodes, back = sio.read_matrix_csv(path)
        assert nodes == ("a", "b", "c", "d")
        np.testing.assert_array_equal(back, values)

    def test_groups_csv(self, tmp_path):
        p = write(
            tmp_path / "g.csv",
            "node,group,subsector\na,industrial,\nb,financial,bank\n",
        )
        groups = sio.read_groups_csv(p)  # columns after the group are ignored
        assert groups.groups == {"a": "industrial", "b": "financial"}

    def test_losses_csv(self, tmp_path):
        path = sio.write_table_csv(
            tmp_path / "l.csv", ["node", "max_loss_pct"], [["a", 12.5], ["b", 50.0]]
        )
        assert sio.read_losses_csv(path) == {"a": 12.5, "b": 50.0}


class TestGraphNullColors:
    def test_round_trip_without_losses(self, tmp_path):
        m = SIIMatrix(("a", "b"), np.array([[0.0, 0.4], [0.1, 0.0]]))
        g = build_sin(m, NodeGroup({"a": "industrial", "b": "financial"}), 0.1)
        assert g.color_values == {"a": None, "b": None}
        first = sio.export_graph(g, "graph-json", tmp_path / "g.json")
        back, _ = sio.import_graph_json(first)
        second = sio.export_graph(back, "graph-json", tmp_path / "g2.json")
        assert first.read_bytes() == second.read_bytes()
        dot = sio.export_graph(g, "dot", tmp_path / "g.dot").read_text()
        assert "color_value" not in dot


class TestMalformedRows:
    """A short row or a bad cell names the file and the 1-based line."""

    def test_price_short_row(self, tmp_path):
        p = write(tmp_path / "a.csv", "date,price\n2006-01-02,1.0\n2006-01-03\n")
        with raises_exactly(ConfigurationError, p, "unparseable price on line 3"):
            sio.read_price_table(p)

    def test_probabilities_short_row(self, tmp_path):
        p = write(tmp_path / "p.csv", "# prov\ndate,filtering,smoothing\n"
                  "2000-01-03,0.5,0.5\n2000-01-04\n")
        with raises_exactly(ConfigurationError, p, "missing filtering on line 4"):
            sio.read_probabilities_csv(p)

    def test_probabilities_non_numeric_cell(self, tmp_path):
        p = write(tmp_path / "p.csv", "date,filtering,smoothing\n"
                  "2000-01-03,0.5,0.5\n\n2000-01-04,0.5,abc\n")
        with raises_exactly(ConfigurationError, p, "unparseable smoothing on line 4"):
            sio.read_probabilities_csv(p, "smoothing")

    def test_probabilities_unparseable_date(self, tmp_path):
        p = write(tmp_path / "p.csv", "date,filtering,smoothing\n"
                  "2000-01-03,0.5,0.5\nnot-a-date,0.5,0.5\n")
        with raises_exactly(ConfigurationError, p,
                            "date 'not-a-date' not in YYYY-MM-DD form on line 3"):
            sio.read_probabilities_csv(p)

    @pytest.mark.parametrize("row, what", [
        ("b,0.1", "2 cells where the header has 3"),
        ("b,0.1,0.0,0.3", "4 cells where the header has 3"),
        ("b,0.1,x", "unparseable b"),
        ("c,0.1,x", "row 'c' where the header has 'b'"),
    ])
    def test_matrix_ragged_or_bad_row(self, tmp_path, row, what):
        p = write(tmp_path / "m.csv", f"# prov\nnode,a,b\na,0.0,0.2\n{row}\n")
        with raises_exactly(ConfigurationError, p, f"{what} on line 4"):
            sio.read_matrix_csv(p)

    def test_matrix_row_past_the_last_node(self, tmp_path):
        p = write(tmp_path / "m.csv", "# prov\nnode,a,b\na,0.0,0.2\nb,0.1,0.0\nc,0.3,0.4\n")
        with raises_exactly(ConfigurationError, p, "row 'c' where the header has no node on line 5"):
            sio.read_matrix_csv(p)

    @pytest.mark.parametrize("rows, count", [("a,0.0,0.2\n", 1), ("", 0)],
                             ids=["one-row", "no-rows"])
    def test_matrix_missing_rows(self, tmp_path, rows, count):
        p = write(tmp_path / "m.csv", f"node,a,b\n{rows}")
        with raises_exactly(ConfigurationError, p, f"{count} rows where the header has 2 nodes"):
            sio.read_matrix_csv(p)

    def test_matrix_rows_out_of_header_order(self, tmp_path):
        p = write(tmp_path / "m.csv", "node,a,b\nb,0.1,0.0\na,0.0,0.2\n")
        with raises_exactly(ConfigurationError, p, "row 'b' where the header has 'a' on line 2"):
            sio.read_matrix_csv(p)

    def test_probabilities_bad_value_before_bad_date(self, tmp_path):
        p = write(tmp_path / "p.csv", "date,filtering,smoothing\n"
                  "2000-01-03,0.5,0.5\n2000-01-04,abc,0.5\n2000-01,0.5,0.5\n")
        with raises_exactly(ConfigurationError, p, "unparseable filtering on line 3"):
            sio.read_probabilities_csv(p)

    @pytest.mark.parametrize("later", ["b,0.1,0.0,0.3", "c,0.1,0.0", "b,0.1,0.0\nc,0.3,0.4"])
    def test_matrix_bad_cell_before_bad_row(self, tmp_path, later):
        # a ragged row, a wrong label or a row past the last node does not
        # hide line 2
        p = write(tmp_path / "m.csv", f"node,a,b\na,0.0,x\n{later}\n")
        with raises_exactly(ConfigurationError, p, "unparseable b on line 2"):
            sio.read_matrix_csv(p)

    def test_probabilities_date_outranks_value_on_one_line(self, tmp_path):
        p = write(tmp_path / "p.csv", "date,filtering,smoothing\n"
                  "2000-01-03,0.5,0.5\n2000-01,abc,0.5\n")
        with raises_exactly(ConfigurationError, p,
                            "date '2000-01' not in YYYY-MM-DD form on line 3"):
            sio.read_probabilities_csv(p)

    def test_indicators_bad_cell(self, tmp_path):
        header = ",".join(("node",) + ALL_INDICATORS)
        good = ",".join(["a"] + ["0.0"] * len(ALL_INDICATORS))
        bad = ",".join(["b"] + ["0.0"] * (len(ALL_INDICATORS) - 1) + ["?"])
        p = write(tmp_path / "i.csv", f"{header}\n{good}\n{bad}\n")
        with raises_exactly(ConfigurationError, p, f"unparseable {ALL_INDICATORS[-1]} on line 3"):
            sio.read_indicators_csv(p)

    def test_losses_short_row(self, tmp_path):
        p = write(tmp_path / "l.csv", "node,max_loss_pct\na,12.5\nb\n")
        with raises_exactly(ConfigurationError, p, "missing max_loss_pct on line 3"):
            sio.read_losses_csv(p)

    def test_groups_short_row(self, tmp_path):
        p = write(tmp_path / "g.csv", "node,group\na,industrial\n\nb\n")
        with raises_exactly(ConfigurationError, p, "missing group on line 4"):
            sio.read_groups_csv(p)

    @pytest.mark.parametrize("read, header, cells", [
        (sio.read_groups_csv, "node,group", ["financial", "industrial", "financial"]),
        (sio.read_losses_csv, "node,max_loss_pct", ["1.0", "12.5", "50.0"]),
        (sio.read_indicators_csv, ",".join(("node",) + ALL_INDICATORS),
         [",".join(["0.5"] * len(GROSS_INDICATORS) + ["0.0"] * 3)] * 3),
    ], ids=["groups", "losses", "indicators"])
    def test_duplicate_node(self, tmp_path, read, header, cells):
        b, a, again = (f"{node},{rest}" for node, rest in zip("BAA", cells))
        p = write(tmp_path / "t.csv", f"{header}\n{b}\n# note\n{a}\n{again}\n")
        with raises_exactly(ConfigurationError, p, "duplicate node 'A' on line 5"):
            read(p)

    def test_duplicate_node_before_missing_group(self, tmp_path):
        p = write(tmp_path / "g.csv", "node,group\nA,industrial\nA\nB\n")
        with raises_exactly(ConfigurationError, p, "duplicate node 'A' on line 3"):
            sio.read_groups_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_losses_non_finite(self, tmp_path, cell):
        p = write(tmp_path / "l.csv", f"node,max_loss_pct\na,{cell}\nb,abc\n")
        with raises_exactly(ConfigurationError, p, "non-finite max_loss_pct on line 2"):
            sio.read_losses_csv(p)

    @pytest.mark.parametrize("row, what", [
        ("b,nan,0.0,0.3", "non-finite a on line 4"),
        ("b,0.1,-inf,0.3", "non-finite b on line 4"),
        ("b,inf,nan,0.3", "non-finite a on line 4"),
        ("b,0.1,0.5,0.3", "nonzero diagonal on line 4"),
        ("b,0.1,-0.0,0.3", "non-finite a on line 5"),
    ])
    def test_matrix_non_finite_or_diagonal_cell(self, tmp_path, row, what):
        # the later bad line 5 does not hide line 4
        p = write(tmp_path / "m.csv", f"# prov\nnode,a,b,c\na,0.0,0.2,0.1\n{row}\n"
                  "c,nan,0.1,7.0\n")
        with raises_exactly(ConfigurationError, p, what):
            sio.read_matrix_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_indicators_non_finite(self, tmp_path, cell):
        header = ",".join(("node",) + ALL_INDICATORS)
        good = ",".join(["a"] + ["0.0"] * len(ALL_INDICATORS))
        bad = ",".join(["b"] + ["0.0"] * (len(ALL_INDICATORS) - 2) + [cell, "?"])
        p = write(tmp_path / "i.csv", f"{header}\n{good}\n{bad}\n")
        with raises_exactly(ConfigurationError, p, f"unparseable {ALL_INDICATORS[-1]} on line 3"):
            sio.read_indicators_csv(p)
        p = write(tmp_path / "i.csv", f"{header}\n{good}\n{bad.replace('?', '0.0')}\n")
        with raises_exactly(ConfigurationError, p,
                            f"non-finite {ALL_INDICATORS[-2]} on line 3"):
            sio.read_indicators_csv(p)

    def test_indicators_non_finite_names_the_leftmost_column(self, tmp_path):
        header = ",".join(("node",) + ALL_INDICATORS[::-1])
        row = ",".join(["a", "nan"] + ["0.0"] * (len(ALL_INDICATORS) - 2) + ["inf"])
        p = write(tmp_path / "i.csv", f"{header}\n{row}\n")
        with raises_exactly(ConfigurationError, p, f"non-finite {ALL_INDICATORS[-1]} on line 2"):
            sio.read_indicators_csv(p)

    def test_groups_unknown_group(self, tmp_path):
        p = write(tmp_path / "g.csv", "node,group\nA,industrial\n# note\nB,finacial\nC\n")
        with raises_exactly(ConfigurationError, p, "unknown group 'finacial' on line 4"):
            sio.read_groups_csv(p)

    def test_matrix_header_names_a_node_twice(self, tmp_path):
        p = write(tmp_path / "m.csv", "node,a,b,a\na,0.0,0.1,0.0\nb,0.2,0.0,0.2\na,0.0,0.1,0.0\n")
        with raises_exactly(ConfigurationError, p, "duplicate node 'a' in the header"):
            sio.read_matrix_csv(p)

    def test_comment_rows(self, tmp_path):
        # '#' lines are skipped in the pipeline's tables but are data in price files
        losses = write(tmp_path / "l.csv", "# prov\nnode,max_loss_pct\n# note\na,12.5\n")
        assert sio.read_losses_csv(losses) == {"a": 12.5}
        prices = write(tmp_path / "a.csv", "date,price\n2006-01-02,1.0\n# note\n")
        with raises_exactly(ConfigurationError, prices, "unparseable date on line 3"):
            sio.read_price_table(prices)


# ---------------------------------------------------------------------------
# The columnar price reader against the row-by-row reader it replaced

def _outcome(read, path, arg):
    """What ``read(path, arg)`` gives: the exception's type and message, or
    each array's dtype, shape and bytes."""
    try:
        table = read(path, arg)
    except Exception as err:  # noqa: BLE001 - the exception itself is compared
        return type(err), str(err)
    if isinstance(table, ProbabilitySeries):
        table = {"dates": table.timestamps, "values": table.values}
    return {k: (v.dtype.str, v.shape, v.tobytes()) for k, v in table.items()}


def _date_text(day: date, style: int) -> str:
    """An ISO form ``date.fromisoformat`` reads: calendar, basic or week date."""
    if style == 0:
        return day.isoformat()
    if style == 1:
        return day.strftime("%Y%m%d")
    year, week, weekday = day.isocalendar()
    return f"{year:04d}-W{week:02d}-{weekday}"


@st.composite
def price_tables(draw):
    """CSV text of a valid price table, its column map and its rows as cells."""
    n = draw(st.integers(0, 12))
    days = draw(st.lists(st.integers(0, 3_000_000), min_size=n, max_size=n, unique=True))
    positive = st.floats(min_value=5e-324, max_value=1e300, allow_nan=False)
    with_cap = draw(st.booleans())
    names = {"date": "date", "price": "price", "market_cap": "market_cap"}
    column_map = None
    if draw(st.booleans()):
        column_map = {"date": "day", "price": "close", "market_cap": "cap"}
        names = dict(column_map)
    fields = ["date", "price"] + (["market_cap"] if with_cap else []) + ["volume"]
    fields = draw(st.permutations(fields))
    # half the tables plain (YYYY-MM-DD dates, bare cells, only empty lines
    # between rows), so that numpy's tokenizer reads them
    plain = draw(st.booleans())
    styles = st.sampled_from((0,) if plain else draw(st.sampled_from([(0,), (0, 1, 2)])))
    pads = ("",) if plain else draw(st.sampled_from([("",), ("", " ", "\t", "  ")]))
    pad = st.sampled_from(pads)
    quote = not plain and draw(st.booleans())
    blank = st.sampled_from([""] if plain else ["", " ", ",,", " , \t"])

    def cell(text):
        text = draw(pad) + text + draw(pad)
        return f'"{text}"' if quote and draw(st.booleans()) else text

    rows = []
    for d in days:
        values = {
            "date": _date_text(date(1000, 1, 1) + timedelta(days=d), draw(styles)),
            "price": repr(draw(positive)),
            "market_cap": repr(draw(positive)),
            "volume": draw(st.sampled_from(["", "7", "x"])),
        }
        rows.append({f: values[f] for f in fields})
    lines = [",".join(draw(pad) + names.get(f, f) + draw(pad) for f in fields)]
    for row in rows:
        lines.append(",".join(cell(row[f]) for f in fields))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(blank))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text, column_map, fields


CORRUPTIONS = {
    "date": ["not-a-date", "2006/01/02", "2006-02", "2006-02-30", "", "0000-01-01", "# x"],
    "price": ["0", "-1.5", "inf", "nan", "abc", ""],
    "market_cap": ["0", "-2", "-inf", "nan", "1e", ""],
}
FUZZ = settings(max_examples=150, deadline=None, database=None, print_blob=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _line_reads(monkeypatch) -> list:
    """Make the line reader record each call, and return that record."""
    calls, line_reader = [], sio._read_table

    def spy(*args, **kwargs):
        calls.append(args)
        return line_reader(*args, **kwargs)

    monkeypatch.setattr(sio, "_read_table", spy)
    return calls


class TestPriceTableParity:
    def test_valid_tables_match_row_reader(self, tmp_path, monkeypatch):
        line_reads, fast = _line_reads(monkeypatch), []

        @FUZZ
        @given(table=price_tables())
        def check(table):
            text, column_map, _ = table
            path = tmp_path / "prices.csv"
            path.write_bytes(text.encode())
            want = _outcome(oracles.read_price_table_rows, path, column_map)
            assert isinstance(want, dict)
            before = len(line_reads)
            assert _outcome(sio.read_price_table, path, column_map) == want
            fast.append(len(line_reads) == before)

        check()
        # numpy's tokenizer reads a real share of the tables, so the
        # property holds it to the row reader too
        assert sum(fast) >= len(fast) / 4

    @FUZZ
    @given(table=price_tables(), data=st.data())
    def test_one_corrupted_row_fails_like_row_reader(self, tmp_path, table, data):
        text, column_map, fields = table
        lines = text.splitlines()
        rows = [k for k, line in enumerate(lines) if k and line.replace(",", "").strip()]
        if not rows:
            return
        k = data.draw(st.sampled_from(rows))
        cells = lines[k].split(",")
        field = data.draw(st.sampled_from([f for f in fields if f in CORRUPTIONS] + ["cut"]))
        if field == "cut":
            cells = cells[: data.draw(st.integers(1, len(cells) - 1))]
        elif field == "date" and data.draw(st.booleans()) and len(rows) > 1:
            other = lines[data.draw(st.sampled_from([r for r in rows if r != k]))].split(",")
            cells[fields.index("date")] = other[fields.index("date")]
        else:
            cells[fields.index(field)] = data.draw(st.sampled_from(CORRUPTIONS[field]))
        lines[k] = ",".join(cells)
        path = tmp_path / "prices.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode())
        want = _outcome(oracles.read_price_table_rows, path, column_map)
        assert _outcome(sio.read_price_table, path, column_map) == want


    @pytest.mark.parametrize("cell", [
        "0000-01-01", "2006-02", "2007", "today", "+2006-01-02", " 206-01-02", "   2006-01",
        "2006-01-02T00:00", "20060102", "2006-W01-1", " 2006-01-03", "2006-01-03 ", "NaT",
    ])
    def test_dates_numpy_reads_but_iso_may_not(self, tmp_path, cell):
        path = write(tmp_path / "a.csv", f"date,price\n2006-01-04,1.0\n{cell},2.0\n")
        want = _outcome(oracles.read_price_table_rows, path, None)
        assert _outcome(sio.read_price_table, path, None) == want


# ---------------------------------------------------------------------------
# Price tables through numpy's tokenizer, against the line reader

def _forbid_line_reader(monkeypatch):
    def line_reader(*args, **kwargs):
        raise AssertionError("the line reader ran")

    monkeypatch.setattr(sio, "_read_table", line_reader)


class TestPriceTokenizer:
    def _read_both_ways(self, paths, column_map=None):
        with pytest.MonkeyPatch.context() as mp:  # the tokenizer gives every table up
            mp.setattr(sio, "_tokenized", lambda *args, **kwargs: None)
            want = [_outcome(sio.read_price_table, path, column_map) for path in paths]
        assert all(isinstance(table, dict) for table in want)
        with pytest.MonkeyPatch.context() as mp:
            _forbid_line_reader(mp)
            assert [_outcome(sio.read_price_table, path, column_map) for path in paths] == want

    def test_bundled_corpus_skips_the_line_reader(self):
        self._read_both_ways(sorted(bundled_corpus_config().parent.glob("*.csv")))

    def test_long_history_table_skips_the_line_reader(self, tmp_path):
        rng = np.random.default_rng(5)
        dates = np.datetime64("1990-01-01", "D") + np.arange(11_681)
        prices = np.exp(np.cumsum(0.01 * rng.standard_normal(11_681)))
        lines = ["date,price"] + [f"{d},{p:.6f}" for d, p in zip(dates, prices)]
        path = write(tmp_path / "LA.csv", "\n".join(lines) + "\n")
        self._read_both_ways([path])

    def test_column_map_and_caps_skip_the_line_reader(self, tmp_path):
        path = write(tmp_path / "a.csv", " cap ,day,x, close\n5,2006-01-03,y,2.5\n"
                                         "4,2006-01-02,,2.0\n")
        self._read_both_ways([path], {"date": "day", "price": "close", "market_cap": "cap"})

    @pytest.mark.parametrize("name, text, fast", [
        ("a.csv", 'date,price\n"2006-01-02",1.5\n', False),
        ("a.csv", 'date,price,note\n2006-01-02,1.5,"x\n2006-01-03,2.0,"\n', False),
        ("a.txt", "date,price\n2006-01-02,1.5\n", False),
        ("a.csv.gz", "date,price\n2006-01-02,1.5\n", False),
        ("a.csv", "date,price\n2006-01-02,1.5\x0c\n", False),
        ("a.csv", "date,price\n2006-01-02,1.5\u2028\n", False),
        ("a.csv", "date,price\n2006-01-02\x00x,1.5\n", False),
        ("a.csv", "\ufeffdate,price\n2006-01-02,1.5\n", True),
        ("a.csv", "date,price\r\n2006-01-02,1.5\r\n2006-01-03,2.0\r\n", True),
        ("a.csv", "date,price\n20060102,1.5\n", False),
        ("a.csv", "date,price\n2006-W01-1,1.5\n", False),
        ("a.csv", "date,price\n 2006-01-02,1.5\n", False),
        ("a.csv", "date,price\n0000-01-01,1.5\n", False),
        ("a.csv", "date,price\n2006-02-30,1.5\n", False),
        ("a.csv", "date,price\n2006-01-02,1.5\n2006-01-02,2.0\n", False),
        ("a.csv", "date,price\n2006-01-03,1.5\n2006-01-02,2.0\n", True),
        ("a.csv", "date,price\n2006-01-02,1_0\n", False),
        ("a.csv", "date,price\n2006-01-02,１.5\n", False),
        ("a.csv", "date,price\n2006-01-02,nan\n", False),
        ("a.csv", "date,price\n2006-01-02,1.5\n \t\n2006-01-03,2.0\n", False),
        ("a.csv", "date,price\n2006-01-02,1.5\n,,\n2006-01-03,2.0\n", False),
        ("a.csv", "date,price\n2006-01-02,1.5\n\n2006-01-03,2.0\n", True),
        ("a.csv", "date,price\n2006-01-02,1.5\n2006-01-03\n", False),
        ("a.csv", "date,price\n2006-01-02,1.5,x,7\n", True),
        ("a.csv", "date,price\n", False),
    ], ids=["quoted", "quoted-line-break", "txt", "csv.gz", "form-feed", "line-separator",
            "nul", "bom", "crlf", "basic-date", "week-date", "padded-date", "year-0",
            "day-out-of-range", "duplicate-date", "unsorted", "underscore", "full-width", "nan",
            "blank-row", "commas-row", "empty-line", "short-row", "extra-cells", "header-only"])
    def test_matches_row_reader(self, tmp_path, monkeypatch, name, text, fast):
        path = tmp_path / name
        path.write_bytes(text.encode())
        line_reads = _line_reads(monkeypatch)
        assert _outcome(sio.read_price_table, path, None) == _outcome(
            oracles.read_price_table_rows, path, None)
        assert (not line_reads) == fast


# ---------------------------------------------------------------------------
# The probabilities reader, numpy's tokenizer first, against a line reader

def _underscored(value: float) -> str:
    text = repr(value)
    at = re.search(r"[0-9][0-9]", text)
    return text if at is None else f"{text[:at.start() + 1]}_{text[at.start() + 1:]}"


FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
# texts float() reads as the value; numpy's parser refuses the last two
PROBABILITY_STYLES = (repr, lambda v: f" {v!r}\t", lambda v: f"{v:.17e}",
                      _underscored, lambda v: repr(v).translate(FULLWIDTH))


@st.composite
def probability_tables(draw):
    """A valid probabilities table: its lines (text, or the cells of a data
    row), the column to read, the line ending and whether the last line
    ends with it."""
    fields = ["date", *draw(st.permutations(["filtering", "smoothing"]))]
    fields += draw(st.sampled_from([[], ["note"]]))
    column = draw(st.sampled_from(["filtering", "smoothing"]))
    j = fields.index(column)
    styles = draw(st.sampled_from([(repr,), PROBABILITY_STYLES]))
    n = draw(st.integers(0, 12))
    days = sorted(draw(st.lists(st.integers(0, 3_000_000), min_size=n, max_size=n, unique=True)))
    gap = st.sampled_from(["", "# provenance", "#", "#a,b"])
    lines = [draw(gap) for _ in range(draw(st.integers(0, 2)))] + [",".join(fields)]
    for d in days:
        cells = [(date(1000, 1, 1) + timedelta(days=d)).isoformat()]
        cells += [draw(st.sampled_from(styles))(draw(st.floats(0.0, 1.0))) for _ in fields[1:]]
        cells = cells[:draw(st.integers(j + 1, len(cells)))]
        cells += draw(st.lists(st.sampled_from(["", "x", "7"]), max_size=2))
        lines.append(cells)
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(gap))
    return lines, column, draw(st.sampled_from(["\n", "\r\n", "\r"])), draw(st.booleans())


def _render(lines, newline, trailing) -> bytes:
    text = newline.join(line if isinstance(line, str) else ",".join(line) for line in lines)
    return (text + (newline if trailing else "")).encode()


PROBABILITY_CORRUPTIONS = {
    "date": ["2006-02", "not-a-date", "", "NaT", "2006-13-01", " 2006-01-02", "-006-01-02",
             "2006-01-0212", "20060102", "２００６-01-02", "0000-01-01"],
    "value": ["abc", "", "nan", "1.5", "-0.5", "inf", "1_0", "0.5#x", "２", "0x1"],
}


class TestProbabilitiesTableParity:
    @FUZZ
    @given(table=probability_tables())
    def test_valid_tables_match_row_reader(self, tmp_path, table):
        lines, column, newline, trailing = table
        path = tmp_path / "p.csv"
        path.write_bytes(_render(lines, newline, trailing))
        want = _outcome(oracles.read_probabilities_rows, path, column)
        assert isinstance(want, dict)
        assert _outcome(sio.read_probabilities_csv, path, column) == want

    @FUZZ
    @given(table=probability_tables(), data=st.data())
    def test_one_corrupted_row_fails_like_row_reader(self, tmp_path, table, data):
        lines, column, newline, trailing = table
        rows = [k for k, line in enumerate(lines) if isinstance(line, list)]
        if not rows:
            return
        k = data.draw(st.sampled_from(rows))
        cells = list(lines[k])
        j = lines[rows[0] - 1].split(",").index(column)  # the header precedes the rows
        how = data.draw(st.sampled_from(["date", "value", "cut", "break", "blank"]
                                        + (["copy"] if len(rows) > 1 else [])))
        if how in PROBABILITY_CORRUPTIONS:
            cells[0 if how == "date" else j] = data.draw(
                st.sampled_from(PROBABILITY_CORRUPTIONS[how]))
        elif how == "copy":  # a duplicate, and maybe an unsorted, date
            cells[0] = lines[data.draw(st.sampled_from([r for r in rows if r != k]))][0]
        elif how == "cut":
            cells = cells[:j]
        elif how == "break":  # a line break only str.splitlines() knows
            cells[-1] += data.draw(st.sampled_from(["\x0c ", "\x0b\x0bx", "\x1c2006",
                                                          "\x85 ", "\u2029\t"]))
        lines = lines[:k] + [cells] + ([" \t"] if how == "blank" else []) + lines[k + 1:]
        path = tmp_path / "p.csv"
        path.write_bytes(_render(lines, newline, trailing))
        want = _outcome(oracles.read_probabilities_rows, path, column)
        assert isinstance(want, tuple)
        assert _outcome(sio.read_probabilities_csv, path, column) == want

    @pytest.mark.parametrize("name, text, want", [
        ("p.csv", "date,filtering\n2006-01-02,1_0\n", "probability outside [0, 1] on line 2"),
        ("p.csv", "date,filtering\n2006-01-02,0.2_5\n", [0.25]),
        ("p.csv", "date,filtering\n2006-01-02,１\n", [1.0]),
        ("p.csv", "date,filtering\n2006-01-02, 0.5\n", [0.5]),
        ("p.csv", "date,filtering\n2006-01-02,0.5#x\n", "unparseable filtering on line 2"),
        ("p.csv", "date,filtering\n2006-01-02,0.5\n \t\n2006-01-03,0.25\n",
         "date ' \\t' not in YYYY-MM-DD form on line 3"),
        ("p.csv", "# p\r\ndate,filtering\r\n2006-01-02,0.5\r\n\r\n2006-01-03,0.25\r\n",
         [0.5, 0.25]),
        ("p.csv", "# p\ndate,filtering,smoothing\n", []),
        ("p.csv", "date,filtering,smoothing\n2006-01-02,0.5,0.1,x,\n2006-01-03,0.25\n",
         [0.5, 0.25]),
        ("p.csv", "date,filtering\n2006-01-0212,0.5\n",
         "date '2006-01-0212' not in YYYY-MM-DD form on line 2"),
        ("p.csv", "date,filtering\n2006-01-02,0.5\x0c \x0c\n",
         "date ' ' not in YYYY-MM-DD form on line 3"),
        ("p.csv", "date,filtering,smoothing\n2006-01-02,0.5,0.1\u2028x\n",
         "date 'x' not in YYYY-MM-DD form on line 3"),
        ("p.csv.gz", "date,filtering\n2006-01-02,0.5\n", [0.5]),
        ("p.csv", "date,filtering\n2006-01-02\x00x,0.5\n",
         "date '2006-01-02\\x00x' not in YYYY-MM-DD form on line 2"),
    ])
    def test_cells_float_and_numpy_read_apart(self, tmp_path, name, text, want):
        path = tmp_path / name
        path.write_bytes(text.encode())
        got = _outcome(sio.read_probabilities_csv, path, "filtering")
        assert got == _outcome(oracles.read_probabilities_rows, path, "filtering")
        if isinstance(want, str):
            assert got == (ConfigurationError, f"{path}: {want}")
        else:
            assert got["values"] == ("<f8", (len(want),), np.array(want).tobytes())

    def test_writer_output_skips_the_line_reader(self, tmp_path, monkeypatch, make_probs):
        filtering = make_probs([0.0, 0.25, 1 / 3, 1.0, 5e-324])
        smoothing = make_probs([1.0, 0.5, 0.1, 0.0, 0.75])
        path = sio.write_probabilities_csv(tmp_path / "p.csv", filtering, smoothing,
                                           "config=abc window=x..y")
        _forbid_line_reader(monkeypatch)
        for column, series in (("filtering", filtering), ("smoothing", smoothing)):
            back = sio.read_probabilities_csv(path, column)
            assert back.timestamps.tobytes() == series.timestamps.tobytes()
            assert back.values.tobytes() == series.values.tobytes()
            assert back.values.base is None  # not a view that keeps the date cells alive

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_line_reader_reads_a_wide_network_table(self, tmp_path, make_probs, newline):
        # the shape of one wide_network input: T = 2,920 and a provenance line
        rng = np.random.default_rng(96)
        filtering = 1.0 / (1.0 + np.exp(-2.0 * np.cumsum(0.2 * rng.standard_normal(2_920))))
        smoothing = np.convolve(filtering, np.ones(5) / 5, mode="same")
        path = sio.write_probabilities_csv(tmp_path / "p.csv", make_probs(filtering),
                                           make_probs(smoothing), "benchmark wide_network seed=1")
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
        columns = ("filtering", "smoothing")
        want = [_outcome(sio.read_probabilities_csv, path, column) for column in columns]
        with pytest.MonkeyPatch.context() as mp:  # the tokenizer gives the table up
            mp.setattr(sio, "_tokenized", lambda *args, **kwargs: None)
            got = [_outcome(sio.read_probabilities_csv, path, column) for column in columns]
        assert got == want
        assert all(isinstance(table, dict) and table["values"][1] == (2_920,) for table in want)


# ---------------------------------------------------------------------------
# The first bad line decides, whatever follows it

def _case(draw, read, header, rows, faults):
    """A reader, the lines of a valid table for it and, by line index, the
    corrupted versions of each data row; a provenance line and blank or
    comment lines are drawn in."""
    lines, bad = (["# provenance"] if draw(st.booleans()) else []) + [header], {}
    for row, row_faults in zip(rows, faults):
        lines.append(row)
        bad[len(lines) - 1] = row_faults
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(["", "# note"])))
    return read, lines, bad


NAMES = st.lists(st.integers(0, 99), min_size=2, max_size=5, unique=True).map(
    lambda ks: [f"N{k}" for k in ks])
NUMBER = st.floats(-1e6, 1e6).map(repr)
PROBABILITY = st.floats(0.0, 1.0).map(repr)


@st.composite
def price_cases(draw):
    text, column_map, fields = draw(price_tables())
    lines = text.splitlines()
    rows = [k for k, line in enumerate(lines) if k and line.replace(",", "").strip()]
    checked = max(fields.index(f) for f in fields if f != "volume")
    bad = {}
    for k in rows:
        cells = lines[k].split(",")
        options = [
            cells[:j] + [value] + cells[j + 1:]
            for j, field in enumerate(fields) for value in CORRUPTIONS.get(field, [])
        ]
        # cut before a checked cell, keeping the row from looking blank
        options += [cells[:m] for m in range(1, checked + 1)
                    if any(c.strip(' \t"') for c in cells[:m])]
        d = fields.index("date")
        options += [cells[:d] + [lines[e].split(",")[d]] + cells[d + 1:] for e in rows if e < k]
        bad[k] = [",".join(option) for option in options]
    return partial(sio.read_price_table, column_map=column_map), lines, bad


@st.composite
def probability_cases(draw):
    n = draw(st.integers(2, 8))
    offsets = sorted(draw(st.lists(st.integers(1, 20_000), min_size=n, max_size=n, unique=True)))
    days = [date(1970, 1, 1) + timedelta(days=d) for d in offsets]
    column = draw(st.sampled_from(["filtering", "smoothing"]))
    j = 1 if column == "filtering" else 2
    rows, faults = [], []
    for r, day in enumerate(days):
        cells = [day.isoformat(), draw(PROBABILITY), draw(PROBABILITY)]
        dates = ["2006-02", "not-a-date", "", "NaT", "2006-13-01", f" {cells[0]}", "-006-01-02",
                 "0000-01-01"]
        if r:
            dates += [days[r - 1].isoformat(), (days[r - 1] - timedelta(days=1)).isoformat()]
        options = [[d] + cells[1:] for d in dates] + [cells[:j]]
        options += [cells[:j] + [v] + cells[j + 1:] for v in ("abc", "", "nan", "1.5", "-0.5")]
        rows.append(",".join(cells))
        faults.append([",".join(option) for option in options])
    read = partial(sio.read_probabilities_csv, column=column)
    return _case(draw, read, "date,filtering,smoothing", rows, faults)


@st.composite
def matrix_cases(draw):
    nodes = draw(NAMES)
    rows, faults = [], []
    for r, node in enumerate(nodes):
        cells = [node] + [draw(NUMBER) for _ in nodes]
        cells[r + 1] = draw(st.sampled_from(["0.0", "-0.0", "0"]))
        options = [cells[:-1], cells + ["0.5"], [nodes[r - 1]] + cells[1:], ["Z_"] + cells[1:]]
        options += [cells[:m] + [v] + cells[m + 1:] for m in range(1, len(cells))
                    for v in ("x", "", "nan", "-inf")]
        options += [cells[:r + 1] + ["0.25"] + cells[r + 2:]]
        rows.append(",".join(cells))
        faults.append([",".join(option) for option in options])
    return _case(draw, sio.read_matrix_csv, "node," + ",".join(nodes), rows, faults)


@st.composite
def indicator_cases(draw):
    header = ["node"] + list(draw(st.permutations(ALL_INDICATORS)))
    rows, faults = [], []
    nodes = draw(NAMES)
    for r, node in enumerate(nodes):
        value = {name: draw(NUMBER) for name in GROSS_INDICATORS}
        for suffix in ("All", "Fin", "IX"):
            value[f"NSII-on-{suffix}"] = repr(
                float(value[f"SI-to-{suffix}"]) - float(value[f"SI-from-{suffix}"]))
        cells = [node] + [value[name] for name in header[1:]]
        options = [cells[:m] for m in range(1, len(cells))]
        options += [cells[:m] + [v] + cells[m + 1:] for m in range(1, len(cells))
                    for v in ("?", "", "nan", "inf")]
        options += [cells[:m] + [repr(float(cells[m]) + 1.0)] + cells[m + 1:]
                    for m in range(1, len(cells)) if header[m].startswith("NSII")]
        options += [[earlier] + cells[1:] for earlier in nodes[:r]]
        rows.append(",".join(cells))
        faults.append([",".join(option) for option in options])
    return _case(draw, sio.read_indicators_csv, ",".join(header), rows, faults)


@st.composite
def loss_cases(draw):
    nodes = draw(NAMES)
    rows = [f"{node},{draw(NUMBER)}" for node in nodes]
    faults = [[node, f"{node},abc", f"{node},", f"{node},nan", f"{node},-inf"]
              + [f"{earlier},1.0" for earlier in nodes[:r]] for r, node in enumerate(nodes)]
    return _case(draw, sio.read_losses_csv, "node,max_loss_pct", rows, faults)


@st.composite
def group_cases(draw):
    nodes = draw(NAMES)
    sub = draw(st.booleans())
    rows = [f"{node},industrial" + (",bank" if sub else "") for node in nodes]
    faults = [[node, f"{node},finance", f"{node},"]
              + [f"{earlier},financial" for earlier in nodes[:r]] for r, node in enumerate(nodes)]
    header = "node,group" + (",subsector" if sub else "")
    return _case(draw, sio.read_groups_csv, header, rows, faults)


def _failure(read, path, lines, newline):
    path.write_bytes((newline.join(lines) + newline).encode())
    try:
        read(path)
    except ValueError as err:
        return type(err), str(err)
    return None


class TestFirstBadLine:
    @pytest.mark.parametrize("cases", [
        price_cases, probability_cases, matrix_cases, indicator_cases, loss_cases, group_cases,
    ])
    @settings(FUZZ, max_examples=75)
    @given(data=st.data())
    def test_later_bad_row_changes_nothing(self, tmp_path, cases, data):
        """With rows i < j corrupted, a read fails exactly as with row i alone,
        under every line ending."""
        read, lines, faults = data.draw(cases())
        newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        rows = sorted(faults)
        if len(rows) < 2:
            return
        i, j = sorted(data.draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2,
                                         unique=True)))
        first = list(lines)
        first[i] = data.draw(st.sampled_from(faults[i]))
        both = list(first)
        both[j] = data.draw(st.sampled_from(faults[j]))
        path = tmp_path / "t.csv"
        want = _failure(read, path, first, newline)
        assert want is not None and want[1].endswith(f" on line {i + 1}")
        assert _failure(read, path, both, newline) == want


class TestProbabilitiesWriter:
    def test_bytes_are_pinned(self, tmp_path):
        values = np.concatenate([
            np.random.default_rng(7).random(60),
            [0.0, 1.0, 5e-324, 1e-300, 0.1, 1 / 3, 0.5, 1 - 2**-53],
        ])
        dates = np.datetime64("1999-12-30", "D") + np.arange(len(values)) * 3
        path = sio.write_probabilities_csv(
            tmp_path / "p.csv",
            ProbabilitySeries(dates, values),
            ProbabilitySeries(dates, values[::-1].copy()),
            "config=abc window=x..y",
        )
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "1a838e0790bc1c51f3c95befa16f4781fe761e21e09f11504a4b92d29fa49956"
        )


    def test_series_of_other_lengths_rejected(self, tmp_path, make_probs):
        # zipping the columns would write 3 rows and drop 2 without a word
        with pytest.raises(ValueError, match="^filtering has 5 rows and smoothing 3"):
            sio.write_probabilities_csv(tmp_path / "p.csv", make_probs([0.5] * 5),
                                        make_probs([0.5] * 3))
        assert not (tmp_path / "p.csv").exists()

    def test_series_on_other_dates_rejected(self, tmp_path, make_probs):
        # the smoothing values would be written against the filtering dates
        filt = make_probs([0.1, 0.2, 0.3])
        smth = ProbabilitySeries(np.array(["2006-01-02", "2006-01-03", "2006-01-05"],
                                          dtype="datetime64[D]"), [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="^filtering and smoothing dates differ at row 3: "
                                             "2006-01-04 and 2006-01-05$"):
            sio.write_probabilities_csv(tmp_path / "p.csv", filt, smth)
        assert not (tmp_path / "p.csv").exists()

class TestWriterBytes:
    """Each CSV writer's exact output: provenance line, header, and
    ``str`` text of every number."""

    def test_probabilities(self, tmp_path):
        dates = np.datetime64("2006-01-02", "D") + np.arange(3)
        path = sio.write_probabilities_csv(
            tmp_path / "p.csv",
            ProbabilitySeries(dates, [0.0, 0.1, 1 / 3]),
            ProbabilitySeries(dates, [1.0, 5e-324, 0.5]),
            "config=abc window=x..y",
        )
        assert path.read_text() == (
            "# config=abc window=x..y\n"
            "date,filtering,smoothing\n"
            "2006-01-02,0.0,1.0\n"
            "2006-01-03,0.1,5e-324\n"
            "2006-01-04,0.3333333333333333,0.5\n"
        )

    def test_matrix(self, tmp_path):
        path = sio.write_matrix_csv(tmp_path / "m.csv", ("a", "b"),
                                    np.array([[0.0, 0.1], [1 / 3, 0.0]]), "config=abc")
        assert path.read_text() == "# config=abc\nnode,a,b\na,0.0,0.1\nb,0.3333333333333333,0.0\n"
        path = sio.write_matrix_csv(tmp_path / "m.csv", ("a", "b"),
                                    np.array([[0.0, 2e-17], [1e22, 0.0]]))
        assert path.read_text() == "node,a,b\na,0.0,2e-17\nb,1e+22,0.0\n"

    def test_table(self, tmp_path):
        path = sio.write_table_csv(tmp_path / "t.csv", ["node", "x", "n"],
                                   [["a", 0.1, 3], ["b", 1e-300, -0.0]], "config=abc")
        assert path.read_text() == "# config=abc\nnode,x,n\na,0.1,3\nb,1e-300,-0.0\n"
        path = sio.write_table_csv(tmp_path / "t.csv", ["node", "x", "n"],
                                   [["c", np.float64(1 / 3), np.int64(4)]])
        assert path.read_text() == "node,x,n\nc,0.3333333333333333,4\n"
        path = sio.write_table_csv(tmp_path / "t.csv", ["node", "max_loss_pct"], [])
        assert path.read_text() == "node,max_loss_pct\n"
