import numpy as np
import pytest

from sinet import ConfigurationError, NodeGroup, SIIMatrix, build_sin
from sinet import io as sio


def write(path, text):
    path.write_text(text)
    return path


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
        with pytest.raises(ValueError, match="line 5"):
            sio.read_price_table(p)

    def test_unparseable_date_names_line(self, tmp_path):
        p = write(tmp_path / "a.csv", "date,price\n2006-01-02,1.0\nnot-a-date,1.1\n")
        with pytest.raises(ValueError, match="line 3"):
            sio.read_price_table(p)

    def test_missing_date_column_names_it(self, tmp_path):
        p = write(tmp_path / "a.csv", "day,price\n2006-01-02,1.0\n")
        with pytest.raises(ConfigurationError, match="'date'"):
            sio.read_price_table(p)

    def test_duplicate_date_rejected(self, tmp_path):
        p = write(
            tmp_path / "a.csv", "date,price\n2006-01-02,1.0\n2006-01-02,1.1\n"
        )
        with pytest.raises(ValueError, match="duplicate date"):
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
        with pytest.raises(FileNotFoundError):
            sio.read_price_table(tmp_path / "absent.csv")


class TestKeyValues:
    def test_comments_and_blanks(self, tmp_path):
        p = write(
            tmp_path / "c.cfg",
            "# heading\n\nalpha = 1  # trailing\nbeta = two words\n",
        )
        assert sio.read_key_values(p) == {"alpha": "1", "beta": "two words"}

    def test_duplicate_key_rejected(self, tmp_path):
        p = write(tmp_path / "c.cfg", "a = 1\na = 2\n")
        with pytest.raises(ConfigurationError, match="duplicate"):
            sio.read_key_values(p)

    def test_malformed_line_rejected(self, tmp_path):
        p = write(tmp_path / "c.cfg", "just words\n")
        with pytest.raises(ConfigurationError):
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
        with pytest.raises(ValueError, match="unknown graph format"):
            sio.export_graph(hand_graph, "gexf", tmp_path / "g.gexf")

    def test_bad_schema_rejected(self, tmp_path):
        p = write(tmp_path / "g.json", '{"schema": "other/9", "nodes": [], "edges": []}')
        with pytest.raises(ConfigurationError, match="schema"):
            sio.import_graph_json(p)


class TestTableRoundTrips:
    def test_probabilities_csv(self, tmp_path, make_probs):
        filt = make_probs([0.1, 0.5, 0.9], label="f")
        smth = make_probs([0.2, 0.6, 0.8], label="s")
        path = sio.write_probabilities_csv(tmp_path / "p.csv", filt, smth, "config=x")
        assert path.read_text().startswith("# config=x\n")
        back_f = sio.read_probabilities_csv(path, "filtering")
        back_s = sio.read_probabilities_csv(path, "smoothing")
        np.testing.assert_array_equal(back_f.values, filt.values)
        np.testing.assert_array_equal(back_s.values, smth.values)
        np.testing.assert_array_equal(back_f.timestamps, filt.timestamps)

    def test_probabilities_csv_dates_parse_as_numpy_scalars(self, tmp_path):
        cells = ["2006-01-02", "2006-02", "2007", " 2008-03-04"]
        path = write(tmp_path / "p.csv", "date,filtering,smoothing\n"
                     + "".join(f"{c},0.5,0.5\n" for c in cells))
        back = sio.read_probabilities_csv(path)
        np.testing.assert_array_equal(back.timestamps, [np.datetime64(c, "D") for c in cells])

    def test_probabilities_csv_unparseable_date_rejected(self, tmp_path):
        path = write(tmp_path / "p.csv", "date,filtering,smoothing\n2006-13-01,0.5,0.5\n")
        with pytest.raises(ValueError):
            sio.read_probabilities_csv(path)

    @pytest.mark.parametrize("cell", ["", "NaT"])
    def test_probabilities_csv_missing_date_names_line(self, tmp_path, cell):
        path = write(tmp_path / "p.csv", "# provenance\ndate,filtering,smoothing\n"
                     f"2006-01-02,0.5,0.5\n\n{cell},0.5,0.5\n")
        with pytest.raises(ConfigurationError, match=r"p\.csv: missing date on line 5"):
            sio.read_probabilities_csv(path)

    def test_probabilities_csv_nan_rejected(self, tmp_path):
        path = write(tmp_path / "p.csv", "date,filtering,smoothing\n"
                     "2006-01-02,0.5,0.5\n2006-01-03,nan,0.5\n")
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
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
        groups = sio.read_groups_csv(p)
        assert groups.group_of("a") == "industrial"
        assert groups.subsectors == {"b": "bank"}

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
