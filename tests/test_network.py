import numpy as np
import pytest

import oracles
from sinet import (
    ConfigurationError,
    NodeGroup,
    SIIMatrix,
    SINGraph,
    build_sin,
    compute_indicators,
)
from sinet.network import ALL_INDICATORS


@pytest.fixture
def hand_matrix():
    # x -> y: 0.4, y -> x: 0.1, x -> z: 0.2, z -> x: 0.0,
    # y -> z: 0.0, z -> y: 0.3
    values = np.array(
        [
            [0.0, 0.4, 0.2],
            [0.1, 0.0, 0.0],
            [0.0, 0.3, 0.0],
        ]
    )
    return SIIMatrix(("x", "y", "z"), values)


@pytest.fixture
def hand_groups():
    return NodeGroup({"x": "industrial", "y": "industrial", "z": "financial"})


def random_matrix(rng, nodes):
    k = len(nodes)
    values = rng.uniform(0.0, 1.0, (k, k))
    np.fill_diagonal(values, 0.0)
    return SIIMatrix(tuple(nodes), values)


class TestComputeIndicators:
    def test_all_zero_matrix(self, hand_groups):
        m = SIIMatrix(("x", "y", "z"), np.zeros((3, 3)))
        table = compute_indicators(m, hand_groups)
        for name in ALL_INDICATORS:
            np.testing.assert_array_equal(table.column(name), 0.0)

    def test_hand_values(self, hand_matrix, hand_groups):
        table = compute_indicators(hand_matrix, hand_groups)
        assert table.value("x", "SI-to-All") == pytest.approx(0.6)
        assert table.value("x", "SI-from-All") == pytest.approx(0.1)
        assert table.value("x", "NSII-on-All") == pytest.approx(0.5)
        assert table.value("x", "SI-to-Fin") == pytest.approx(0.2)
        assert table.value("x", "NSII-on-IX") == pytest.approx(0.3)

    def test_matches_bruteforce_sums(self, hand_groups):
        rng = np.random.default_rng(19)
        nodes = ["a", "b", "c", "d", "e", "f"]
        groups = NodeGroup(
            {n: ("industrial" if i < 4 else "financial") for i, n in enumerate(nodes)}
        )
        m = random_matrix(rng, nodes)
        table = compute_indicators(m, groups)
        fin = set(nodes[4:])
        ind = set(nodes[:4])
        for i, node in enumerate(nodes):
            to_all = sum(m[node, j] for j in nodes if j != node)
            from_all = sum(m[j, node] for j in nodes if j != node)
            to_fin = sum(m[node, j] for j in fin if j != node)
            from_ix = sum(m[j, node] for j in ind if j != node)
            assert table.value(node, "SI-to-All") == pytest.approx(to_all, abs=1e-12)
            assert table.value(node, "SI-from-All") == pytest.approx(from_all, abs=1e-12)
            assert table.value(node, "SI-to-Fin") == pytest.approx(to_fin, abs=1e-12)
            assert table.value(node, "SI-from-IX") == pytest.approx(from_ix, abs=1e-12)

    def test_net_identities_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            nodes = [f"n{i}" for i in range(7)]
            labels = rng.choice(["industrial", "financial"], size=7)
            if len(set(labels)) == 1:
                labels[0] = "financial" if labels[0] == "industrial" else "industrial"
            groups = NodeGroup(dict(zip(nodes, labels)))
            table = compute_indicators(random_matrix(rng, nodes), groups)
            for suffix in ("All", "Fin", "IX"):
                net = table.column(f"NSII-on-{suffix}")
                gross = table.column(f"SI-to-{suffix}") - table.column(f"SI-from-{suffix}")
                np.testing.assert_array_equal(net, gross)
            assert abs(table.column("NSII-on-All").sum()) < 1e-12

    def test_unlabeled_node_rejected(self, hand_matrix):
        groups = NodeGroup({"x": "industrial", "y": "industrial"})
        with pytest.raises(ConfigurationError):
            compute_indicators(hand_matrix, groups)


class TestBuildSin:
    def test_hand_threshold_keeps_two_edges(self, hand_matrix, hand_groups):
        g = build_sin(hand_matrix, hand_groups, threshold=0.25)
        edges = {(e[0], e[1]) for e in g.edges}
        assert edges == {("x", "y"), ("z", "y")}
        weights = {(e[0], e[1]): e[2] for e in g.edges}
        # candidate nets are {0.3, 0.2, 0.3}: both retained edges rescale to 1
        assert weights[("x", "y")] == pytest.approx(1.0)
        assert weights[("z", "y")] == pytest.approx(1.0)

    def test_high_threshold_keeps_nodes_only(self, hand_matrix, hand_groups):
        g = build_sin(hand_matrix, hand_groups, threshold=10.0)
        assert g.edge_count == 0
        assert set(g.nodes) == {"x", "y", "z"}

    def test_zero_threshold_keeps_all_positive_pairs(self, hand_matrix, hand_groups):
        g = build_sin(hand_matrix, hand_groups, threshold=0.0)
        assert {(e[0], e[1]) for e in g.edges} == {("x", "y"), ("x", "z"), ("z", "y")}

    def test_unidirectional_and_monotone_in_threshold(self):
        rng = np.random.default_rng(47)
        nodes = [f"n{i}" for i in range(8)]
        groups = NodeGroup({n: ("industrial" if i % 2 else "financial") for i, n in enumerate(nodes)})
        m = random_matrix(rng, nodes)
        last_count = None
        for threshold in (0.0, 0.1, 0.2, 0.4, 0.8):
            g = build_sin(m, groups, threshold=threshold)
            pairs = {(e[0], e[1]) for e in g.edges}
            for src, dst in pairs:
                assert (dst, src) not in pairs
                assert src != dst
            if last_count is not None:
                assert g.edge_count <= last_count
            last_count = g.edge_count

    def test_matches_pair_loop(self):
        # zero and tied nets, one-group baskets and tied losses included
        rng = np.random.default_rng(59)
        for k in range(200):
            K = int(rng.integers(1, 9))
            nodes = tuple(f"n{i}" for i in range(K))
            levels = [0.0, 0.1, 0.2, 0.35, 0.5]
            values = rng.choice(levels, (K, K)) if k % 2 else rng.random((K, K))
            np.fill_diagonal(values, 0.0)
            labels = dict(zip(nodes, rng.choice(["industrial", "financial"], K).tolist()))
            losses = dict(zip(nodes, rng.choice([5.0, 10.0, 12.5], K).tolist()))
            m, groups = SIIMatrix(nodes, values), NodeGroup(labels)
            threshold = float(rng.choice([0.0, 0.1, 0.3]))
            g = build_sin(m, groups, threshold, losses if k % 3 else None)
            want = oracles.sin_by_pairs(nodes, values, labels, compute_indicators(m, groups),
                                        threshold, losses if k % 3 else None)
            assert (list(g.edges), g.size_values, g.color_values) == want
            assert g.groups == labels

    def test_weights_rescaled_over_every_candidate(self, hand_groups):
        # nets 0.1 (x -> y), 0.5 (x -> z) and 0.9 (y -> z): the threshold
        # drops x -> y, whose net still sets the scale's zero
        values = np.array([[0.0, 0.1, 0.5], [0.0, 0.0, 0.9], [0.0, 0.0, 0.0]])
        g = build_sin(SIIMatrix(("x", "y", "z"), values), hand_groups, threshold=0.4)
        assert [(src, dst) for src, dst, _ in g.edges] == [("x", "z"), ("y", "z")]
        assert [w for _, _, w in g.edges] == pytest.approx([0.5, 1.0])

    def test_weights_rescaled_to_unit_interval(self):
        rng = np.random.default_rng(53)
        nodes = [f"n{i}" for i in range(6)]
        groups = NodeGroup({n: "industrial" for n in nodes[:3]} | {n: "financial" for n in nodes[3:]})
        g = build_sin(random_matrix(rng, nodes), groups, threshold=0.0)
        weights = [e[2] for e in g.edges]
        assert all(0.0 <= w <= 1.0 for w in weights)
        assert max(weights) == pytest.approx(1.0)

    def test_node_size_values_are_group_ranks(self, hand_matrix, hand_groups):
        g = build_sin(hand_matrix, hand_groups, threshold=0.25)
        # industrial: NSII-on-IX is x: 0.3, y: -0.3 -> ranks 2, 1
        assert g.size_values["x"] == 2.0
        assert g.size_values["y"] == 1.0
        # z is the only financial node
        assert g.size_values["z"] == 1.0

    def test_loss_color_ranks_within_group(self, hand_matrix, hand_groups):
        losses = {"x": 70.0, "y": 40.0, "z": 55.0}
        g = build_sin(hand_matrix, hand_groups, threshold=0.25, losses=losses)
        assert g.color_values["x"] == 2.0
        assert g.color_values["y"] == 1.0
        assert g.color_values["z"] == 1.0

    def test_missing_loss_rejected(self, hand_matrix, hand_groups):
        with pytest.raises(ConfigurationError):
            build_sin(hand_matrix, hand_groups, losses={"x": 1.0})

    def test_negative_threshold_rejected(self, hand_matrix, hand_groups):
        with pytest.raises(ValueError):
            build_sin(hand_matrix, hand_groups, threshold=-0.1)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, hand_matrix, hand_groups, threshold):
        # NaN fails every comparison, so a NaN threshold used to keep no edge
        with pytest.raises(ValueError, match=f"threshold must be finite.*got {threshold!r}"):
            build_sin(hand_matrix, hand_groups, threshold=threshold)


class TestNodeGroup:
    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeGroup({"a": "industrious"})

    def test_group_sets(self):
        g = NodeGroup({"a": "financial", "b": "industrial", "c": "financial"})
        assert [g.group_of(n) for n in "abc"] == ["financial", "industrial", "financial"]


class TestSINGraph:
    def graph(self, nodes, edges):
        return SINGraph(nodes=nodes, groups={n: "industrial" for n in nodes},
                        size_values={}, color_values={}, edges=edges, threshold=0.0)

    def test_repeated_node_rejected(self):
        with pytest.raises(ValueError, match=r"^repeated node 'a'$"):
            self.graph(("a", "b", "a"), ())

    @pytest.mark.parametrize("edge", [("a", "q", 0.5), ("q", "a", 0.5)])
    def test_edge_to_unlisted_node_rejected(self, edge):
        with pytest.raises(ValueError, match=r"^edge \('.', '.'\) has an endpoint that is not a node$"):
            self.graph(("a", "b"), (edge,))
