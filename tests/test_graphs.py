"""Graph structure, classification, and enumeration."""

import pytest

from navex.graphs import (
    GRAPH_CLASSES, Graph, GraphError, ResourceLimitError, _instance_count,
    chain_graph, classify, count_trees, enumerate_trees, instances,
)


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph.build(["n0"], ["id"], [])          # reserved label
    with pytest.raises(GraphError):
        Graph.build(["n0"], ["a"], [("n0", "a", "n9")])
    with pytest.raises(GraphError):
        Graph.build(["n0"], ["a"], [("n0", "b", "n0")])


def test_edge_relation_and_json_round_trip():
    g = chain_graph(3, ["a", "b"])
    assert g.edges == {("n0", "a", "n1"), ("n1", "b", "n2")}
    assert g.labels == {"a", "b"}
    assert Graph.from_json(g.to_json()) == g


def test_classify_shapes():
    single = Graph.build(["n0"], ["a"], [])
    cert = classify(single)
    assert cert.kind == "chain" and cert.root == "n0" and cert.depth == 0

    cert = classify(chain_graph(4))
    assert cert.kind == "chain"
    assert cert.root == "n0"
    assert cert.depth == 3
    assert cert.node_depths == {"n0": 0, "n1": 1, "n2": 2, "n3": 3}

    star = Graph.build(["r", "x", "y"], ["a"], [("r", "a", "x"), ("r", "a", "y")])
    assert classify(star).kind == "tree"

    forest = Graph.build(["n0", "n1"], ["a"], [])
    assert classify(forest).kind == "forest"

    dag = Graph.build(["src", "p0", "tgt"], ["a"],
                      [("src", "a", "p0"), ("p0", "a", "tgt"), ("src", "a", "tgt")])
    assert classify(dag).kind == "general"      # target has in-degree 2

    cyc = Graph.build(["n0", "n1"], ["a"], [("n0", "a", "n1"), ("n1", "a", "n0")])
    assert classify(cyc).kind == "general"

    loop = Graph.build(["n0"], ["a"], [("n0", "a", "n0")])
    assert classify(loop).kind == "general"


def test_classify_multi_edges_do_not_fake_indegree():
    # two labels on one node pair still leave in-degree 1 in the union relation
    g = Graph.build(["n0", "n1"], ["a", "b"],
                    [("n0", "a", "n1"), ("n0", "b", "n1")])
    assert classify(g).kind == "chain"


def test_tree_counts_pinned():
    assert count_trees(1, 1) == 1
    assert count_trees(2, 1) == 2
    assert count_trees(3, 1) == 4
    assert count_trees(6, 1) == 1 + 1 + 2 + 4 + 9 + 20
    assert count_trees(5, 2) == 143
    assert count_trees(6, 2) == 601
    assert count_trees(7, 2) == 2659
    assert count_trees(5, 3) == 596
    assert count_trees(9, 2, chains_only=True) == 511
    assert len(list(enumerate_trees(3, 1))) == 4
    assert len(list(enumerate_trees(6, 2))) == 601
    assert len(list(enumerate_trees(9, 2, chains_only=True))) == 511


def test_enumerated_trees_are_trees():
    seen_tree = False
    for g in enumerate_trees(4, 2):
        cert = classify(g)
        assert cert.is_tree
        assert cert.root == "n0"
        assert len({(s, t) for s, _, t in g.edges}) == len(g.edges)    # one label per edge
        seen_tree = seen_tree or cert.kind == "tree"
    assert seen_tree


def test_enumerated_chains_are_chains():
    for g in enumerate_trees(5, 2, chains_only=True):
        assert classify(g).kind == "chain"


def test_enumeration_ceiling():
    with pytest.raises(ResourceLimitError):
        list(enumerate_trees(10, 2, ceiling=1000))


def test_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("NAVEX_MAX_INSTANCES", "3")
    with pytest.raises(ResourceLimitError):
        list(enumerate_trees(3, 1))
    monkeypatch.setenv("NAVEX_MAX_INSTANCES", "1000000")
    assert len(list(enumerate_trees(3, 1))) == 4
    monkeypatch.setenv("NAVEX_MAX_INSTANCES", "lots")
    with pytest.raises(ValueError, match="NAVEX_MAX_INSTANCES"):
        list(enumerate_trees(3, 1))


def test_chain_graph_alphabet_carries_its_label():
    assert chain_graph(1, "b").labels == {"b"}
    assert chain_graph(3, "b").labels == {"b"}
    assert chain_graph(1, []).labels == {"a"}


@pytest.mark.parametrize("graph_class", GRAPH_CLASSES)
def test_instance_count_is_the_stream_length(graph_class):
    for max_nodes, labels in ((3, 1), (3, 2), (4, 3), (3, 0)):
        assert _instance_count(graph_class, max_nodes, labels) == len(
            list(instances(graph_class, max_nodes, labels)))


def test_instances_class_policies():
    assert len(list(instances("unlabeled-chain", 3))) == 3
    assert len(list(instances("unlabeled-tree", 4))) == 1 + 1 + 2 + 4
    assert len(list(instances("labeled-chain", 3, 2))) == 1 + 2 + 4
    with pytest.raises(GraphError):
        list(instances("mystery-class", 3))
