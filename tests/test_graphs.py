"""Graph structure and enumeration."""

import pytest

from navex.evaluate import path_equivalent
from navex.expr import parse
from navex.graphs import (
    GRAPH_CLASSES, Graph, GraphError, ResourceLimitError, _alphabet, _instance_count,
    chain_graph, count_trees, enumerate_trees, instances,
)


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph.build(["n0"], ["id"], [])          # reserved label
    with pytest.raises(GraphError):
        Graph.build(["n0"], ["a"], [("n0", "a", "n9")])
    with pytest.raises(GraphError):
        Graph.build(["n0"], ["a"], [("n0", "b", "n0")])


def test_edge_relation():
    g = chain_graph(3, ["a", "b"])
    assert g.edges == {("n0", "a", "n1"), ("n1", "b", "n2")}
    assert g.labels == {"a", "b"}


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


def test_default_label_names_continue_past_z():
    assert count_trees(2, 28) == 29
    assert len(list(instances("labeled-chain", 2, 27))) == 28
    names = _alphabet(28)
    assert names[25:] == ("z", "a1", "a2")
    assert {g.labels for g in instances("labeled-chain", 2, 28)} == {frozenset(names)}
    with pytest.raises(GraphError):
        count_trees(2, -1)


def out_degrees_of_rooted_tree(g):
    """Assert that g is a tree rooted at n0, nodes n0, n1, ... in preorder:
    n0 has no incoming edge, every other node exactly one, and each edge
    goes from an earlier name to a later one (so there is no cycle).
    Returns each node's number of outgoing edges."""
    order = {f"n{i}": i for i in range(len(g.nodes))}
    assert set(order) == g.nodes
    in_degree = dict.fromkeys(g.nodes, 0)
    out_degree = dict.fromkeys(g.nodes, 0)
    for s, _, t in g.edges:
        assert order[s] < order[t]
        in_degree[t] += 1
        out_degree[s] += 1
    assert in_degree == {n: int(n != "n0") for n in g.nodes}
    return out_degree


def test_enumerated_trees_are_trees():
    seen_tree = False
    for g in enumerate_trees(4, 2):
        out_degree = out_degrees_of_rooted_tree(g)
        assert len({(s, t) for s, _, t in g.edges}) == len(g.edges)    # one label per edge
        seen_tree = seen_tree or max(out_degree.values()) > 1       # a branching node
    assert seen_tree


def test_enumerated_chains_are_chains():
    for g in enumerate_trees(5, 2, chains_only=True):
        assert max(out_degrees_of_rooted_tree(g).values()) <= 1


def test_enumeration_ceiling(monkeypatch):
    monkeypatch.setenv("NAVEX_MAX_INSTANCES", "1000")
    with pytest.raises(ResourceLimitError):
        list(enumerate_trees(10, 2))


def test_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("NAVEX_MAX_INSTANCES", "3")
    with pytest.raises(ResourceLimitError):
        list(enumerate_trees(3, 1))
    monkeypatch.setenv("NAVEX_MAX_INSTANCES", "1000000")
    assert len(list(enumerate_trees(3, 1))) == 4
    for value in ("lots", "0", "-5"):
        monkeypatch.setenv("NAVEX_MAX_INSTANCES", value)
        with pytest.raises(ValueError, match="NAVEX_MAX_INSTANCES"):
            list(enumerate_trees(3, 1))
        with pytest.raises(ValueError, match="NAVEX_MAX_INSTANCES"):
            path_equivalent(parse("a"), parse("a"), "labeled-tree", 3)


def test_chain_graph_alphabet_carries_its_label():
    assert chain_graph(1, "b").labels == {"b"}
    assert chain_graph(3, "b").labels == {"b"}
    assert chain_graph(1, []).labels == {"a"}


@pytest.mark.parametrize("n_nodes", [0, -3])
def test_chain_graph_needs_a_root(n_nodes):
    for labels in ("a", []):
        with pytest.raises(GraphError, match="at least one node"):
            chain_graph(n_nodes, labels)


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
