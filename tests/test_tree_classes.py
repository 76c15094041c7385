"""The tree stream holds one tree per isomorphism class.

The reference here is the exhaustive enumerator over parent arrays and
labelings, which visits every labeled tree shape with duplicates: the
canonical stream must cover exactly its isomorphism classes, once each, and
the oracle must reach the same verdicts over either stream.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from navex.evaluate import EvalContext, _compile, _run, path_equivalent, boolean_equivalent
from navex.expr import (
    Compose, Converse, Coproj1, Coproj2, Difference, EdgeLabel,
    Intersect, Proj1, Proj2, TransClosure, Union, EMPTY, IDENTITY,
)
from navex.graphs import Graph, count_trees, enumerate_trees


def parent_array_trees(max_nodes, alphabet):
    """Every rooted labeled tree as a parent array (node i attaches to an
    earlier node) times an edge labeling; isomorphic duplicates occur."""
    for n in range(1, max_nodes + 1):
        names = [f"n{i}" for i in range(n)]
        for parents in itertools.product(*(range(i) for i in range(1, n))):
            for labeling in itertools.product(alphabet, repeat=n - 1):
                edges = [(names[parents[i - 1]], labeling[i - 1], names[i])
                         for i in range(1, n)]
                yield Graph.build(names, alphabet, edges)


def canonical_form(g: Graph):
    """Sorted nested (label, child form) tuples from the root: equal exactly
    for isomorphic trees."""
    kids: dict[str, list] = {n: [] for n in g.nodes}
    for s, lab, t in g.edges:
        kids[s].append((lab, t))

    def form(node):
        return tuple(sorted((lab, form(t)) for lab, t in kids[node]))
    root, = g.nodes - {t for _, _, t in g.edges}
    return form(root)


@pytest.mark.parametrize("max_nodes,alphabet", [
    (6, "a"), (6, "ab"), (4, "abc"),
])
def test_canonical_stream_covers_each_isomorphism_class_once(max_nodes, alphabet):
    forms = [canonical_form(g) for g in enumerate_trees(max_nodes, alphabet)]
    assert len(forms) == len(set(forms))
    assert set(forms) == {canonical_form(g)
                          for g in parent_array_trees(max_nodes, alphabet)}


def test_count_trees_is_the_stream_length():
    for labels, top in ((0, 6), (1, 7), (2, 6), (3, 5)):
        for max_nodes, chains in itertools.product(range(1, top + 1), (False, True)):
            assert count_trees(max_nodes, labels, chains_only=chains) == len(
                list(enumerate_trees(max_nodes, labels, chains_only=chains)))


def test_trees_are_named_in_preorder():
    # every subtree holds a contiguous run of node numbers starting at its root
    for g in enumerate_trees(6, 2):
        parent = {int(t[1:]): int(s[1:]) for s, _, t in g.edges}
        size = [1] * len(g.nodes)
        for node in sorted(parent, reverse=True):
            size[parent[node]] += size[node]
        for node, p in parent.items():
            assert p < node < p + size[p]
            assert node + size[node] <= p + size[p]


_atoms = st.sampled_from([EMPTY, IDENTITY, EdgeLabel("a"), EdgeLabel("b")])
_exprs = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(Converse, inner), st.builds(TransClosure, inner),
        st.builds(Proj1, inner), st.builds(Proj2, inner),
        st.builds(Coproj1, inner), st.builds(Coproj2, inner),
        st.builds(Compose, inner, inner), st.builds(Union, inner, inner),
        st.builds(Intersect, inner, inner), st.builds(Difference, inner, inner),
    ),
    max_leaves=6,
)
_OLD_STREAM = [EvalContext(g) for g in parent_array_trees(5, ("a", "b"))]


@settings(max_examples=150, deadline=None)
@given(_exprs, _exprs, st.booleans())
def test_verdicts_agree_with_the_exhaustive_stream(e1, e2, related):
    if related:     # equivalent by absorption, so the whole stream is checked
        e2 = Union(e1, Intersect(e1, e2))
    code, (r1, r2) = _compile((e1, e2))
    masks = [_run(code, ctx) for ctx in _OLD_STREAM]
    path = all(m[r1] == m[r2] for m in masks)
    boolean = all(any(m[r1]) == any(m[r2]) for m in masks)
    assert path_equivalent(e1, e2, "labeled-tree", 5).equivalent == path
    assert boolean_equivalent(e1, e2, "labeled-tree", 5).equivalent == boolean
