"""The bounded oracles evaluate up to 4,096 consecutive instances of the
stream, of any node counts, at once on lane masks.  The reference here is
the per-instance loop they replace: one `EvalContext` per graph of
`instances()`, in stream order, where the first instance that tells the
two expressions apart is the witness.  The lane oracle must reach the same
verdict, count and witness.

The stream is over the labels the two expressions name.  The reference can
also stream over extra names that neither uses: an edge with such a label is
invisible to both, so the verdict and the witness must stay the same.
"""

from hypothesis import given, settings, strategies as st

import navex.evaluate as ev
from navex.evaluate import (
    EquivVerdict, EvalContext, _compile, _run, boolean_equivalent, evaluate,
    path_equivalent,
)
from navex.expr import (
    Compose, Converse, Coproj1, Coproj2, Difference, EdgeLabel,
    Intersect, Proj1, Proj2, TransClosure, Union, EMPTY, IDENTITY, labels_used, parse,
)
from navex.graphs import GRAPH_CLASSES, Graph, count_trees, instances


def per_instance_check(e1, e2, graph_class, max_nodes, semantics, extra=0):
    """The oracle as a loop over the instance stream, one context each, over
    the labels e1 and e2 name, or `a`, and on labeled classes `extra` more
    names that neither uses."""
    names = tuple(sorted(labels_used(e1) | labels_used(e2))) or ("a",)
    if not graph_class.startswith("unlabeled"):
        names = tuple(sorted(names + tuple(f"x{i}" for i in range(extra))))
    stream_labels = tuple(f"l{i}" for i in range(len(names)))
    rename = dict(zip(names, stream_labels))
    code, (r1, r2) = _compile((e1, e2))
    code = [(op, rename[x], y) if op == ev._LABEL else (op, x, y) for op, x, y in code]
    checked = 0
    for g in instances(graph_class, max_nodes, stream_labels):
        checked += 1
        masks = _run(code, EvalContext(g))
        x, y = masks[r1], masks[r2]
        if any(x) != any(y) if semantics == "boolean" else x != y:
            back = {v: k for k, v in rename.items()}
            witness = Graph(g.nodes, frozenset(back[lab] for lab in g.labels),
                            frozenset((s, back[lab], t) for s, lab, t in g.edges))
            return EquivVerdict(False, witness, checked, graph_class, max_nodes,
                                len(names), semantics)
    return EquivVerdict(True, None, checked, graph_class, max_nodes, len(names), semantics)


def lane_check(e1, e2, graph_class, max_nodes, semantics):
    oracle = boolean_equivalent if semantics == "boolean" else path_equivalent
    return oracle(e1, e2, graph_class, max_nodes)


def _exprs_over(*names):
    atoms = st.sampled_from([EMPTY, IDENTITY, *map(EdgeLabel, names)])
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(Converse, inner), st.builds(TransClosure, inner),
            st.builds(Proj1, inner), st.builds(Proj2, inner),
            st.builds(Coproj1, inner), st.builds(Coproj2, inner),
            st.builds(Compose, inner, inner), st.builds(Union, inner, inner),
            st.builds(Intersect, inner, inner), st.builds(Difference, inner, inner),
        ),
        max_leaves=6,
    )


_LABELED, _UNLABELED = _exprs_over("a", "b", "c"), _exprs_over("a")


@st.composite
def _cases(draw, classes=GRAPH_CLASSES, max_nodes=6):
    graph_class = draw(st.sampled_from(classes))
    exprs = _UNLABELED if graph_class.startswith("unlabeled") else _LABELED
    e1, e2 = draw(exprs), draw(exprs)
    if draw(st.booleans()):     # equivalent by absorption: the whole stream is checked
        e2 = Union(e1, Intersect(e1, e2))
    return (e1, e2, graph_class, draw(st.integers(1, max_nodes)),
            draw(st.sampled_from(["path", "boolean"])))


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_lane_verdicts_match_the_per_instance_loop(case):
    assert lane_check(*case) == per_instance_check(*case)


@settings(max_examples=60, deadline=None)
@given(_cases(("labeled-tree", "labeled-chain"), max_nodes=5), st.integers(1, 2))
def test_label_names_neither_expression_uses_change_no_verdict(case, extra):
    plain, padded = lane_check(*case), per_instance_check(*case, extra=extra)
    assert padded.equivalent == plain.equivalent
    assert padded.checked >= plain.checked
    if not plain.equivalent:
        assert (padded.witness.nodes, padded.witness.edges) == (
            plain.witness.nodes, plain.witness.edges)


_CUT_GRAPHS = [*instances("labeled-tree", 5, "abc"), *instances("labeled-chain", 6, "abc")]


@settings(max_examples=100, deadline=None)
@given(_exprs_over("a", "b"), st.lists(st.sampled_from(_CUT_GRAPHS), min_size=1, max_size=20))
def test_edges_with_labels_an_expression_does_not_name_are_invisible_to_it(e, graphs):
    # cutting the c edges of a tree or chain leaves a forest of smaller
    # instances over a and b, which relates what the whole related
    for g in graphs:
        cut = Graph(g.nodes, g.labels, frozenset(x for x in g.edges if x[1] != "c"))
        assert evaluate(e, g) == evaluate(e, cut)


_LANE_LABELS = ("l0", "l1")
_STREAM_LABELED, _STREAM_UNLABELED = _exprs_over(*_LANE_LABELS), _exprs_over("l0")


@st.composite
def _lane_runs(draw):
    graph_class = draw(st.sampled_from(GRAPH_CLASSES))
    exprs = _STREAM_UNLABELED if graph_class.startswith("unlabeled") else _STREAM_LABELED
    return draw(exprs), draw(exprs), graph_class, draw(st.integers(1, 6))


def assert_slots_match(exprs, graph_class, n):
    """Every slot of the plan of `exprs` (over l0, l1) on the lanes of the
    instances of 1..n nodes relates in each lane what the slot's mask
    relates on that instance, and nothing at a node that instance lacks."""
    names = _LANE_LABELS[:1] if graph_class.startswith("unlabeled") else _LANE_LABELS
    code, _ = _compile(exprs)
    graphs = list(instances(graph_class, n, names))
    exists, label_rels = ev._label_lanes(graph_class.endswith("chain"), n, len(names), 0)
    assert exists[0] == (1 << len(graphs)) - 1 and len(exists) == n
    rels = _run(code, ev._Lanes(exists, dict(zip(names, label_rels))))
    for rel in rels:
        assert all(m & ~(exists[k // n] & exists[k % n]) == 0 for k, m in enumerate(rel))
    for lane, g in enumerate(graphs):
        ctx = EvalContext(g)
        for rel, mask in zip(rels, _run(code, ctx)):
            assert ctx.decode(mask) == {(f"n{k // n}", f"n{k % n}")
                                        for k, m in enumerate(rel) if m >> lane & 1}


@settings(max_examples=150, deadline=None)
@given(_lane_runs())
def test_every_slot_on_lanes_matches_the_per_instance_masks(run):
    # a verdict can hide a wrong slot; the relations of every slot cannot
    e1, e2, graph_class, n = run
    assert_slots_match((e1, e2), graph_class, n)


def test_a_stream_of_several_chunks_matches_the_per_instance_loop():
    # 9,841 labeled chains of at most 9 nodes over 3 labels: three chunks of lanes
    assert count_trees(9, 3, chains_only=True) > 2 * ev._LANES
    any_step = "(a | b | c)"
    pairs = [
        # separated first by the 9-node chain c a a a a a a a, in the second chunk
        (parse(f"pi1(c . {any_step}^7)"), EMPTY, "boolean"),
        (parse(f"{any_step}+"), parse(f"{any_step} | {any_step}+ . {any_step}"), "path"),
    ]
    for e1, e2, semantics in pairs:
        case = (e1, e2, "labeled-chain", 9, semantics)
        assert lane_check(*case) == per_instance_check(*case)
    first, full = (lane_check(e1, e2, "labeled-chain", 9, s) for e1, e2, s in pairs)
    assert first.checked == 3280 + 2 * 3 ** 7 + 1 > 3280 + ev._LANES
    assert first.witness.edges == {("n0", "c", "n1")} | {
        (f"n{i}", "a", f"n{i + 1}") for i in range(1, 8)}
    assert (full.equivalent, full.checked) == (True, 9841)


def test_label_lanes_list_the_instances_in_stream_order():
    # 9-node chains over 3 labels fill three chunks, the first boundary
    # falling inside the 9-node chains
    for graph_class, max_nodes, labels in (("labeled-tree", 5, 2), ("labeled-chain", 4, 3),
                                           ("unlabeled-tree", 6, 1), ("labeled-chain", 9, 3)):
        names = tuple(f"l{i}" for i in range(labels))
        graphs = list(instances(graph_class, max_nodes, names))
        for chunk in range(-(-len(graphs) // ev._LANES)):
            exists, rels = ev._label_lanes(graph_class.endswith("chain"), max_nodes, labels,
                                           chunk)
            n = len(exists)
            sizes = [sum(mask >> lane & 1 for mask in exists)
                     for lane in range(exists[0].bit_length())]
            edges = [set() for _ in sizes]
            for lab, rel in enumerate(rels):
                for k, mask in enumerate(rel):
                    for lane in ev._bits(mask):
                        edges[lane].add((f"n{k // n}", names[lab], f"n{k % n}"))
            stream = graphs[chunk * ev._LANES:(chunk + 1) * ev._LANES]
            assert list(zip(sizes, edges)) == [(len(g.nodes), g.edges) for g in stream]


def test_every_unary_operator_over_a_closure_with_converse():
    # closure of a relation with bits below the diagonal squares to a
    # fixpoint; under each unary operator, on every class
    a = EdgeLabel("l0")
    walks = TransClosure(Union(a, Converse(a)))
    exprs = [op(walks) for op in (Converse, TransClosure, Proj1, Proj2, Coproj1, Coproj2)]
    exprs.append(TransClosure(Converse(Compose(a, a))))
    for graph_class in GRAPH_CLASSES:
        for n in range(1, 6):
            assert_slots_match(exprs, graph_class, n)
