"""Evaluator semantics, checked clause by clause and against an independent
reference implementation over plain pair sets."""

import collections
import copy
import functools
import gc
import itertools
import pickle
import random
import re
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import navex.evaluate as ev
from navex.evaluate import (
    EvalContext, Relation, UnknownLabelError, _compile, _run, boolean_equivalent,
    evaluate, evaluate_boolean, path_equivalent,
)
from navex.expr import (
    Compose, Converse, Coproj1, Coproj2, Difference, EdgeLabel,
    Empty, Identity, Intersect, Proj1, Proj2, TransClosure, Union,
    EMPTY, IDENTITY, _children, _distinct_nodes, parse, power,
)
from navex.graphs import (
    GRAPH_CLASSES, Graph, GraphError, ResourceLimitError, chain_graph, enumerate_trees,
    instances,
)
from navex.rewrite import run_pipeline

from automaton_eval import diagonal_nodes


# ---------------------------------------------------------------------------
# an independent reference evaluator over frozensets of pairs

def _then(r1, r2) -> set:
    """The pairs (m, q) with (m, n) in r1 and (n, q) in r2."""
    successors: dict = {}
    for p, q in r2:
        successors.setdefault(p, set()).add(q)
    return {(m, q) for m, n in r1 for q in successors.get(n, ())}


def _closure(r) -> set:
    """The transitive closure of the pair set `r`."""
    total = set(r)
    frontier = set(r)
    while frontier:
        step = _then(frontier, r)
        frontier = step - total
        total |= step
    return total


def reference_eval(e, g: Graph) -> frozenset:
    nodes = g.nodes
    if isinstance(e, Empty):
        return frozenset()
    if isinstance(e, Identity):
        return frozenset((n, n) for n in nodes)
    if isinstance(e, EdgeLabel):
        if e.name not in g.labels:
            raise UnknownLabelError(e.name)
        return frozenset((s, t) for s, lab, t in g.edges if lab == e.name)
    if isinstance(e, Converse):
        return frozenset((n, m) for m, n in reference_eval(e.child, g))
    if isinstance(e, TransClosure):
        return frozenset(_closure(reference_eval(e.child, g)))
    if isinstance(e, Proj1):
        r = reference_eval(e.child, g)
        return frozenset((m, m) for m, _ in r)
    if isinstance(e, Proj2):
        r = reference_eval(e.child, g)
        return frozenset((n, n) for _, n in r)
    if isinstance(e, Coproj1):
        r = reference_eval(e.child, g)
        firsts = {m for m, _ in r}
        return frozenset((n, n) for n in nodes if n not in firsts)
    if isinstance(e, Coproj2):
        r = reference_eval(e.child, g)
        seconds = {n for _, n in r}
        return frozenset((n, n) for n in nodes if n not in seconds)
    if isinstance(e, Compose):
        return frozenset(_then(reference_eval(e.left, g), reference_eval(e.right, g)))
    if isinstance(e, Union):
        return reference_eval(e.left, g) | reference_eval(e.right, g)
    if isinstance(e, Intersect):
        return reference_eval(e.left, g) & reference_eval(e.right, g)
    if isinstance(e, Difference):
        return reference_eval(e.left, g) - reference_eval(e.right, g)
    raise TypeError(type(e).__name__)


a, b = EdgeLabel("a"), EdgeLabel("b")


# ---------------------------------------------------------------------------
# hand-frozen clause checks on a 4-chain with alternating labels

@pytest.fixture(scope="module")
def alt_chain():
    return chain_graph(4, ["a", "b", "a"])


def test_atoms(alt_chain):
    assert evaluate(parse("0"), alt_chain) == frozenset()
    assert evaluate(parse("id"), alt_chain) == {
        ("n0", "n0"), ("n1", "n1"), ("n2", "n2"), ("n3", "n3")}
    assert evaluate(a, alt_chain) == {("n0", "n1"), ("n2", "n3")}
    assert evaluate(b, alt_chain) == {("n1", "n2")}


def test_converse_and_compose(alt_chain):
    assert evaluate(parse("conv(a)"), alt_chain) == {("n1", "n0"), ("n3", "n2")}
    assert evaluate(parse("a . b"), alt_chain) == {("n0", "n2")}
    assert evaluate(parse("a . b . a"), alt_chain) == {("n0", "n3")}
    assert evaluate(parse("b . b"), alt_chain) == frozenset()


def test_transitive_closure(alt_chain):
    assert evaluate(parse("(a | b)+"), alt_chain) == {
        ("n0", "n1"), ("n0", "n2"), ("n0", "n3"),
        ("n1", "n2"), ("n1", "n3"), ("n2", "n3")}
    assert evaluate(parse("a+"), alt_chain) == {("n0", "n1"), ("n2", "n3")}


def test_projections(alt_chain):
    assert evaluate(parse("pi1(a)"), alt_chain) == {("n0", "n0"), ("n2", "n2")}
    assert evaluate(parse("pi2(a)"), alt_chain) == {("n1", "n1"), ("n3", "n3")}
    assert evaluate(parse("copi1(a)"), alt_chain) == {("n1", "n1"), ("n3", "n3")}
    assert evaluate(parse("copi2(b)"), alt_chain) == {
        ("n0", "n0"), ("n1", "n1"), ("n3", "n3")}


def test_set_operations(alt_chain):
    assert evaluate(parse("a | b"), alt_chain) == {
        ("n0", "n1"), ("n1", "n2"), ("n2", "n3")}
    assert evaluate(parse("a & b"), alt_chain) == frozenset()
    assert evaluate(parse("(a | b) \\ b"), alt_chain) == {
        ("n0", "n1"), ("n2", "n3")}


def test_every_operator_on_a_graph_without_nodes():
    g = Graph.build([], ["a"], [])
    for text in ("0", "id", "a", "conv(a)", "a+", "(a | conv(a))+", "pi1(a)", "pi2(a)",
                 "copi1(a)", "copi2(a)", "a & id", "id \\ a", "a . id", "a | id"):
        e = parse(text)
        r = evaluate(e, g)
        assert r == reference_eval(e, g) == frozenset() and len(r) == 0, text
        assert not evaluate_boolean(e, g), text


def test_unknown_label(alt_chain):
    with pytest.raises(UnknownLabelError,
                       match=r"^label 'zz' is not among the graph's labels \['a', 'b'\]$"):
        evaluate(parse("zz"), alt_chain)
    with pytest.raises(KeyError):
        evaluate_boolean(parse("a . zz"), alt_chain)


def test_boolean_and_holds_at(alt_chain):
    assert evaluate_boolean(parse("a . b"), alt_chain)
    assert not evaluate_boolean(parse("b . b"), alt_chain)
    ctx = EvalContext(alt_chain)
    has_a_edge = diagonal_nodes(ctx, parse("pi1(a)"))
    assert has_a_edge >> ctx.index["n0"] & 1
    assert not has_a_edge >> ctx.index["n1"] & 1


# ---------------------------------------------------------------------------
# worked example: the class-hierarchy tree

def test_class_hierarchy_goldens(class_hierarchy):
    g = class_hierarchy
    alphabet = ["method", "subclass"]
    descendants = evaluate(parse("subclass+"), g)
    assert descendants == {
        ("Object", "AbstractList"), ("Object", "ArrayList"),
        ("Object", "LinkedList"), ("AbstractList", "ArrayList"),
        ("AbstractList", "LinkedList")}

    no_own_methods = evaluate(parse("copi1(method)"), g)
    assert no_own_methods == {
        ("ArrayList", "ArrayList"), ("toString()", "toString()"),
        ("size()", "size()"), ("addFront(element)", "addFront(element)")}

    leaf_definers = evaluate(
        parse("pi1(method) \\ pi1(subclass+ . method)"), g)
    assert leaf_definers == {("LinkedList", "LinkedList")}
    assert parse("E", alphabet=alphabet) == Union(
        EdgeLabel("method"), EdgeLabel("subclass"))


# ---------------------------------------------------------------------------
# agreement with the reference evaluator

_atoms = st.sampled_from([EMPTY, IDENTITY, a, b])
_exprs = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(Converse, inner),
        st.builds(TransClosure, inner),
        st.builds(Proj1, inner),
        st.builds(Proj2, inner),
        st.builds(Coproj1, inner),
        st.builds(Coproj2, inner),
        st.builds(Compose, inner, inner),
        st.builds(Union, inner, inner),
        st.builds(Intersect, inner, inner),
        st.builds(Difference, inner, inner),
    ),
    max_leaves=10,
)

_graphs = st.builds(
    lambda n, edges: Graph.build(
        [f"n{i}" for i in range(n)], ["a", "b"],
        {(f"n{s % n}", lab, f"n{t % n}") for s, lab, t in edges}),
    st.integers(min_value=1, max_value=4),
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["a", "b"]),
                       st.integers(0, 3)), max_size=10),
)


@settings(max_examples=300, deadline=None)
@given(_exprs, _graphs)
def test_bitmask_evaluator_matches_reference(e, g):
    assert evaluate(e, g) == reference_eval(e, g)


@settings(max_examples=100, deadline=None)
@given(_exprs, _graphs)
def test_transitive_closure_is_a_fixpoint(e, g):
    r = evaluate(e, g)
    tc = evaluate(TransClosure(e), g)
    composed = frozenset((m, q) for m, n in tc for p, q in r if n == p)
    assert r <= tc
    assert tc == r | composed


# ---------------------------------------------------------------------------
# the result: a set of pairs held as rows, decoded only when read

def test_relation_is_a_set_of_pairs(alt_chain):
    r = evaluate(parse("a | b"), alt_chain)
    pairs = {("n0", "n1"), ("n1", "n2"), ("n2", "n3")}
    assert isinstance(r, Relation) and not isinstance(r, frozenset)
    for other in (pairs, frozenset(pairs)):
        assert r == other and other == r
        assert not r != other and not other != r
        assert r != other - {("n0", "n1")} and other - {("n0", "n1")} != r
    assert r != [("n0", "n1"), ("n1", "n2"), ("n2", "n3")]
    assert hash(r) == hash(frozenset(pairs))
    assert len(r) == len(set(r)) == 3
    assert ("n0", "n1") in r and ("n1", "n0") not in r and "n0" not in r
    extra = {("n0", "n1"), ("x", "y")}
    for got, want in ((r & extra, {("n0", "n1")}), (r | extra, pairs | extra),
                      (r - extra, pairs - extra), (extra - r, {("x", "y")}),
                      (frozenset(extra) | r, pairs | extra)):
        assert type(got) is frozenset and got == want
    copied = pickle.loads(pickle.dumps(r))
    assert type(copied) is Relation and copied == r and copied == pairs
    empty = evaluate(parse("0"), alt_chain)
    assert not empty and len(empty) == 0 and empty == set() and hash(empty) == hash(frozenset())


def test_relations_on_one_graph_compare_by_mask(alt_chain):
    r1 = evaluate(parse("a . b"), alt_chain)
    r2 = evaluate(parse("(a . b . a) . conv(a)"), alt_chain)
    assert r1 == r2 and r1 != evaluate(a, alt_chain) and len(r1) == 1
    assert r1._pairs is None and r2._pairs is None     # nothing was decoded


def test_relations_on_different_node_orders_compare_by_pairs():
    forward = Graph.build(["n0", "n1"], ["a"], {("n0", "a", "n1")})
    backward = Graph.build(["n0", "n1"], ["a"], {("n1", "a", "n0")})
    assert EvalContext(forward).node_order != EvalContext(backward).node_order
    # the same rows (row 0, column 1) mean a different pair on each
    assert evaluate(a, forward).rows == evaluate(a, backward).rows
    assert evaluate(a, forward) != evaluate(a, backward)
    # different rows can mean the same pairs
    assert evaluate(a, forward) == evaluate(parse("conv(a)"), backward) == {("n0", "n1")}
    assert evaluate(IDENTITY, forward) == evaluate(IDENTITY, backward)


@settings(max_examples=200, deadline=None)
@given(_exprs, _exprs, _graphs)
def test_relation_behaves_as_the_reference_pair_set(e1, e2, g):
    r1, r2 = evaluate(e1, g), evaluate(e2, g)
    ref1, ref2 = reference_eval(e1, g), reference_eval(e2, g)
    assert (r1 == r2) == (ref1 == ref2)
    assert r1 == ref1 and ref1 == r1 and len(r1) == len(ref1)
    assert hash(r1) == hash(ref1)
    assert all(p in r1 for p in ref1) and set(r1) == ref1
    assert r1 & r2 == ref1 & ref2 and r1 | r2 == ref1 | ref2 and r1 - r2 == ref1 - ref2
    assert (r1 <= r2) == (ref1 <= ref2)


def _record(monkeypatch) -> list:
    """Puts in a subclass of `EvalContext` that keeps a weak reference to
    every context built, and returns the list of those references."""
    built = []

    class Recorded(EvalContext):
        def __init__(self, graph):
            super().__init__(graph)
            built.append(weakref.ref(self))

    monkeypatch.setattr(ev, "EvalContext", Recorded)
    return built


def test_a_relation_keeps_no_context_alive(monkeypatch):
    # the graph keeps its context; the relation keeps neither
    built = _record(monkeypatch)
    e, g = parse("(a . a)+ | pi1(a+ . pi2(a))"), chain_graph(40)
    want = reference_eval(e, g)
    r = evaluate(e, g)
    gc.collect()
    assert len(built) == 1 and built[0]() is not None
    del g
    gc.collect()
    assert built[0]() is None
    assert r == want


def test_one_graph_builds_one_context(monkeypatch):
    built = _record(monkeypatch)
    g = chain_graph(30)
    first = evaluate(parse("a+"), g)
    assert evaluate_boolean(parse("pi2(a) . a"), g)
    assert evaluate(parse("a . a"), g) != first
    assert len(built) == 1
    # an equal graph is another object and builds its own context
    twin = chain_graph(30)
    assert twin == g and twin is not g
    assert evaluate(parse("a+"), twin) == first
    assert len(built) == 2 and built[0]() is not built[1]()


def test_a_graph_first_evaluated_after_a_patch_gets_the_patched_class(monkeypatch):
    before, after = chain_graph(5), chain_graph(6)
    evaluate(a, before)
    built = _record(monkeypatch)
    evaluate(a, before)
    assert built == []
    evaluate_boolean(a, after)
    assert len(built) == 1 and type(built[0]()) is ev.EvalContext


def test_threads_sharing_graphs_agree_and_leave_no_context_behind():
    exprs = [parse(t) for t in ("a+", r"(a . a)+ \ (a . a . a)+", "pi1(a+ . pi2(a))",
                                "conv(a) . a")]
    graphs = [chain_graph(n) for n in (20, 30, 40)]
    want = [[reference_eval(e, g) for e in exprs] for g in graphs]
    before = set(ev._CONTEXTS)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(
            [[evaluate(e, g) for e in exprs] for g in graphs])) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [want] * 6
    del graphs
    gc.collect()
    assert set(ev._CONTEXTS) <= before


# ---------------------------------------------------------------------------
# the row layout: nodes in topological order, and closure in one pass over
# relations that only point forward

@st.composite
def _sized_graphs(draw):
    """Graphs of sizes either side of a byte boundary, with node names
    shuffled so that name order is not topological.  Edges either point
    anywhere (cycles, self-loops) or only forward in a hidden order."""
    n = draw(st.sampled_from([1, 7, 8, 9, 16, 17, 64, 65]))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    forward = draw(st.booleans())
    edges = set()
    for s, lab, t in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from("ab"),
                                             st.integers(0, n - 1)), max_size=2 * n)):
        if forward:
            s, t = min(s, t), max(s, t)
        edges.add((names[s], lab, names[t]))
    return Graph.build(names, ["a", "b"], edges)


@settings(max_examples=200, deadline=None)
@given(_exprs, _sized_graphs())
def test_evaluator_matches_reference_across_byte_boundaries(e, g):
    for x in (e, TransClosure(e), Compose(e, Proj2(e)), Coproj1(e), Converse(e)):
        assert evaluate(x, g) == reference_eval(x, g)


# labeled chains over a and b, where runs of one label make closures grow
_chains = st.lists(st.sampled_from("ab"), max_size=24).map(
    lambda word: Graph.build([f"n{i}" for i in range(len(word) + 1)], ["a", "b"],
                             {(f"n{i}", lab, f"n{i + 1}") for i, lab in enumerate(word)}))


@settings(max_examples=200, deadline=None)
@given(st.lists(_exprs, min_size=2, max_size=5), st.one_of(_chains, _graphs, _sized_graphs()))
def test_expressions_in_sequence_on_one_graph_match_the_reference(es, g):
    # the calls share one context: none may change its identity, empty or
    # label rows, or a relation already returned
    atoms = (IDENTITY, EMPTY, *map(EdgeLabel, sorted(g.labels)))
    want_atoms = [reference_eval(x, g) for x in atoms]
    results = []
    for e in es:
        results.append(evaluate(e, g))
        assert evaluate_boolean(e, g) == bool(results[-1])
        assert [evaluate(x, g) for x in atoms] == want_atoms
    for e, r in zip(es, results):
        assert r == reference_eval(e, g)


class _CountingContext(EvalContext):
    """Counts the products taken, from outside, as a tracing subclass does."""

    def __init__(self, graph):
        super().__init__(graph)
        self.products = 0

    def compose_masks(self, x, y):
        self.products += 1
        return super().compose_masks(x, y)


def test_closure_of_a_downward_relation_takes_no_products():
    downward = [a, b, Union(a, b), Compose(a, b), Compose(Proj2(a), b),
                Union(IDENTITY, a), Compose(Union(a, b), Coproj1(b))]
    for tree in enumerate_trees(5, 2):
        ctx = _CountingContext(tree)
        for e in downward:
            mask = ctx.mask_of(e)
            ctx.products = 0
            closed = ctx.closure_mask(mask)
            assert ctx.products == 0
            assert ctx.decode(closed) == reference_eval(TransClosure(e), tree)
        # a closure whose operand uses converse squares, pair pointing back or not
        back = TransClosure(Union(a, Converse(a)))
        ctx.products = 0
        assert ctx.decode(ctx.mask_of(back)) == reference_eval(back, tree)
        assert ctx.products > 0
    # on labeled chains every row of these has one successor, or none
    rng = random.Random(40)
    for _ in range(5):
        chain = chain_graph(40, [rng.choice("ab") for _ in range(39)])
        ctx = _CountingContext(chain)
        for e in (a, b, Union(a, b), Compose(a, b), Compose(Union(a, b), Union(a, b))):
            mask = ctx.mask_of(e)
            assert all(row & (row - 1) == 0 for row in mask)
            ctx.products = 0
            closed = ctx.closure_mask(mask)
            assert ctx.products == 0
            assert ctx.decode(closed) == reference_eval(TransClosure(e), chain)


class _KernelCountingContext(EvalContext):
    """Counts, from outside as a tracing subclass does, the calls of
    `closure_mask` and the tests for a diagonal operand inside a product
    (reads of `identity` during `compose_masks`)."""

    def __init__(self, graph):
        self.reads, self.in_product = collections.Counter(), False
        super().__init__(graph)

    def __getattribute__(self, name):
        if name == "identity" and object.__getattribute__(self, "in_product"):
            object.__getattribute__(self, "reads")[name] += 1
        return object.__getattribute__(self, name)

    def closure_mask(self, a):
        self.reads["closure_mask"] += 1
        return super().closure_mask(a)

    def compose_masks(self, x, y):
        self.in_product = True
        try:
            return super().compose_masks(x, y)
        finally:
            self.in_product = False


def test_only_plans_with_converse_or_graphs_with_a_cycle_square_their_closures(monkeypatch):
    """Every other closure runs `closure_mask`, so a subclass that wraps it,
    as the benchmark's tracer does, sees one call per closure."""
    squared, squared_closure = collections.Counter(), ev._squared_closure

    def counting(alg, r):
        squared["calls"] += 1
        return squared_closure(alg, r)
    monkeypatch.setattr(ev, "_squared_closure", counting)
    plans = [TransClosure(Compose(a, Proj1(a))), Compose(TransClosure(Union(a, b)), Proj2(a)),
             TransClosure(Compose(Union(a, b), Union(IDENTITY, Coproj1(b)))),
             Compose(a, TransClosure(Compose(b, Intersect(Proj1(b), a)))),
             Compose(TransClosure(Difference(a, Compose(a, Coproj2(b)))), Converse(Proj1(a)))]
    closures = [sum(type(x) is TransClosure for x in _distinct_nodes(e)) for e in plans]
    back = TransClosure(Union(a, Converse(a)))
    for tree in enumerate_trees(5, 2):
        ctx = _KernelCountingContext(tree)
        for e, k in zip(plans, closures):
            ctx.reads.clear()
            assert ctx.decode(ctx.mask_of(e)) == reference_eval(e, tree)
            assert (ctx.reads, squared["calls"]) == ({"closure_mask": k}, 0)
        ctx.reads.clear()
        assert ctx.decode(ctx.mask_of(back)) == reference_eval(back, tree)
        assert (ctx.reads, squared["calls"]) == ({}, 1)
        squared.clear()
    cycle = Graph.build(["x", "y", "z"], ["a", "b"],
                        {("x", "a", "y"), ("y", "a", "z"), ("z", "a", "x"), ("y", "b", "y")})
    ctx = _KernelCountingContext(cycle)
    assert ctx.cyclic
    for e, k in zip(plans, closures):
        squared.clear()
        assert ctx.decode(ctx.mask_of(e)) == reference_eval(e, cycle)
        assert (ctx.reads, squared["calls"]) == ({}, k)


def _compiled_as_tests(exprs) -> list[bool]:
    """Whether each expression is compiled as a test: composing on its
    right makes a _THEN_TEST instruction."""
    code, roots = _compile([Compose(a, x) for x in exprs])
    return [code[root][0] == ev._THEN_TEST for root in roots]


def test_compile_marks_tests_by_syntax():
    tests = [IDENTITY, EMPTY, Proj1(a), Coproj2(b), Compose(Proj1(a), Coproj2(b)),
             Union(IDENTITY, Proj2(a)), Intersect(a, IDENTITY), Intersect(Proj1(b), b),
             Difference(IDENTITY, a), Converse(Proj1(a)), TransClosure(Coproj1(a))]
    others = [a, Converse(a), TransClosure(a), Compose(a, IDENTITY), Compose(IDENTITY, a),
              Union(a, IDENTITY), Difference(a, IDENTITY), Intersect(a, b)]
    assert _compiled_as_tests(tests + others) == [True] * len(tests) + [False] * len(others)


@settings(max_examples=200, deadline=None)
@given(_exprs, _sized_graphs())
def test_every_slot_compiled_as_a_test_lies_inside_the_identity(e, g):
    nodes = _distinct_nodes(e)
    for x, test in zip(nodes, _compiled_as_tests(nodes)):
        if test:
            assert all(s == t for s, t in evaluate(x, g)), x
    # a closure's flag is set when its operand uses converse
    code, _ = _compile((e,))
    for (op, _, flag), node in zip(code, nodes):
        if op == ev._CLOSURE:
            assert bool(flag) == any(type(x) is Converse for x in _distinct_nodes(node.child))


# Row kernels called directly, against pair sets.  Each row is drawn as
# empty, as one successor or as several, and a few rows may get a bit
# below the diagonal, so that both the one-step and the looping path of
# each kernel run, and squaring closes relations the one-pass closure
# must not be given.

@st.composite
def _kernel_rows(draw, n):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kinds = draw(st.lists(st.sampled_from(("empty", "one", "several")), min_size=n, max_size=n))
    rows = []
    for i, kind in enumerate(kinds):
        if kind == "empty":
            rows.append(0)
        elif kind == "several" and i < n - 1:
            rows.append(sum(1 << j for j in rng.sample(range(i, n), rng.randint(2, n - i))))
        else:
            rows.append(1 << rng.randrange(i, n))
    for i in draw(st.lists(st.integers(1, n - 1), max_size=3)) if n > 1 else ():
        rows[i] |= 1 << rng.randrange(i)    # a pair that points back
    return rows


def _pairs(rows) -> set:
    return {(i, j) for i, row in enumerate(rows) for j in range(row.bit_length()) if row >> j & 1}


@st.composite
def _kernel_cases(draw):
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 130]))
    x, y = draw(_kernel_rows(n)), draw(_kernel_rows(n))
    if draw(st.booleans()):   # a test, composed on the right
        y = [row & 1 << i for i, row in enumerate(y)]
    return n, x, y


@settings(max_examples=60, deadline=None)
@given(_kernel_cases())
def test_row_kernels_match_pair_sets_and_change_nothing(case):
    n, x, y = case
    names = [f"v{i:03}" for i in range(n)]
    ctx = EvalContext(Graph.build(names, ["a"], {(names[i], "a", names[i + 1]) for i in range(n - 1)}))
    assert ctx.node_order == names
    shared = [ctx.identity, ctx.empty, *ctx.label_rows.values()]
    before = [list(r) for r in (x, y, *shared)]
    px, py = _pairs(x), _pairs(y)
    nodes = set(range(n))
    assert _pairs(ctx.compose_masks(x, y)) == _then(px, py)
    assert _pairs(ctx.compose_masks(y, x)) == _then(py, px)
    assert _pairs(ctx.transpose_mask(x)) == {(j, i) for i, j in px}
    if all(row & ~(1 << i) == 0 for i, row in enumerate(y)):
        assert _pairs(ctx.then_test(x, y)) == _then(px, py)
    for r in (x, y):
        assert _pairs(ev._squared_closure(ctx, r)) == _closure(_pairs(r))
        if all(i <= j for i, j in _pairs(r)):
            assert _pairs(ctx.closure_mask(r)) == _closure(_pairs(r))
    firsts, seconds = {i for i, _ in px}, {j for _, j in px}
    for second, complement, want in [(False, False, firsts), (True, False, seconds),
                                     (False, True, nodes - firsts), (True, True, nodes - seconds)]:
        assert _pairs(ctx._project(x, second, complement)) == {(i, i) for i in want}
    assert [list(r) for r in (x, y, *shared)] == before


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32))
def test_lane_kernels_for_tests_and_forward_relations_match_the_general_ones(n, seed):
    rng = random.Random(seed)
    lanes = ev._Lanes((255,) * n, {})
    x = [rng.getrandbits(8) if rng.random() < 0.5 else 0 for _ in range(n * n)]
    y = [rng.getrandbits(8) if rng.random() < 0.5 else 0 for _ in range(n * n)]
    test = [m if k % (n + 1) == 0 else 0 for k, m in enumerate(y)]
    assert lanes.then_test(x, test) == lanes.compose_masks(x, test)
    forward = [m if k // n <= k % n else 0 for k, m in enumerate(x)]
    assert lanes.closure_mask(forward) == ev._squared_closure(lanes, forward)


def test_topological_order_puts_sources_first():
    rng = random.Random(5)
    for _ in range(5):
        names = [f"x{i}" for i in range(400)]
        rng.shuffle(names)
        edges = {(names[rng.randrange(i)], rng.choice("ab"), names[i]) for i in range(1, 400)}
        order, index = ev._topological(Graph.build(names, ["a", "b"], edges))
        assert sorted(order) == sorted(names)
        assert index == {v: i for i, v in enumerate(order)}
        assert all(index[s] < index[t] for s, _, t in edges)
    # ties go by name; a cycle (not a self-loop) leaves the order by name
    fork = Graph.build("abcd", ["a"], {("d", "a", "a"), ("b", "a", "b")})
    assert ev._topological(fork)[0] == ["b", "c", "d", "a"]
    cycle = Graph.build("abc", ["a"], {("c", "a", "b"), ("b", "a", "c")})
    assert ev._topological(cycle)[0] == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# bounded equivalence oracles

def test_path_equivalent_distribution_law():
    v = path_equivalent(parse("a . (b | a)"), parse("a . b | a . a"),
                        "labeled-tree", 4)
    assert v.equivalent
    assert v.checked == 1 + 2 + 7 + 26


def test_path_equivalent_finds_witness():
    v = path_equivalent(parse("a . b"), parse("b . a"), "labeled-tree", 4)
    assert not v.equivalent
    assert v.witness is not None
    assert evaluate(parse("a . b"), v.witness) != evaluate(parse("b . a"), v.witness)


def test_composition_through_closure_identity():
    v = path_equivalent(parse("(a . b)+ . a"), parse("a . (b . a)+ | a . pi1(0)"),
                        "labeled-tree", 4)
    # (a.b)+ . a == a . (b.a)+ on every graph; the stray empty branch is inert
    assert v.equivalent


def test_boolean_equivalent_versus_path():
    # nonemptiness of a.b equals nonemptiness of pi1(a.b) although the
    # relations differ
    e1, e2 = parse("a . b"), parse("pi1(a . b)")
    assert boolean_equivalent(e1, e2, "labeled-chain", 5).equivalent
    assert not path_equivalent(e1, e2, "labeled-chain", 5).equivalent


def test_intersection_of_labels_on_single_labeled_classes():
    # trees built here carry one label per edge, so a & b is empty on all of
    # them, but a graph with two labels on one edge separates the two queries
    assert path_equivalent(parse("a & b"), parse("0"), "labeled-tree", 4).equivalent
    g = Graph.build(["n0", "n1"], ["a", "b"], [("n0", "a", "n1"), ("n0", "b", "n1")])
    assert evaluate(parse("a & b"), g) == {("n0", "n1")}


def test_parallel_paths_separate_power_intersection():
    # no tree has a 3-step and a 7-step path between the same two nodes,
    # but a DAG of two a-paths from src to tgt does
    e = parse("a^3 & a^7")
    assert path_equivalent(e, parse("0"), "labeled-tree", 5).equivalent
    short, long = ["src", "p0", "p1", "tgt"], ["src", *(f"q{i}" for i in range(6)), "tgt"]
    dag = Graph.build({*short, *long}, {"a"},
                      [(s, "a", t) for path in (short, long) for s, t in zip(path, path[1:])])
    assert evaluate(e, dag) == {("src", "tgt")}


def test_oracle_rejects_classes_outside_trees_and_chains():
    with pytest.raises(GraphError) as exc:
        path_equivalent(parse("a"), parse("a"), "labeled-graph", 2)
    assert all(name in str(exc.value) for name in GRAPH_CLASSES)
    assert len(GRAPH_CLASSES) == 4


def test_unlabeled_class_rejects_multi_label_expressions():
    with pytest.raises(ValueError):
        path_equivalent(parse("a"), parse("b"), "unlabeled-chain", 3)


_ORACLE_CASES = [  # (e1, e2, graph class, semantics)
    ("a . (b | a)", "a . b | a . a", "labeled-tree", "path"),
    ("a . b", "b . a", "labeled-tree", "path"),
    ("pi2(a) . b+", "a . b", "labeled-tree", "path"),
    ("pi1(a . b)", "a . b", "labeled-tree", "boolean"),
    ("pi2(b) . a+", "a+ . pi1(b)", "labeled-chain", "boolean"),
    ("(a . a)+", "a+ \\ a", "unlabeled-tree", "path"),
]


def _renamed(text, names):
    return parse(re.sub(r"\b[ab]\b", lambda m: names[m.group()], text))


@pytest.mark.parametrize("e1,e2,graph_class,semantics", _ORACLE_CASES)
def test_oracle_verdicts_do_not_depend_on_label_names(e1, e2, graph_class, semantics):
    check = boolean_equivalent if semantics == "boolean" else path_equivalent
    names = {"a": "b", "b": "f"}
    plain = check(parse(e1), parse(e2), graph_class, 4)
    renamed = check(_renamed(e1, names), _renamed(e2, names), graph_class, 4)
    assert (renamed.equivalent, renamed.checked) == (plain.equivalent, plain.checked)
    if plain.witness is not None:
        w = plain.witness
        labels = {lab: names.get(lab, lab) for lab in w.labels}
        assert renamed.witness == Graph.build(
            w.nodes, labels.values(), [(s, labels[lab], t) for s, lab, t in w.edges])


def test_witness_is_over_the_callers_labels():
    e1, e2 = parse("f . c"), parse("c . f")
    v = path_equivalent(e1, e2, "labeled-tree", 4)
    assert v.witness.labels == {"c", "f"}
    assert evaluate(e1, v.witness) != evaluate(e2, v.witness)
    e1, e2 = parse("z . z"), parse("z^3")
    v = boolean_equivalent(e1, e2, "unlabeled-chain", 5)
    assert v.witness.labels == {"z"}
    assert evaluate_boolean(e1, v.witness) != evaluate_boolean(e2, v.witness)


def _fresh_lane_cache(monkeypatch, maxsize=256):
    """Give the oracle an empty lane cache of its own for one test."""
    cache = functools.lru_cache(maxsize=maxsize)(ev._label_lanes.__wrapped__)
    monkeypatch.setattr(ev, "_label_lanes", cache)
    return cache


def test_cached_streams_keep_the_ceiling(monkeypatch):
    cache = _fresh_lane_cache(monkeypatch)
    e = parse("a . b")
    assert path_equivalent(e, e, "labeled-tree", 5).checked == 143
    for limit in ("100", "142"):
        monkeypatch.setenv("NAVEX_MAX_INSTANCES", limit)
        with pytest.raises(ResourceLimitError):
            path_equivalent(e, e, "labeled-tree", 5)
    monkeypatch.setenv("NAVEX_MAX_INSTANCES", "143")
    assert path_equivalent(e, e, "labeled-tree", 5).checked == 143
    # the ceiling only admits a stream: one copy of its lanes serves every ceiling
    assert cache.cache_info().misses == 1


def test_ceiling_errors_name_the_stage_and_the_limit(monkeypatch):
    monkeypatch.setenv("NAVEX_MAX_INSTANCES", "100")
    e = parse("a . b")
    with pytest.raises(ResourceLimitError, match=r"^path oracle on labeled-tree, max_nodes=5, "
                       r"labels=2: 143 instances .* 100 \(NAVEX_MAX_INSTANCES\)$"):
        path_equivalent(e, e, "labeled-tree", 5)
    with pytest.raises(ResourceLimitError, match=r"^boolean oracle on unlabeled-chain, "
                       r"max_nodes=101, labels=1: 101 instances .* 100 \(NAVEX_MAX"):
        boolean_equivalent(a, a, "unlabeled-chain", 101)
    with pytest.raises(ResourceLimitError, match=r"^enumerate_trees, max_nodes=10, labels=2: "
                       r"\d+ trees .* 100 \(NAVEX_MAX_INSTANCES\)$"):
        list(enumerate_trees(10, 2))


@pytest.mark.parametrize("max_nodes", [0, -3])
def test_oracles_refuse_bounds_that_check_nothing(max_nodes):
    e = parse("pi2(a) . b")
    for oracle in (path_equivalent, boolean_equivalent):
        with pytest.raises(ValueError, match="max_nodes >= 1"):
            oracle(e, e, "labeled-tree", max_nodes)
    with pytest.raises(ValueError, match="max_nodes >= 1"):
        run_pipeline("tree-pi2", e, max_nodes=max_nodes)


def test_oracle_leaves_no_row_cache_behind(monkeypatch):
    # the oracle runs on lane masks and builds no evaluation context, so no
    # row cache; the witness is built from its level sequence
    monkeypatch.setattr(ev, "EvalContext", None)
    assert path_equivalent(parse("(a . b)+ . a"), parse("a . (b . a)+"),
                           "labeled-tree", 5).equivalent
    assert not path_equivalent(a, b, "labeled-tree", 5).equivalent
    # what is cached is a chunk's label lanes, immutable: the 143 trees of at
    # most five nodes over two labels, each label a relation of 5 * 5 lane
    # masks; the 107 five-node trees are the top lanes
    exists, rels = ev._label_lanes(False, 5, 2, 0)
    assert exists[0] == (1 << 143) - 1 and exists[4] == exists[0] >> 36 << 36
    assert type(rels) is tuple and all(type(r) is tuple and len(r) == 25 for r in rels)


@pytest.mark.parametrize("e1, e2, graph_class, max_nodes, labels", [
    ("pi1(c . (a | b | c)^7)", "0", "labeled-chain", 9, 3),
    ("a . b . a . b . a . b", "0", "labeled-tree", 7, 2),
])
def test_witness_is_the_stream_instance_at_its_index(monkeypatch, e1, e2, graph_class,
                                                     max_nodes, labels):
    # the witness is built from its own level sequence, not by building
    # every graph of the stream before it
    monkeypatch.setattr(ev, "instances", None)
    oracle = boolean_equivalent if graph_class.endswith("chain") else path_equivalent
    v = oracle(parse(e1), parse(e2), graph_class, max_nodes)
    assert (v.equivalent, v.labels) == (False, labels) and v.checked > ev._LANES // 2
    expected = next(itertools.islice(
        instances(graph_class, max_nodes, "abc"[:labels]), v.checked - 1, None))
    assert v.witness == expected


def test_streams_are_built_only_as_far_as_they_are_consumed(monkeypatch):
    # 9,841 chains of at most 9 nodes over the 3 labels a, b, c fill three chunks
    cache = _fresh_lane_cache(monkeypatch)
    a_b, b_a = parse("a . b | c \\ c"), parse("b . a | c \\ c")
    early = path_equivalent(a_b, b_a, "labeled-chain", 9)
    assert not early.equivalent and early.checked < ev._LANES
    assert len(early.witness.nodes) == 3
    assert cache.cache_info().misses == 1
    full = path_equivalent(a_b, a_b, "labeled-chain", 9)
    assert full.checked == 9841 and cache.cache_info().misses == 3
    # a later call sees what an uncached one would
    assert path_equivalent(a_b, b_a, "labeled-chain", 9) == early
    uncached = _fresh_lane_cache(monkeypatch)
    assert path_equivalent(a_b, a_b, "labeled-chain", 9) == full
    assert uncached.cache_info().misses == 3


def test_a_stream_longer_than_the_cache_is_not_kept(monkeypatch):
    cache = _fresh_lane_cache(monkeypatch, maxsize=2)
    chains = 1 + 3 + 9 + 27 + 81 + 243 + 729 + 2187 + 6561
    v = path_equivalent(parse("(a | b | c)+"), parse("(a | b | c)+ \\ 0"), "labeled-chain", 9)
    assert (v.equivalent, v.checked) == (True, chains)
    # three chunks, of which the cache keeps two
    assert cache.cache_info().misses == 3
    assert cache.cache_info().currsize == 2
    monkeypatch.setenv("NAVEX_MAX_INSTANCES", str(chains - 1))
    with pytest.raises(ResourceLimitError):
        path_equivalent(parse("a . b"), parse("b . c"), "labeled-chain", 9)


def test_cache_evicts_the_least_recently_used_streams(monkeypatch):
    assert ev._label_lanes.cache_info().maxsize is not None    # bounded
    cache = _fresh_lane_cache(monkeypatch, maxsize=2)
    e, abc = parse("a . b"), parse("a . b | c \\ c")
    path_equivalent(e, e, "labeled-tree", 5)            # one chunk per size bound
    path_equivalent(e, e, "labeled-tree", 4)
    path_equivalent(e, e, "labeled-tree", 5)            # a hit: 4 nodes is now oldest
    path_equivalent(abc, abc, "labeled-chain", 4)       # evicts 4 nodes
    assert cache.cache_info().currsize == 2
    misses = cache.cache_info().misses
    path_equivalent(e, e, "labeled-tree", 5)            # still kept
    assert cache.cache_info().misses == misses
    path_equivalent(e, e, "labeled-tree", 4)            # evicted
    assert cache.cache_info().misses == misses + 1
    # a sweep over more label counts than the cache holds stays bounded
    for labels in range(1, 11):
        e = parse(" | ".join("abcdefghij"[:labels]))
        v = path_equivalent(e, Union(e, EMPTY), "labeled-chain", 2)
        assert (v.equivalent, v.checked) == (True, 1 + labels)
    assert cache.cache_info().currsize == 2


def test_threads_share_a_stream_without_losing_instances(monkeypatch):
    pairs = [(parse("(a . b)+"), parse("(a . b)+")), (parse("a . b"), parse("b . a")),
             (parse("pi2(a) . b+"), parse("a . b+"))]
    expected = [path_equivalent(e1, e2, "labeled-tree", 5) for e1, e2 in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):     # a race shows in some rounds, not in all
            _fresh_lane_cache(monkeypatch)
            results = []
            threads = [threading.Thread(target=lambda: results.append(
                [path_equivalent(e1, e2, "labeled-tree", 5) for e1, e2 in pairs]))
                for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == [expected] * 6
    finally:
        sys.setswitchinterval(interval)


def test_oracle_takes_more_labels_than_letters():
    names = [f"x{i}" for i in range(28)]
    every = EdgeLabel(names[0])
    for name in names[1:]:
        every = Union(every, EdgeLabel(name))
    v = path_equivalent(every, Difference(every, EdgeLabel("x17")), "labeled-tree", 2)
    # the one-edge trees follow the one-node tree in sorted label order
    assert (v.equivalent, v.labels) == (False, 28)
    assert v.checked == 1 + sorted(names).index("x17") + 1
    assert v.witness.labels == set(names)
    assert v.witness.edges == {("n0", "x17", "n1")}


def test_power_on_long_chain():
    g = chain_graph(22, "a")
    assert evaluate(power(a, 21), g) == {("n0", "n21")}
    ctx = EvalContext(g)
    assert ctx.mask_of(parse("(a^3)+ & (a^7)+")) == ctx.mask_of(parse("(a^21)+"))


def test_deep_expressions_evaluate_without_recursion_limits():
    deep = power(a, 5000)
    assert evaluate(deep, chain_graph(10)) == frozenset()
    assert evaluate(Proj1(power(a, 9)), chain_graph(10)) == {("n0", "n0")}
    assert path_equivalent(deep, power(a, 5000), "labeled-chain", 4).equivalent
    assert path_equivalent(deep, EMPTY, "labeled-chain", 4).equivalent


# ---------------------------------------------------------------------------
# plans: one instruction per distinct subterm, shared by every root

_SWAP = {
    EdgeLabel: lambda e: EdgeLabel("b" if e.name == "a" else "a"),
    Empty: lambda e: IDENTITY, Identity: lambda e: EMPTY,
    Converse: lambda e: TransClosure(e.child),
    TransClosure: lambda e: Converse(e.child),
    Proj1: lambda e: Proj2(e.child), Proj2: lambda e: Coproj1(e.child),
    Coproj1: lambda e: Coproj2(e.child), Coproj2: lambda e: Proj1(e.child),
    Compose: lambda e: Union(e.left, e.right),
    Union: lambda e: Intersect(e.left, e.right),
    Intersect: lambda e: Difference(e.left, e.right),
    Difference: lambda e: Compose(e.left, e.right),
}


def _tree(e):
    """Every node of `e`, a shared subterm once per occurrence."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(_children(node))


def _mutate(e, target):
    """A copy of `e` whose subterm at position `target` (in postorder) has
    another label or operator; every other node is shared."""
    position = 0

    def walk(node):
        nonlocal position
        if isinstance(node, (Converse, TransClosure, Proj1, Proj2, Coproj1,
                             Coproj2)):
            child = walk(node.child)
            node = node if child is node.child else type(node)(child)
        elif isinstance(node, (Compose, Union, Intersect, Difference)):
            left, right = walk(node.left), walk(node.right)
            if left is not node.left or right is not node.right:
                node = type(node)(left, right)
        position += 1
        return _SWAP[type(node)](node) if position - 1 == target else node

    return walk(e)


@st.composite
def _plan_pairs(draw):
    e = draw(_exprs)
    kind = draw(st.sampled_from(["shared", "copy", "mutated"]))
    if kind == "shared":
        return e, Compose(Union(e, a), e)
    if kind == "copy":
        return e, copy.deepcopy(e)
    target = draw(st.integers(0, sum(1 for _ in _tree(e)) - 1))
    return e, _mutate(e, target)


@settings(max_examples=300, deadline=None)
@given(_plan_pairs(), _graphs)
def test_plan_of_a_pair_matches_reference(pair, g):
    code, roots = _compile(pair)
    assert len(code) == len({s for e in pair for s in _tree(e)})
    assert len(code) == len(_distinct_nodes(*pair))
    ctx = EvalContext(g)
    masks = _run(code, ctx)
    for e, slot in zip(pair, roots):
        assert ctx.decode(masks[slot]) == reference_eval(e, g)


def test_plan_merges_equal_copies():
    e = run_pipeline("tree-set-operations", parse("(a | b)+ \\ (a . b)+"),
                     certify=False).result
    code, (r1, r2) = _compile((e, copy.deepcopy(e)))
    assert r1 == r2
    assert len(code) == len(set(_tree(e))) == len(_distinct_nodes(e))
    assert len(code) < sum(1 for _ in _tree(e))
