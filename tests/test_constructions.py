"""Tests for expression/automaton translations and automaton constructions."""

from dataclasses import replace
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import navex.constructions
from navex.automata import ID, ConditionAutomaton, state_condition_expr, state_key
from navex.constructions import (
    automaton_to_expr, compose_automata, condition_complement,
    determinize, difference_automata, downward_complement_automaton,
    _quotient, _replace, expr_to_automaton, intersect_automata,
    minimize, plus_automaton, remove_identity_transitions, renumber_states,
    trim_automaton, union_automata,
)
from navex.evaluate import evaluate, path_equivalent
from navex.expr import (
    Compose, Coproj1, Coproj2, Difference, EdgeLabel, Empty, FragmentError,
    Identity, Intersect, Proj1, Proj2, TransClosure, Union,
    EMPTY, IDENTITY, _distinct_nodes, condition_depth, labels_used, parse, power,
    render, size, star,
)
from navex.graphs import (
    Graph, ResourceLimitError, _reach, _subsets, chain_graph, enumerate_trees,
)
from navex.rewrite import (
    eliminate_intersect_difference, remove_projection_step, run_pipeline,
)

from automaton_eval import check_deterministic, eval_automaton


def small_trees(max_nodes=4, labels=2):
    return list(enumerate_trees(max_nodes, labels=labels))


TREES = small_trees()


def agree_on_trees(a, e, trees=TREES):
    for g in trees:
        assert eval_automaton(a, g) == evaluate(e, g), (render(e), g.edges)


# ---------------------------------------------------------------------------
# base translations

def test_empty_automaton_shape():
    a = expr_to_automaton(EMPTY, alphabet={"a"})
    assert len(a.states) == 2
    assert not a.transitions and not a.conditions
    assert a.initials != a.finals


def test_identity_automaton_shape():
    a = expr_to_automaton(IDENTITY)
    (t,) = a.transitions
    assert t[1] == ID
    assert {t[0]} == a.initials and {t[2]} == a.finals


def test_label_automaton_shape():
    a = expr_to_automaton(parse("a"))
    (t,) = a.transitions
    assert t[1] == "a"
    assert a.alphabet == {"a"}


def test_projection_automaton_is_single_condition_state():
    e = parse("pi1(a.b)")
    a = expr_to_automaton(e)
    assert len(a.states) == 1
    (q,) = a.states
    assert a.initials == a.finals == {q}
    assert a.conditions == {e}
    assert a.gamma[q] == {e}
    assert not a.transitions


def test_translation_rejects_operators_without_automata():
    for text in ["conv(a)", "a & b", "a \\ b", "a . conv(b)"]:
        with pytest.raises(FragmentError):
            expr_to_automaton(parse(text))


def test_alphabet_parameter_widens_but_never_drops_labels():
    a = expr_to_automaton(parse("a"), alphabet={"b", "c"})
    assert a.alphabet == {"a", "b", "c"}


def test_closure_constructions_renumber_states_to_ints():
    a1 = expr_to_automaton(parse("a"))
    a2 = expr_to_automaton(parse("b"))
    pairs = remove_identity_transitions(expr_to_automaton(parse("pi1(b) . a* . b")))
    assert all(isinstance(q, tuple) for q in pairs.states)
    for built in (compose_automata(a1, a2), union_automata(a1, a2),
                  plus_automaton(a1), compose_automata(pairs, a1),
                  compose_automata(a1, pairs), union_automata(pairs, a2),
                  union_automata(a2, pairs), plus_automaton(pairs),
                  trim_automaton(pairs)):
        assert built.states == frozenset(range(len(built.states)))
        assert all(type(q) is int for q in built.states)


def test_translation_agrees_with_direct_evaluation_on_corpus():
    corpus = [
        "a", "id", "0", "a.b", "a|b", "a+", "a*", "pi1(a.b)", "copi2(a)",
        "a.pi2(a.a).b", "(a.b)+", "pi1(a)+ . a", "(a|b)+ . copi1(b)",
        "pi2(a.b) | copi2(a.b)", "a^3", "(a.pi1(b))* . b",
    ]
    for text in corpus:
        e = parse(text)
        agree_on_trees(expr_to_automaton(e, alphabet={"a", "b"}), e)


_frag_atoms = st.sampled_from([parse("a"), parse("b"), IDENTITY, EMPTY,
                               parse("pi1(a)"), parse("copi2(b)")])


def _frag_exprs():
    return st.recursive(
        _frag_atoms,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Compose(*t)),
            st.tuples(inner, inner).map(lambda t: Union(*t)),
            inner.map(TransClosure),
            inner.map(lambda e: parse(f"pi2({render(e)})")),
            inner.map(lambda e: parse(f"copi1({render(e)})")),
        ),
        max_leaves=6,
    )


def reference_translation(e, sigma):
    """Thompson's construction node by node: one automaton per subterm
    occurrence, combined by compose_automata, union_automata and
    plus_automaton; a condition is one state carrying it."""
    t = type(e)
    if t in (Proj1, Proj2, Coproj1, Coproj2):
        return ConditionAutomaton.build({0}, sigma, {0}, {0}, [], [(0, e)])
    if t is Compose:
        return compose_automata(*map(reference_translation, (e.left, e.right), (sigma,) * 2))
    if t is Union:
        return union_automata(*map(reference_translation, (e.left, e.right), (sigma,) * 2))
    if t is TransClosure:
        return plus_automaton(reference_translation(e.child, sigma))
    steps = ([] if t is Empty else [(0, ID, 1)] if t is Identity
             else [(0, e.name, 1)])
    return ConditionAutomaton.build({0, 1}, sigma, {0}, {1}, steps, [])


def _shared_frag_exprs():
    """_frag_exprs, some of whose subterms occur twice."""
    return st.recursive(
        _frag_atoms,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Compose(*t)),
            st.tuples(inner, inner).map(lambda t: Union(*t)),
            inner.map(lambda e: Compose(e, e)),
            inner.map(lambda e: Union(TransClosure(e), Compose(e, IDENTITY))),
            inner.map(TransClosure),
            inner.map(lambda e: Proj2(Compose(e, e))),
            inner.map(Coproj1),
        ),
        max_leaves=6,
    )


@settings(max_examples=200, deadline=None)
@given(_shared_frag_exprs(),
       st.sampled_from([None, (), ("a",), ("c",), ("a", "b", "c")]))
def test_one_pass_translation_is_the_node_by_node_fold(e, alphabet):
    sigma = frozenset(alphabet or ()) | labels_used(e)
    assert expr_to_automaton(e, alphabet=alphabet) == reference_translation(e, sigma)


@settings(max_examples=60, deadline=None)
@given(_frag_exprs())
def test_translation_agrees_with_direct_evaluation_property(e):
    a = expr_to_automaton(e, alphabet={"a", "b"})
    for g in small_trees(3):
        assert eval_automaton(a, g) == evaluate(e, g)


# ---------------------------------------------------------------------------
# automaton -> expression

@pytest.fixture
def branchy():
    l1sq = parse("pi2(l1^2)")
    l2cu = parse("pi1(l2^3)")
    return ConditionAutomaton.build(
        states={"q1", "q2", "q3", "q4"},
        alphabet={"l1", "l2", "l3"},
        initials={"q1", "q4"},
        finals={"q3", "q4"},
        transitions=[("q1", "l1", "q2"), ("q1", "l3", "q4"),
                     ("q2", "l1", "q2"), ("q2", "l2", "q3")],
        state_conditions=[("q1", IDENTITY), ("q2", l1sq), ("q2", l2cu)],
    )


def test_to_expr_on_branchy_matches_known_expression(branchy):
    known = parse(
        "l1 . pi2(l1^2) . pi1(l2^3) . (l1 . pi2(l1^2) . pi1(l2^3))* . l2"
        " | l3 | id")
    e = automaton_to_expr(branchy)
    verdict = path_equivalent(e, known, "labeled-tree", max_nodes=4)
    assert verdict, verdict.witness


def test_to_expr_is_deterministic(branchy):
    assert render(automaton_to_expr(branchy)) == render(automaton_to_expr(branchy))


def test_to_expr_of_unsatisfiable_automaton_is_empty():
    a = expr_to_automaton(EMPTY, alphabet={"a"})
    assert automaton_to_expr(a) == EMPTY


def test_round_trip_corpus():
    corpus = ["a", "id", "a.b", "a|b", "a+", "pi1(a.b)", "a.pi2(a.a).b",
              "(a|b)+ . copi1(b)", "a* . b"]
    for text in corpus:
        e = parse(text)
        back = automaton_to_expr(expr_to_automaton(e, alphabet={"a", "b"}))
        verdict = path_equivalent(e, back, "labeled-tree", max_nodes=4)
        assert verdict, (text, render(back), verdict.witness)


@settings(max_examples=25, deadline=None)
@given(_frag_exprs())
def test_round_trip_property(e):
    back = automaton_to_expr(expr_to_automaton(e, alphabet={"a", "b"}))
    for g in small_trees(3):
        assert evaluate(back, g) == evaluate(e, g)


def test_to_expr_tests_each_condition_once():
    for text in ["pi1(a)", "a . pi1(b) . a", "pi1(a) . copi2(b)"]:
        e = parse(text)
        assert automaton_to_expr(expr_to_automaton(e)) is e, text


# ---------------------------------------------------------------------------
# identity-transition removal

@pytest.fixture
def identity_chain():
    c = parse("pi1(l)")
    return ConditionAutomaton.build(
        states={"u", "v", "w"},
        alphabet={"l", "lp"},
        initials={"u"},
        finals={"w"},
        transitions=[("u", ID, "v"), ("v", ID, "w"),
                     ("v", "l", "v"), ("u", "lp", "w")],
        state_conditions=[("v", c)],
    )


def test_identity_removal_golden_structure(identity_chain):
    b = remove_identity_transitions(identity_chain)
    empty, c = frozenset(), frozenset({parse("pi1(l)")})
    u0, uc, vc, w0 = ("u", empty), ("u", c), ("v", c), ("w", empty)
    assert b.identity_free
    assert b.states == {u0, uc, vc, w0}
    assert b.initials == {u0, uc}
    # identity steps lead from u to the final w only through v's condition
    assert b.finals == {uc, vc, w0}
    assert all(b.gamma[q] == q[1] for q in b.states)
    assert b.transitions == {(u0, "lp", w0), (uc, "l", vc), (vc, "l", vc)}


def test_identity_removal_preserves_evaluation(identity_chain):
    b = remove_identity_transitions(identity_chain)
    for g in enumerate_trees(4, labels=["l", "lp"]):
        assert eval_automaton(b, g) == eval_automaton(identity_chain, g)


def test_identity_removal_handles_identity_cycles():
    a = ConditionAutomaton.build(
        states={"u", "v"}, alphabet={"l"},
        initials={"u"}, finals={"v"},
        transitions=[("u", ID, "v"), ("v", ID, "u"), ("u", "l", "v")],
        state_conditions=[],
    )
    b = remove_identity_transitions(a)
    assert b.identity_free
    assert b.states == {("u", frozenset()), ("v", frozenset())}
    for g in enumerate_trees(3, labels=["l"]):
        assert eval_automaton(b, g) == eval_automaton(a, g)


def test_identity_removal_returns_identity_free_input_unchanged():
    a = expr_to_automaton(parse("a"))
    assert remove_identity_transitions(a) is a
    # composition bridges finals to initials with identity steps, so even a
    # projection-free composition is not identity-free
    assert not expr_to_automaton(parse("a.b")).identity_free


def test_identity_removal_on_translated_expressions():
    for text in ["a.id.b", "a*", "(a.b)* . a", "id | a+"]:
        e = parse(text)
        a = expr_to_automaton(e, alphabet={"a", "b"})
        b = remove_identity_transitions(a)
        assert b.identity_free
        agree_on_trees(b, e)


# ---------------------------------------------------------------------------
# trimming

def test_trim_drops_unreachable_and_dead_states():
    a = ConditionAutomaton.build(
        states={0, 1, 2, 3}, alphabet={"a"},
        initials={0}, finals={1},
        transitions=[(0, "a", 1), (1, "a", 2), (3, "a", 1)],
        state_conditions=[(2, parse("pi1(a)"))],
    )
    t = trim_automaton(a)
    assert t.states == {0, 1}
    assert t.transitions == {(0, "a", 1)}
    assert t.conditions == frozenset()  # only attached to the dead state


def test_trim_can_empty_an_automaton():
    a = expr_to_automaton(EMPTY, alphabet={"a"})
    t = trim_automaton(a)
    assert not t.states and not t.initials and not t.finals
    for g in small_trees(3):
        assert eval_automaton(t, g) == frozenset()


def test_trim_preserves_evaluation():
    for text in ["a.b | 0", "a+ . pi1(b)", "(a|b)* . a"]:
        e = parse(text)
        a = expr_to_automaton(e, alphabet={"a", "b"})
        agree_on_trees(trim_automaton(a), e)


# ---------------------------------------------------------------------------
# intersection

def test_intersection_agrees_with_set_intersection_on_trees():
    pairs = [("a.b", "a.b"), ("(a|b).(a|b)", "a.b | b.a"),
             ("a+", "a.a"), ("pi1(a).b", "b"), ("a*", "id")]
    for t1, t2 in pairs:
        e1, e2 = parse(t1), parse(t2)
        prod = intersect_automata(expr_to_automaton(e1, alphabet={"a", "b"}),
                                  expr_to_automaton(e2, alphabet={"a", "b"}))
        for g in TREES:
            assert eval_automaton(prod, g) == evaluate(e1, g) & evaluate(e2, g)


def test_intersection_combines_state_conditions():
    a1 = expr_to_automaton(parse("pi1(a)"))
    a2 = expr_to_automaton(parse("copi2(a)"))
    prod = intersect_automata(a1, a2)
    (q,) = [s for s in prod.states if prod.gamma[s]]
    assert prod.gamma[q] == {parse("pi1(a)"), parse("copi2(a)")}


def test_intersection_product_undershoots_on_parallel_paths():
    """The synchronized product is only sound on trees: a graph offering a
    3-step and a 7-step parallel route satisfies a^3 & a^7, but no single
    run can be both 3 and 7 steps long."""
    a3 = expr_to_automaton(power(EdgeLabel("a"), 3))
    a7 = expr_to_automaton(power(EdgeLabel("a"), 7))
    prod = intersect_automata(a3, a7)
    short, long = ["src", "p0", "p1", "tgt"], ["src", *(f"q{i}" for i in range(6)), "tgt"]
    g = Graph.build({*short, *long}, {"a"},
                    [(s, "a", t) for path in (short, long) for s, t in zip(path, path[1:])])
    assert evaluate(parse("a^3 & a^7"), g) == {("src", "tgt")}
    assert eval_automaton(prod, g) == frozenset()


def test_intersection_of_powers_of_closures_on_long_chains():
    a = EdgeLabel("a")
    e3p, e7p, e21p = (TransClosure(power(a, k)) for k in (3, 7, 21))
    prod = trim_automaton(intersect_automata(
        expr_to_automaton(e3p), expr_to_automaton(e7p)))
    for n in range(1, 47):
        g = chain_graph(n)
        assert eval_automaton(prod, g) == evaluate(e21p, g), n


# ---------------------------------------------------------------------------
# condition complement

def test_condition_complement_table():
    cases = [("id", "0"), ("0", "id"), ("pi1(a.b)", "copi1(a.b)"),
             ("pi2(a)", "copi2(a)"), ("copi1(a)", "pi1(a)"),
             ("copi2(a+)", "pi2(a+)")]
    for text, want in cases:
        assert condition_complement(parse(text)) == parse(want)


def test_condition_complement_is_an_involution():
    for text in ["id", "0", "pi1(a)", "copi2(a.b)"]:
        c = parse(text)
        assert condition_complement(condition_complement(c)) == c


def test_condition_complement_rejects_non_atomic_conditions():
    for text in ["a", "pi1(a) . pi2(b)"]:
        with pytest.raises(FragmentError):
            condition_complement(parse(text))


def test_condition_complement_is_complementary_on_diagonals():
    for text in ["pi1(a)", "copi2(a.b)", "id", "0"]:
        c = parse(text)
        cc = condition_complement(c)
        for g in TREES:
            sat = {n for n in g.nodes if (n, n) in evaluate(c, g)}
            unsat = {n for n in g.nodes if (n, n) in evaluate(cc, g)}
            assert sat | unsat == set(g.nodes) and not sat & unsat


# ---------------------------------------------------------------------------
# determinization

DET_CORPUS = ["a", "a+", "a.b | b.a", "pi1(a).b | b", "(a|b)+ . pi2(a)",
              "copi1(a) . a+", "a* . b", "pi2(a.b) | a"]


def test_determinize_outputs_are_deterministic_and_equivalent():
    for text in DET_CORPUS:
        e = parse(text)
        d = determinize(expr_to_automaton(e, alphabet={"a", "b"}))
        assert check_deterministic(d, max_nodes=4), text
        agree_on_trees(d, e)


def test_determinize_is_total():
    for text in DET_CORPUS:
        d = determinize(expr_to_automaton(parse(text), alphabet={"a", "b"}))
        for q in d.states:
            for lab in d.alphabet:
                assert any(l == lab for l, _ in d.successors[q]), (text, q, lab)


def test_determinize_initials_cover_every_condition_subset():
    e = parse("pi1(a)")
    d = determinize(expr_to_automaton(e, alphabet={"a"}))
    # one initial per subset of the single original condition
    assert len(d.initials) == 2


def test_determinize_attaches_each_split_condition_or_its_complement():
    """A state splits a target subset p: it carries, for each condition on
    a state of p, that condition or its complement, and no other condition."""
    a = remove_identity_transitions(
        expr_to_automaton(parse("pi1(a).a | copi2(b)"), alphabet={"a", "b"}))
    a = renumber_states(a)
    d = determinize(a)
    splits = [(a.initials, s) for s in d.initials] + [
        (frozenset().union(*(a.moves.get((q, lab), ()) for q in s[0])), t)
        for s, lab, t in d.transitions]
    assert {t for _, t in splits} == d.states
    for p, t in splits:
        conds = frozenset().union(*(a.gamma[x] for x in p))
        for c in conds:
            assert (c in d.gamma[t]) != (condition_complement(c) in d.gamma[t])
        assert d.gamma[t] <= conds | set(map(condition_complement, conds))
    assert not d.gamma[frozenset(), frozenset()]  # the sink tests nothing


def test_determinize_respects_state_cap(monkeypatch):
    a = expr_to_automaton(parse("a.b | b.a | a+"), alphabet={"a", "b"})
    monkeypatch.setenv("NAVEX_MAX_INSTANCES", "3")
    with pytest.raises(ResourceLimitError):
        determinize(a)


def test_products_respect_the_instance_ceiling(monkeypatch):
    """The reachable product, the projection-removal product and the subset
    construction each stop their own walk one state past the ceiling."""
    prod_args = tuple(remove_identity_transitions(expr_to_automaton(parse(text)))
                      for text in ("(a|b)+", "a.b | b+"))
    proj_arg = trim_automaton(remove_identity_transitions(
        expr_to_automaton(parse("(a|b)+ . pi1(a . b+) . (a.b)+"))))
    det_arg = remove_identity_transitions(
        expr_to_automaton(parse("a.b | b.a | a+"), alphabet={"a", "b"}))
    for build, args in ((intersect_automata, prod_args),
                        (remove_projection_step, (proj_arg,)),
                        (determinize, (det_arg,))):
        size = len(build(*args).states)
        monkeypatch.setenv("NAVEX_MAX_INSTANCES", str(size))
        build(*args)
        monkeypatch.setenv("NAVEX_MAX_INSTANCES", str(size - 1))
        with pytest.raises(ResourceLimitError, match=f"^{build.__name__}"):
            build(*args)
        monkeypatch.delenv("NAVEX_MAX_INSTANCES")


def test_reach_walks_cycles_and_self_loops_from_every_start():
    succ = {0: [1], 1: [2], 2: [0, 2], 3: [3], 4: []}
    assert _reach([], succ.__getitem__) == set()
    assert _reach([0], succ.__getitem__) == {0, 1, 2}
    assert _reach([3], succ.__getitem__) == {3}
    assert _reach([4, 1], succ.__getitem__) == {0, 1, 2, 4}


def test_reach_stops_at_the_ceiling(monkeypatch):
    monkeypatch.setenv("NAVEX_MAX_INSTANCES", "10")
    assert len(_reach([0], lambda i: [i + 1] if i < 9 else [])) == 10
    with pytest.raises(ResourceLimitError):
        _reach([0], lambda i: [i + 1])


def test_reach_stops_at_a_lower_limit(monkeypatch):
    monkeypatch.setenv("NAVEX_MAX_INSTANCES", "10")
    assert len(_reach([0], lambda i: [i + 1] if i < 4 else [], limit=5)) == 5
    with pytest.raises(ResourceLimitError, match=r"more than 4 .*\(limit\)"):
        _reach([0], lambda i: [i + 1], limit=4)
    with pytest.raises(ResourceLimitError, match="more than 10 .*NAVEX_MAX_INSTANCES"):
        _reach([0], lambda i: [i + 1], limit=50)


def test_determinize_size_bound():
    for text in DET_CORPUS:
        a = remove_identity_transitions(
            expr_to_automaton(parse(text), alphabet={"a", "b"}))
        d = determinize(a)
        assert len(d.states) <= 2 ** len(a.states) * 2 ** len(a.conditions)


def test_determinize_rejects_composite_conditions():
    c = parse("pi1(a) . pi2(a)")
    a = ConditionAutomaton.build(
        states={0}, alphabet={"a"}, initials={0},
        finals={0}, transitions=[], state_conditions=[(0, c)])
    with pytest.raises(FragmentError):
        determinize(a)


def test_determinize_handles_identity_transitions():
    e = parse("a* . pi1(b)")
    d = determinize(expr_to_automaton(e, alphabet={"a", "b"}))
    assert d.identity_free
    assert check_deterministic(d, max_nodes=4)
    agree_on_trees(d, e)


# ---------------------------------------------------------------------------
# downward complement and difference

def test_complement_of_single_label():
    dc = downward_complement_automaton(expr_to_automaton(parse("a"), alphabet={"a", "b"}))
    want = parse("(a|b)* \\ a")
    for g in TREES:
        assert eval_automaton(dc, g) == evaluate(parse("(a|b)*"), g) - evaluate(parse("a"), g)
        assert eval_automaton(dc, g) == evaluate(want, g)


def test_complement_of_empty_is_descendant_or_self():
    dc = downward_complement_automaton(expr_to_automaton(EMPTY, alphabet={"a", "b"}))
    for g in TREES:
        assert eval_automaton(dc, g) == evaluate(parse("(a|b)*"), g)


def test_double_complement_restores_tree_evaluation():
    for text in ["a", "a.b", "a+", "pi1(a).b", "a|b.b"]:
        e = parse(text)
        a = expr_to_automaton(e, alphabet={"a", "b"})
        dd = downward_complement_automaton(
            trim_automaton(downward_complement_automaton(a)))
        agree_on_trees(dd, e)


def test_complement_swaps_projection_flavor_in_conditions():
    a = expr_to_automaton(parse("pi1(a).a"), alphabet={"a"})
    dc = downward_complement_automaton(a)
    assert parse("copi1(a)") in dc.conditions


def test_difference_agrees_with_set_difference_on_trees():
    pairs = [("(a|b).(a|b)", "a.b | b.a"), ("a+", "a"), ("a*", "id"),
             ("a.b", "0"), ("pi1(a).a | b", "b")]
    for t1, t2 in pairs:
        e1, e2 = parse(t1), parse(t2)
        d = difference_automata(expr_to_automaton(e1, alphabet={"a", "b"}),
                                expr_to_automaton(e2, alphabet={"a", "b"}))
        for g in TREES:
            assert eval_automaton(d, g) == evaluate(e1, g) - evaluate(e2, g), (t1, t2)


def test_difference_widens_second_alphabet():
    """a1 ranges over {a, b} but a2 only mentions a: the complement of a2
    must still cover b-steps or the difference would lose them."""
    d = difference_automata(expr_to_automaton(parse("a|b")),
                            expr_to_automaton(parse("a")))
    for g in TREES:
        assert eval_automaton(d, g) == evaluate(parse("b"), g)


def test_difference_of_powers_of_closures_on_long_chains():
    a = EdgeLabel("a")
    e3p, e7p = TransClosure(power(a, 3)), TransClosure(power(a, 7))
    d = trim_automaton(difference_automata(
        expr_to_automaton(e3p), expr_to_automaton(e7p)))
    parts = None
    for k in (3, 6, 9, 12, 15, 18):
        p = power(a, k)
        parts = p if parts is None else Union(parts, p)
    rhs = Compose(parts, star(power(a, 21)))
    for n in range(1, 47):
        g = chain_graph(n)
        assert eval_automaton(d, g) == evaluate(rhs, g), n


@settings(max_examples=20, deadline=None)
@given(_frag_exprs(), _frag_exprs())
def test_difference_property_on_small_trees(e1, e2):
    d = difference_automata(expr_to_automaton(e1, alphabet={"a", "b"}),
                            expr_to_automaton(e2, alphabet={"a", "b"}))
    for g in small_trees(3):
        assert eval_automaton(d, g) == evaluate(e1, g) - evaluate(e2, g)


# ---------------------------------------------------------------------------
# references: the rescanning constructions these replaced

class _RefEndpoint:
    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"<{self.name}>"


def _ref_union_expr(x, y):
    if isinstance(x, Empty):
        return y
    if isinstance(y, Empty):
        return x
    return Union(x, y)


def _ref_compose_expr(x, y):
    if isinstance(x, Empty) or isinstance(y, Empty):
        return EMPTY
    if isinstance(x, Identity):
        return y
    if isinstance(y, Identity):
        return x
    return Compose(x, y)


def _ref_star_expr(x):
    return IDENTITY if isinstance(x, Empty) else Union(IDENTITY, TransClosure(x))


def reference_automaton_to_expr(a):
    """State elimination recounting every degree over all entries."""
    src, snk = _RefEndpoint("source"), _RefEndpoint("sink")
    chat = {q: state_condition_expr(a, q) for q in a.states}
    chat[src] = IDENTITY
    entries = {}

    def add(p, r, term):
        if not isinstance(term, Empty):
            entries[(p, r)] = _ref_union_expr(entries.get((p, r), EMPTY), term)

    all_transitions = sorted(
        a.transitions, key=lambda tr: (state_key(tr[0]), tr[1], state_key(tr[2])))
    all_transitions += [(src, ID, q) for q in sorted(a.initials, key=state_key)]
    all_transitions += [(q, ID, snk) for q in sorted(a.finals, key=state_key)]
    for s, lab, t in all_transitions:
        atom = IDENTITY if lab == ID else EdgeLabel(lab)
        add(s, t, _ref_compose_expr(chat[s], atom))

    def degree(q):
        return sum(1 for (p, r) in entries if (p == q) != (r == q))

    active = set(a.states)
    while active:
        q = min(active, key=lambda s: (degree(s), state_key(s)))
        active.remove(q)
        mid = _ref_star_expr(entries.pop((q, q), EMPTY))
        ins = sorted(((p, x) for (p, r), x in entries.items() if r == q),
                     key=lambda t: state_key(t[0]))
        outs = sorted(((r, x) for (p, r), x in entries.items() if p == q),
                      key=lambda t: state_key(t[0]))
        for p, ein in ins:
            for r, eout in outs:
                add(p, r, _ref_compose_expr(ein, _ref_compose_expr(mid, eout)))
        for key in [k for k in entries if q in k]:
            del entries[key]
    return entries.get((src, snk), EMPTY)


def _tagged(a, tag):
    return ({(tag, s) for s in a.states}, {(tag, s) for s in a.initials},
            {(tag, s) for s in a.finals},
            {((tag, s), lab, (tag, t)) for s, lab, t in a.transitions},
            {((tag, q), c) for q, c in a.state_conditions})


def reference_compose(a1, a2):
    """The tagged disjoint union with bridges, renumbered afresh."""
    s1, i1, f1, t1, c1 = _tagged(a1, 0)
    s2, i2, f2, t2, c2 = _tagged(a2, 1)
    return renumber_states(ConditionAutomaton.build(
        s1 | s2, a1.alphabet | a2.alphabet,
        i1, f2, t1 | t2 | {(f, ID, i) for f in f1 for i in i2}, c1 | c2))


def reference_union(a1, a2):
    s1, i1, f1, t1, c1 = _tagged(a1, 0)
    s2, i2, f2, t2, c2 = _tagged(a2, 1)
    return renumber_states(ConditionAutomaton.build(
        s1 | s2, a1.alphabet | a2.alphabet,
        i1 | i2, f1 | f2, t1 | t2, c1 | c2))


def reference_plus(a):
    s, i, f, t, c = _tagged(a, 0)
    v, w = (1, 0), (1, 1)
    return renumber_states(ConditionAutomaton.build(
        s | {v, w}, a.alphabet, {v}, {w},
        t | {(v, ID, q) for q in i} | {(q, ID, w) for q in f} | {(w, ID, v)}, c))


_STATE_KINDS = {
    "numbered": None,
    "ints with gaps": st.integers(0, 40),
    "tuples": st.tuples(st.integers(0, 3), st.sampled_from("xy")),
    "frozensets": st.frozensets(st.integers(0, 4), max_size=3),
    "strings": st.text(alphabet="pqrs", min_size=1, max_size=3),
}
_STATE_KINDS["mixed"] = st.one_of(*(k for k in _STATE_KINDS.values() if k is not None))
_REF_CONDITIONS = [parse("pi1(a)"), parse("pi2(b)"), parse("copi1(a . b)")]


@st.composite
def random_automata(draw):
    n = draw(st.integers(1, 6))
    kind = _STATE_KINDS[draw(st.sampled_from(sorted(_STATE_KINDS)))]
    states = (list(range(n)) if kind is None
              else draw(st.lists(kind, min_size=n, max_size=n, unique=True)))
    state = st.sampled_from(states)
    transitions = draw(st.lists(
        st.tuples(state, st.sampled_from([ID, "a", "b"]), state), max_size=10))
    state_conditions = draw(st.lists(
        st.tuples(state, st.sampled_from(_REF_CONDITIONS)), max_size=4))
    return ConditionAutomaton.build(
        states, {"a", "b"},
        draw(st.lists(state, min_size=1, max_size=3)),
        draw(st.lists(state, min_size=1, max_size=3)),
        transitions, state_conditions)


@settings(max_examples=200, deadline=None)
@given(random_automata(), random_automata())
def test_constructions_match_the_rescanning_references(a1, a2):
    pairs = remove_identity_transitions(a1)
    for a in (a1, a2, pairs, trim_automaton(a2)):
        assert automaton_to_expr(a) is reference_automaton_to_expr(a)
    for x, y in ((a1, a2), (a2, a1), (pairs, a2), (a1, a1)):
        composed, united = compose_automata(x, y), union_automata(x, y)
        assert composed == reference_compose(x, y)
        assert united == reference_union(x, y)
        assert automaton_to_expr(composed) is reference_automaton_to_expr(composed)
        assert automaton_to_expr(united) is reference_automaton_to_expr(united)
    for x in (a1, pairs):
        looped = plus_automaton(x)
        assert looped == reference_plus(x)
        assert automaton_to_expr(looped) is reference_automaton_to_expr(looped)


def reference_visited_pairs(a):
    """The states of the former construction: the pairs (q, V) with V the
    exact set of states that some identity walk from q visits."""
    def step(cfg):
        cursor, visited = cfg
        return ((t, visited | {t}) for t in a.moves.get((cursor, ID), ()))

    return {(q, visited) for q in a.states
            for _, visited in _reach([(q, frozenset({q}))], step)}


def reference_heads(a):
    """The heads that identity removal builds states for, by fixpoints over
    the transitions: the initial states, and every label target of a state
    that an identity walk from a head visits."""
    def walked(q):
        seen = {q}
        while more := {t for s, lab, t in a.transitions if lab == ID and s in seen} - seen:
            seen |= more
        return seen

    heads = set(a.initials)
    while more := {t for q in heads for s, lab, t in a.transitions
                   if lab != ID and s in walked(q)} - heads:
        heads |= more
    return heads


@settings(max_examples=200, deadline=None)
@given(random_automata())
def test_identity_removal_closes_over_condition_sets(a):
    b = remove_identity_transitions(a)
    assert b.identity_free
    for g in TREES:
        assert eval_automaton(b, g) == eval_automaton(a, g)
    assert len(b.states) <= len(reference_visited_pairs(a))
    if not a.identity_free:
        assert {q for q, _ in b.states} == reference_heads(a)
    if not a.conditions and not a.identity_free:
        assert b.states == {(q, frozenset()) for q in reference_heads(a)}


def reference_intersect(a1, a2):
    """The full synchronized product: every pair of states, reachable or
    not."""
    a1 = remove_identity_transitions(a1)
    a2 = remove_identity_transitions(a2)
    by_label1 = {}
    for s, lab, t in a1.transitions:
        by_label1.setdefault(lab, []).append((s, t))
    transitions = set()
    for s2, lab, t2 in a2.transitions:
        for s1, t1 in by_label1.get(lab, ()):
            transitions.add(((s1, s2), lab, (t1, t2)))
    return ConditionAutomaton.build(
        {(p, q) for p in a1.states for q in a2.states},
        a1.alphabet | a2.alphabet,
        {(p, q) for p in a1.initials for q in a2.initials},
        {(p, q) for p in a1.finals for q in a2.finals},
        transitions,
        [((p, q), c) for p, c in a1.state_conditions for q in a2.states]
        + [((p, q), c) for q, c in a2.state_conditions for p in a1.states])


def _reached_by_fixpoint(a):
    reached = set(a.initials)
    while True:
        more = {t for s, _, t in a.transitions if s in reached} - reached
        if not more:
            return reached
        reached |= more


@settings(max_examples=200, deadline=None)
@given(random_automata(), random_automata())
def test_reachable_product_matches_the_full_product(a1, a2):
    for x, y in ((a1, a2), (a2, a1), (a1, a1)):
        prod = intersect_automata(x, y)
        assert _reached_by_fixpoint(prod) == prod.states
        assert trim_automaton(prod) == trim_automaton(reference_intersect(x, y))


def test_state_elimination_matches_the_reference_on_translations():
    for text in ["(a|b)+ . copi1(b)", "a . pi2(a . a) . b", "(a . pi1(b))* . b",
                 "pi1(b) . (a | b . a)+ . (b | id)"]:
        a = expr_to_automaton(parse(text))
        for built in (a, trim_automaton(remove_identity_transitions(a))):
            assert automaton_to_expr(built) is reference_automaton_to_expr(built)


def _padding(e):
    """The nodes of `e` that compose with id or 0, or unite with 0; none
    when `e` is 0 itself."""
    return [] if e is EMPTY else [
        render(n) for n in _distinct_nodes(e)
        if type(n) is Compose and {n.left, n.right} & {IDENTITY, EMPTY}
        or type(n) is Union and EMPTY in (n.left, n.right)]


@settings(max_examples=200, deadline=None)
@given(random_automata())
def test_state_elimination_leaves_no_units(a):
    for built in (a, remove_identity_transitions(a), minimize(a)):
        assert not _padding(automaton_to_expr(built))


_PIPELINE_OPERATORS = {
    "chain-projections": ((TransClosure, Proj1, Proj2), (Compose, Union)),
    "tree-pi2": ((TransClosure, Proj2), (Compose, Union)),
    "tree-set-operations": ((TransClosure, Proj1, Proj2, Coproj1, Coproj2),
                            (Compose, Union, Intersect, Difference)),
}


def _pipeline_inputs(pipeline):
    unary, binary = _PIPELINE_OPERATORS[pipeline]
    return st.recursive(
        st.sampled_from([parse("a"), parse("b"), IDENTITY, EMPTY]),
        lambda kids: st.one_of(*[st.builds(op, kids) for op in unary],
                               *[st.builds(op, kids, kids) for op in binary]),
        max_leaves=5)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_PIPELINE_OPERATORS)).flatmap(
    lambda p: st.tuples(st.just(p), _pipeline_inputs(p))))
def test_automaton_pipelines_leave_no_units(case):
    pipeline, e = case
    out = run_pipeline(pipeline, e, certify=False).result
    assert not _padding(out), (pipeline, render(e), render(out))


# ---------------------------------------------------------------------------
# operation counts on wide unions

def _wide_union(n):
    return reduce(Union, [EdgeLabel(f"l{i}") for i in range(n)])


def test_translating_a_wide_union_never_renumbers(monkeypatch):
    looped = remove_identity_transitions(expr_to_automaton(parse("a*")))
    builds = []
    build = ConditionAutomaton.__dict__["build"].__func__

    def counted(cls, *parts, **named):
        builds.append(cls)
        return build(cls, *parts, **named)
    monkeypatch.setattr(ConditionAutomaton, "build", classmethod(counted))
    a = expr_to_automaton(_wide_union(200))
    assert len(builds) == 1, "one build for the whole translation"
    assert a.states == frozenset(range(400))
    assert renumber_states(a) is a
    builds.clear()
    union_automata(looped, a)
    assert len(builds) == 2, "only the operand not numbered 0..n-1 is renumbered"


def test_eliminating_set_operations_from_a_wide_union_keeps_every_label():
    e = _wide_union(600)
    assert labels_used(eliminate_intersect_difference(e)) == labels_used(e)


# ---------------------------------------------------------------------------
# unchecked builds

@settings(max_examples=100, deadline=None)
@given(random_automata(), random_automata())
def test_every_construction_output_passes_the_full_check(a1, a2):
    """The constructions build without validating; `replace` runs the
    validation their outputs skipped."""
    proj_arg = trim_automaton(remove_identity_transitions(
        expr_to_automaton(parse("(a|b)+ . pi2(a . b+) . (a.b)+"))))
    outputs = [
        renumber_states(a1), compose_automata(a1, a2), union_automata(a1, a2),
        plus_automaton(a1), remove_identity_transitions(a1),
        intersect_automata(a1, a2), determinize(a1),
        trim_automaton(determinize(a1)), downward_complement_automaton(a1),
        difference_automata(a1, a2), trim_automaton(a1), minimize(a1),
        minimize(union_automata(a1, a2)),
        expr_to_automaton(parse("(a . pi1(b))+ | copi2(a)")),
        remove_projection_step(proj_arg),
    ]
    for out in outputs:
        assert replace(out) == out


# ---------------------------------------------------------------------------
# the sparse subset construction and minimization

def reference_determinize(a):
    """The subset construction as it stood before it stepped only over the
    labels with moves: every subset steps over the whole alphabet, into a
    state for each subset of the conditions on the target's states."""
    a = renumber_states(remove_identity_transitions(a))
    gamma = a.gamma
    transitions = set()

    def splits(p):
        conds = sorted(set().union(*(gamma[x] for x in p)), key=render)
        for w in _subsets(conds):
            yield (frozenset(x for x in p if gamma[x] <= w),
                   w | {condition_complement(c) for c in conds if c not in w})

    def step(state):
        q_set, _ = state
        for lab in a.alphabet:
            p = set().union(*(a.moves.get((q, lab), ()) for q in q_set))
            for target in splits(p):
                transitions.add((state, lab, target))
                yield target

    initials = list(splits(a.initials))
    states = _reach(initials, step)
    return ConditionAutomaton.build(
        states, a.alphabet, initials,
        [(q_set, v) for q_set, v in states if q_set & a.finals],
        transitions, [(s, c) for s in states for c in s[1]])


@settings(max_examples=200, deadline=None)
@given(random_automata())
def test_determinize_matches_the_whole_alphabet_reference(a):
    dense = determinize(a)
    assert dense == reference_determinize(a)
    assert downward_complement_automaton(a) == trim_automaton(
        replace(dense, finals=dense.states - dense.finals))
    # without conditions, trimming the determinized trimmed automaton drops
    # only the sink: minimize counts it in its subset bound
    d = determinize(trim_automaton(replace(a, state_conditions=frozenset())))
    sink = (frozenset(), frozenset())
    assert len(trim_automaton(d).states) == len(d.states - {sink})


def reference_quotient(a):
    """Moore's refinement as written: every round recomputes the signature
    of every state, until the number of blocks stops growing."""
    keys = {q: (q in a.finals, a.gamma[q]) for q in a.ordered_states}
    count = -1
    while True:
        ids = {}
        block = {q: ids.setdefault(key, len(ids)) for q, key in keys.items()}
        if len(ids) == count:
            break
        count = len(ids)
        keys = {q: (block[q], frozenset((lab, block[t]) for lab, t in a.successors[q]))
                for q in keys}
    return ConditionAutomaton.build(
        range(count), a.alphabet, {block[q] for q in a.initials},
        {block[q] for q in a.finals},
        {(block[s], lab, block[t]) for s, lab, t in a.transitions},
        {(block[q], c) for q, c in a.state_conditions})


def _signature(a, q):
    return q in a.finals, a.gamma[q], frozenset(a.successors[q])


@settings(max_examples=200, deadline=None)
@given(random_automata())
def test_quotient_matches_moore_refinement(a):
    for x in (a, trim_automaton(a), trim_automaton(determinize(a))):
        assert _quotient(x) == reference_quotient(x)


@settings(max_examples=100, deadline=None)
@given(random_automata())
def test_minimize_accepts_the_same_pairs(a):
    m = minimize(a)
    for g in TREES:
        assert eval_automaton(m, g) == eval_automaton(a, g), g.edges


@settings(max_examples=200, deadline=None)
@given(random_automata())
def test_minimize_is_idempotent_and_never_grows(a):
    m = minimize(a)
    assert m.states == frozenset(range(len(m.states)))
    assert len(minimize(m).states) == len(m.states)
    assert len(m.transitions) <= len(trim_automaton(a).transitions)
    assert len({_signature(m, q) for q in m.states}) == len(m.states)


@settings(max_examples=200, deadline=None)
@given(random_automata())
def test_minimal_dfa_of_a_condition_free_automaton(a):
    """Without conditions the minimal DFA is one candidate: it has at most
    one target per (state, label) and no two states with one signature, and
    minimize keeps it unless the quotient has fewer transitions."""
    a = trim_automaton(replace(a, state_conditions=frozenset()))
    if not a.states:
        return
    dfa = _quotient(trim_automaton(determinize(a)))
    assert all(len(targets) == 1 for targets in dfa.moves.values())
    assert len({_signature(dfa, q) for q in dfa.states}) == len(dfa.states)
    m = minimize(a)
    assert not m.conditions
    assert ((len(m.transitions), len(m.states))
            <= (len(dfa.transitions), len(dfa.states)))


def test_minimize_keeps_the_quotient_where_determinizing_explodes():
    """The subset construction of (a|b)+ . a . (a|b)^k has about 2^k states,
    and its state elimination output about 4^k operators; the quotient of
    the automaton stays linear in k."""
    a = expr_to_automaton(parse("(a|b)+ . a" + " . (a|b)" * 12))
    m = minimize(a)
    assert len(m.states) <= len(trim_automaton(a).states)
    assert size(automaton_to_expr(m)) < 500


def test_minimize_merges_a_wide_union_into_two_states():
    a = expr_to_automaton(_wide_union(300))
    m = minimize(a)
    assert len(m.states) == 2 and len(m.transitions) == 300


# ---------------------------------------------------------------------------
# work the constructions skip

def reference_minimize(a):
    """minimize as it stood with two candidates on every condition-free
    automaton: the quotient, and the quotient of the trimmed subset
    construction unless it outgrows its bound, whichever has fewer
    transitions, then states."""
    t = trim_automaton(a)
    quotient = _quotient(t)
    if t.conditions or not t.states:
        return quotient
    try:
        d = determinize(t, limit=len(t.states) + len(t.transitions) + 1)
    except ResourceLimitError:
        return quotient
    return min(_quotient(trim_automaton(d)), quotient,
               key=lambda m: (len(m.transitions), len(m.states)))


def _deterministic(a):
    """`a` without conditions or identity transitions, with its least
    initial state only and one target per state and label."""
    first = {}
    for s, lab, t in sorted(a.transitions, key=state_key):
        if lab != ID:
            first.setdefault((s, lab), t)
    return replace(a, initials=frozenset({min(a.initials, key=state_key)}),
                   transitions=frozenset((s, lab, t) for (s, lab), t in first.items()),
                   state_conditions=frozenset())


@settings(max_examples=200, deadline=None)
@given(random_automata())
def test_minimize_matches_the_two_candidate_reference(a):
    a = replace(a, state_conditions=frozenset())
    assert minimize(a) == reference_minimize(a)


@settings(max_examples=200, deadline=None)
@given(random_automata())
def test_minimize_never_determinizes_a_deterministic_automaton(a):
    a = _deterministic(a)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(navex.constructions, "determinize",
                   lambda *args, **named: calls.append(args) or determinize(*args, **named))
        m = minimize(a)
    assert not calls
    assert m == reference_minimize(a)


def _counting_reach(mp):
    """Record each call of the constructions' `_reach` in the list returned."""
    calls = []
    mp.setattr(navex.constructions, "_reach",
               lambda *args: calls.append(args) or _reach(*args))
    return calls


@settings(max_examples=200, deadline=None)
@given(random_automata())
def test_trimming_a_trimmed_automaton_walks_nothing(a):
    t = trim_automaton(a)
    fewer = frozenset(sorted(t.finals)[1:])
    with pytest.MonkeyPatch.context() as mp:
        walks = _counting_reach(mp)
        assert trim_automaton(t) is t
        assert not walks
        # a rebuilt automaton carries no mark, equal parts or not
        assert trim_automaton(_replace(t, finals=t.finals)) == t
        assert len(walks) == 2
        assert trim_automaton(_replace(t, finals=fewer)) == trim_automaton(
            replace(t, finals=fewer))
        assert len(walks) == 6


@settings(max_examples=200, deadline=None)
@given(random_automata(), random_automata(), _pipeline_inputs("chain-projections"))
def test_trimming_a_walk_built_automaton_skips_only_the_forward_walk(a1, a2, e):
    """The constructions that build their states by a walk from the
    initials mark what they return, and trimming it walks only backward;
    the result is the trim of an unmarked copy."""
    built = [intersect_automata(a1, a2), determinize(a1)]
    if not a1.identity_free:
        built.append(remove_identity_transitions(a1))
    assert all("_reachable" in out.__dict__ for out in built)
    a = trim_automaton(remove_identity_transitions(expr_to_automaton(e)))
    if a.conditions:
        step = remove_projection_step(a)
        # pi2 is removed on the reversed automata, whose walk runs backward
        deepest = max(a.conditions, key=lambda c: (condition_depth(c), render(c)))
        assert ("_reachable" in step.__dict__) == (type(deepest) is Proj1)
        built.append(step)
    for out in built:
        with pytest.MonkeyPatch.context() as mp:
            walks = _counting_reach(mp)
            trimmed = trim_automaton(out)
        assert len(walks) == (1 if "_reachable" in out.__dict__ else 2)
        assert trimmed == trim_automaton(_replace(out))


@settings(max_examples=200, deadline=None)
@given(random_automata())
def test_identity_removal_walks_only_from_states_with_identity_moves(a):
    with pytest.MonkeyPatch.context() as mp:
        walks = _counting_reach(mp)
        remove_identity_transitions(a)
    # one walk over the heads, and one from each head with an identity move
    assert len(walks) == (0 if a.identity_free else
                          1 + len({q for q in reference_heads(a) if (q, ID) in a.moves}))
