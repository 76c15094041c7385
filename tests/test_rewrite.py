"""Tests for the operator-elimination rewrites.

The projection-removal step is checked two ways: behaviorally (nonemptiness
agreement with the original on streams of instances) and structurally,
against an independent transcription of its defining equations that builds
the full product state space and quantifies over all run decompositions.
The reachable part of the full construction must coincide exactly with what
the incremental implementation builds.  The equations in which every
tracked run moves to one successor are checked against those in which a
run may move to any hitting set of its successors: the first must build a
sub-automaton of the second.
"""

import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

import navex

from navex.automata import ConditionAutomaton
from navex.constructions import (
    automaton_to_expr, expr_to_automaton, minimize,
    remove_identity_transitions, trim_automaton,
)
from navex.evaluate import boolean_equivalent, evaluate_boolean, path_equivalent
from navex.expr import (
    Compose, Difference, Intersect, ParseError, Proj1, Proj2, TransClosure, Union,
    condition_depth, label_union, operators_used, parse, power, render, size,
)
from navex.graphs import ResourceLimitError, chain_graph, enumerate_trees, instances
from navex.rewrite import (
    _BOT, NotCollapsibleError, RewriteError, RewriteReport,
    _DISTANCE_SAFE, _condition_measure, _distance_set,
    eliminate_intersect_difference, normalize_unlabeled_boolean,
    remove_projection_step, remove_projections_boolean, run_pipeline,
    witness_span,
)

from automaton_eval import eval_automaton


def _to_automaton(text):
    e = parse(text)
    return trim_automaton(remove_identity_transitions(
        expr_to_automaton(e, alphabet=frozenset(labels_of(e)))))


def labels_of(e):
    from navex.expr import labels_used
    return labels_used(e)


def _subsets(items):
    items = sorted(items)
    for bits in range(2 ** len(items)):
        yield frozenset(items[i] for i in range(len(items)) if bits >> i & 1)


def _turned(a):
    """`a` walked backwards: transitions turned around, initials and finals
    swapped, conditions left on their states."""
    return ConditionAutomaton.build(
        a.states, a.alphabet, a.finals, a.initials,
        [(q, lab, p) for p, lab, q in a.transitions], a.state_conditions)


def _choice_moves(inner, lab, all_r):
    """Synchronized moves of the tracked runs: every source takes one
    transition, and the targets are the image of these choices."""
    succ = {s: sorted(t for p, l, t in inner.transitions if (p, l) == (s, lab))
            for s in inner.states}
    return {(p_set, frozenset(image))
            for p_set in all_r
            for image in itertools.product(*(succ[s] for s in sorted(p_set)))}


def _hitting_set_moves(inner, lab, all_r):
    """Synchronized moves of the tracked runs: every source advances, every
    target is reached.  A run may thus split into any hitting set of its
    successors, which the choice equations never need."""
    return {(p_set, q_set)
            for p_set in all_r
            for q_set in all_r
            if all(any((s, lab, t) in inner.transitions for t in q_set)
                   for s in p_set)
            and all(any((s, lab, t) in inner.transitions for s in p_set)
                    for t in q_set)}


def _declarative_step(a, cond, inner, synchronized):
    """The defining equations of one first-projection removal step, written
    as direct quantification over every decomposition, with the tracked
    runs' moves on each label given by `synchronized`.  Builds the full
    state space (exponential; tiny inputs only) and returns its pieces."""
    gamma = a.gamma
    s_cond = frozenset(q for q in a.states if cond in gamma[q])
    all_r = list(_subsets(inner.states))

    def member(q, r):
        if q is _BOT:
            return bool(r)
        if q in s_cond:
            return bool(r & inner.initials)
        return True

    states = {(q, r) for q in a.states for r in all_r if member(q, r)}
    states |= {(_BOT, r) for r in all_r if r}

    tps = {lab: synchronized(inner, lab, all_r) for lab in sorted(a.alphabet)}

    def main_clause_b(p, lab, q):
        return ((p, lab, q) in a.transitions and p is not _BOT) or \
            ((p is _BOT or p in a.finals) and q is _BOT)

    transitions = set()
    for (p, r1) in states:
        for lab in sorted(a.alphabet):
            for (q, r2) in states:
                # retire a final subset, advance the rest
                plain = any(r1 - p_set <= inner.finals
                            and (p_set, r2) in tps[lab]
                            for p_set in _subsets(r1))
                if plain and main_clause_b(p, lab, q):
                    transitions.add(((p, r1), lab, (q, r2)))
                # same, plus one spawned run at the target condition state
                if (p is not _BOT and q is not _BOT
                        and (p, lab, q) in a.transitions and q in s_cond):
                    spawned = any(
                        r1 - p_set <= inner.finals
                        and (p_set, q_set) in tps[lab]
                        and r2 == q_set | {qp}
                        for p_set in _subsets(r1)
                        for q_set in all_r
                        for qp in inner.initials)
                    if spawned:
                        transitions.add(((p, r1), lab, (q, r2)))

    initials = set()
    for q in a.initials:
        if q not in s_cond:
            initials.add((q, frozenset()))
    for q in a.initials & s_cond:
        for qp in inner.initials:
            initials.add((q, frozenset({qp})))

    finals = set()
    for (q, r) in states:
        if q is _BOT:
            if r and r <= inner.finals:
                finals.add((q, r))
        elif q in a.finals:
            if (not r and q not in s_cond) or (r and r <= inner.finals):
                finals.add((q, r))

    gammas = {}
    for (q, r) in states:
        attached = set() if q is _BOT else set(gamma[q]) - {cond}
        for s in r:
            attached |= inner.gamma[s]
        gammas[(q, r)] = frozenset(attached)
    return states, initials, finals, transitions, gammas


DUAL_ROUTE = [
    "pi1(a)", "pi2(a)", "a . pi1(b)", "pi2(a) . b", "pi1(a . b)",
    "(a . pi1(b))+", "a . pi2(a+)", "pi1(a) . pi2(b)", "(pi2(a) . a)+",
    "pi1(a) . a . a", "a . a . pi2(a)",
]


def _reachable_step(a, cond, inner, synchronized):
    """The part of the full construction reachable from its initial states."""
    states, initials, finals, transitions, gammas = _declarative_step(
        a, cond, inner, synchronized)
    succ = {}
    for (p, lab, q) in transitions:
        succ.setdefault(p, set()).add(q)
    reach = set(initials)
    frontier = list(initials)
    while frontier:
        s = frontier.pop()
        for t in succ.get(s, ()):
            if t not in reach:
                reach.add(t)
                frontier.append(t)
    return ConditionAutomaton.build(
        reach, a.alphabet | inner.alphabet, initials, [s for s in finals if s in reach],
        [t for t in transitions if t[0] in reach],
        [(s, c) for s in reach for c in gammas[s]])


@pytest.mark.parametrize("text", DUAL_ROUTE)
def test_projection_step_matches_declarative_equations(text):
    """A second projection is checked against the first-projection equations
    of the turned-around automata, turned back state for state."""
    a = _to_automaton(text)
    lazy = remove_projection_step(a)
    cond = max((c for c in a.conditions if isinstance(c, (Proj1, Proj2))),
               key=lambda c: (condition_depth(c), render(c)))
    inner = trim_automaton(remove_identity_transitions(
        expr_to_automaton(cond.child, alphabet=a.alphabet | labels_of(cond.child))))
    second = isinstance(cond, Proj2)
    if second:
        a, inner = _turned(a), _turned(inner)
    expected = _reachable_step(a, cond, inner, _choice_moves)
    hitting = _reachable_step(a, cond, inner, _hitting_set_moves)
    if second:
        expected, hitting = _turned(expected), _turned(hitting)
    assert lazy.states == expected.states
    assert lazy.initials == expected.initials
    assert lazy.finals == expected.finals
    assert lazy.transitions == expected.transitions
    assert lazy.state_conditions == expected.state_conditions
    # every choice image is a hitting set whose targets all have predecessors
    assert expected.states <= hitting.states
    assert expected.initials <= hitting.initials
    assert expected.finals <= hitting.finals
    assert expected.transitions <= hitting.transitions


def _agrees_on(a, stepped, graphs):
    for g in graphs:
        assert bool(eval_automaton(a, g)) == bool(eval_automaton(stepped, g)), g


@pytest.mark.parametrize("text", DUAL_ROUTE)
def test_projection_step_preserves_nonemptiness_on_chains(text):
    """On chains, and for a second projection on labeled trees too."""
    a = _to_automaton(text)
    stepped = remove_projection_step(a)
    _agrees_on(a, stepped, instances("labeled-chain", 6, 2))
    if "pi1" not in text:
        _agrees_on(a, stepped, instances("labeled-tree", 5, 2))


def _expr_strategy():
    atoms = st.sampled_from([parse(s) for s in ("a", "b", "id", "pi1(a)", "pi2(b)")])
    return st.recursive(
        atoms,
        lambda kids: st.one_of(
            st.builds(Compose, kids, kids),
            st.builds(Union, kids, kids),
            st.builds(TransClosure, kids),
            st.builds(Proj1, kids),
            st.builds(Proj2, kids),
        ),
        max_leaves=5)


@seed(25)
@settings(max_examples=40, deadline=None)
@given(_expr_strategy())
def test_projection_step_preserves_nonemptiness_on_random_inputs(e):
    a = trim_automaton(remove_identity_transitions(
        expr_to_automaton(e, alphabet=frozenset("ab"))))
    assume(_condition_measure(a)[0] > 0)
    stepped = remove_projection_step(a)
    _agrees_on(a, stepped, instances("labeled-chain", 6, 2))
    if "pi1" not in operators_used(e):
        _agrees_on(a, stepped, instances("labeled-tree", 5, 2))


def test_projection_step_requires_projection_conditions():
    a = _to_automaton("a . b")
    with pytest.raises(RewriteError):
        remove_projection_step(a)


def test_projection_step_rejects_coprojection_conditions():
    a = _to_automaton("copi1(a) . b")
    with pytest.raises(RewriteError, match=r"copi1\(a\)"):
        remove_projection_step(a)


def test_projection_step_names_a_composite_condition():
    # the condition is counted at depth 1, but no single projection is it
    c = parse("pi1(a) . pi1(b)")
    a = ConditionAutomaton.build(
        states={0, 1}, alphabet={"a", "b"}, initials={0}, finals={1},
        transitions=[(0, "a", 1)], state_conditions=[(0, c)])
    assert _condition_measure(a) == (1, 1)
    with pytest.raises(RewriteError, match=re.escape(render(c))):
        remove_projection_step(a)


def test_projection_step_rejects_identity_transitions():
    a = expr_to_automaton(parse("pi1(a) . b"))
    assert not a.identity_free
    with pytest.raises(RewriteError):
        remove_projection_step(a)


def test_projection_step_strictly_shrinks_depth_then_weight():
    a = _to_automaton("pi1(pi2(a) . b) . pi1(a)")
    seen = [_condition_measure(a)]
    while seen[-1][0] > 0:
        a = trim_automaton(remove_projection_step(a))
        seen.append(_condition_measure(a))
    assert seen == sorted(seen, reverse=True)
    assert len(set(seen)) == len(seen)
    assert seen[-1][0] == 0


@pytest.mark.parametrize("p, q", [("p", "q"), ("below", "q"), ("p", "below")])
def test_projection_removal_is_blind_to_state_names(p, q):
    """The tracking-only state is a marker no caller state equals, so a
    state named "below" is an ordinary state."""
    a = ConditionAutomaton.build({p, q}, {"a"}, {p}, {q}, [(p, "a", q)],
                                 [(q, parse("pi2(a)"))])
    while _condition_measure(a)[0] > 0:
        a = trim_automaton(remove_projection_step(a))
    out = automaton_to_expr(minimize(a))
    assert not operators_used(out).flags
    assert boolean_equivalent(parse("a . pi2(a)"), out, "labeled-chain")


CHAIN_CORPUS = [
    "pi1(a)", "pi2(a)", "a . pi1(b)", "pi2(a) . b", "pi1(a . b)",
    "a . pi1(b . a)", "pi1(a) . pi2(b)", "(a . pi1(b))+", "pi1(a+) . b",
    "a . pi2(a+)", "pi1(pi2(a) . b)", "pi1(a . pi1(b))", "a | pi1(b) . a",
    "(pi2(a) . a)+", "pi2(a) . pi1(b)", "pi1(a | b) . (a | b)",
]


@pytest.mark.parametrize("text", CHAIN_CORPUS)
def test_chain_pipeline_removes_projections_and_preserves_nonemptiness(text):
    e = parse(text)
    out = remove_projections_boolean(e, "labeled-chain")
    assert not operators_used(out).flags & {"pi1", "pi2"}
    verdict = boolean_equivalent(e, out, "labeled-chain", max_nodes=7)
    assert verdict, verdict.witness


def test_chain_pipeline_keeps_the_three_node_witness():
    # Greedy readings of the acceptance conditions for shared condition runs
    # would reject every run of this query; the relaxed-run construction must
    # keep the short chain satisfiable.
    e = parse("pi1((a . a) | pi2(a . a)) . a . a . pi1((a . a) | pi2(a . a))")
    assert evaluate_boolean(e, chain_graph(3))
    out = remove_projections_boolean(e, "labeled-chain")
    assert not operators_used(out).flags & {"pi1", "pi2"}
    assert evaluate_boolean(out, chain_graph(3))
    verdict = boolean_equivalent(e, out, "labeled-chain", max_nodes=8)
    assert verdict, verdict.witness


def test_chain_pipeline_stays_closure_free_on_closure_free_input():
    out = remove_projections_boolean(parse("pi1(a . b) . b"), "labeled-chain")
    assert "tc" not in operators_used(out)


def test_chain_pipeline_rejects_foreign_operators():
    for text in ("a & b", "copi1(a)", "conv(a)", "a \\ b"):
        with pytest.raises(RewriteError):
            remove_projections_boolean(parse(text), "labeled-chain")


@settings(max_examples=25, deadline=None)
@given(_expr_strategy())
def test_chain_pipeline_property(e):
    out = remove_projections_boolean(e, "labeled-chain")
    assert not operators_used(out).flags & {"pi1", "pi2"}
    verdict = boolean_equivalent(e, out, "labeled-chain", max_nodes=6)
    assert verdict, (render(e), render(out), verdict.witness)


TREE_CORPUS = [
    "pi2(a)", "a . pi2(b)", "pi2(a . b) . a", "(a . pi2(a))+",
    "pi2(pi2(a) . b)", "pi2(a+) . b", "a . pi2(b) . pi2(a . a)",
]


@pytest.mark.parametrize("text", TREE_CORPUS)
def test_tree_pipeline_removes_pi2_and_preserves_nonemptiness(text):
    e = parse(text)
    out = remove_projections_boolean(e, "labeled-tree")
    assert not operators_used(out).flags & {"pi1", "pi2"}
    verdict = boolean_equivalent(e, out, "labeled-tree", max_nodes=5)
    assert verdict, verdict.witness


def test_tree_pipeline_rejects_first_projections():
    with pytest.raises(RewriteError, match="first projections"):
        remove_projections_boolean(parse("pi1(a)"), "labeled-tree")
    with pytest.raises(RewriteError, match="no projection removal"):
        remove_projections_boolean(parse("pi2(a)"), "unlabeled-chain")


def test_first_projections_are_chain_only():
    # pi1(a) . pi1(b) asks for a node with children along both labels; on
    # chains that is unsatisfiable, on a branching tree it is not.  The chain
    # rewrite is therefore allowed to produce the empty expression, which a
    # branching tree distinguishes from the original.
    e = parse("pi1(a) . pi1(b)")
    out = remove_projections_boolean(e, "labeled-chain")
    verdict = boolean_equivalent(e, out, "labeled-chain", max_nodes=6)
    assert verdict
    branching = next(
        g for g in enumerate_trees(3, labels=2)
        if len(g.nodes) == 3 and len({lab for (_, lab, _) in g.edges}) == 2
        and len({s for (s, _, _) in g.edges}) == 1)
    assert evaluate_boolean(e, branching)
    assert not evaluate_boolean(out, branching)


SETOP_CORPUS = [
    "a & b", "(a | b) \\ a", "a . (b & a+)", "(a & a . a+)+",
    "pi1(a & b)", "a \\ (a . a)", "copi2(a & b) . a", "(a . b) & (a . b)",
    "(a+ & a . a+) \\ a . a",
]


@pytest.mark.parametrize("text", SETOP_CORPUS)
def test_setop_pipeline_is_path_equivalent_on_trees(text):
    e = parse(text)
    out = eliminate_intersect_difference(e)
    assert not operators_used(out).flags & {"cap", "minus"}
    verdict = path_equivalent(e, out, "labeled-tree", max_nodes=5)
    assert verdict, (render(out), verdict.witness)


def test_setop_pipeline_handles_the_period_intersection():
    e = parse("(a^3)+ & (a^7)+")
    out = eliminate_intersect_difference(e)
    assert not operators_used(out).flags & {"cap", "minus"}
    for n in (20, 21, 22, 23, 43, 44):
        want = evaluate_boolean(e, chain_graph(n))
        assert evaluate_boolean(out, chain_graph(n)) == want
        assert want == (n >= 22)


@pytest.mark.parametrize("text, want", [
    (r"pi1(a \ a)", "0"), (r"copi1(a \ a)", "id"), ("pi1(a) . b", "pi1(a) . b"),
    # the complement splits only the subset after the a step on pi1(b)
    (r"a \ (a . pi1(b))", "a . copi1(b)"),
])
def test_setop_pipeline_folds_trivial_projections_and_tests_conditions_once(text, want):
    report = run_pipeline("tree-set-operations", parse(text))
    assert report.result is parse(want)
    assert report.verdict, report.verdict


def test_setop_pipeline_rejects_converse_and_diversity():
    with pytest.raises(RewriteError):
        eliminate_intersect_difference(parse("conv(a) & b"))
    with pytest.raises(ParseError, match="outside the downward fragments"):
        parse("di \\ a")        # diversity never reaches the rewrite


def test_translations_to_automata_do_not_recurse():
    e = label_union(f"l{i:02}" for i in range(60))     # unions nested 59 deep
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        a = expr_to_automaton(e)
        out = eliminate_intersect_difference(e)
    finally:
        sys.setrecursionlimit(limit)
    assert len(a.states) == 2 * 60
    assert path_equivalent(e, out, "labeled-tree", max_nodes=2)


def test_a_shared_subterm_is_translated_once():
    steps = []
    out = eliminate_intersect_difference(parse("(a+ & b+) . (a+ & b+)"), steps)
    assert len(steps) == 1 and steps[0].startswith("intersection product")
    assert path_equivalent(parse("(a+ & b+) . (a+ & b+)"), out)


# --- the unlabeled collapse -------------------------------------------------

def _first_nonempty_chain(e, limit):
    for n in range(1, limit + 1):
        if evaluate_boolean(e, chain_graph(n, next(iter(labels_of(e)), "a"))):
            return n
    return None


COLLAPSE_CORPUS = [
    ("id", 0), ("a", 1), ("a . a", 2), ("a+", 1), ("(a . a)+", 2),
    ("pi1(a . a)", 2), ("a & a+", 1), ("(a^2)+ & (a^3)+", 6),
    ("(a^3)+ & (a^7)+", 21), ("a & a . a", None), ("0", None),
    ("conv(a)", 1), ("conv(a) . a", 1), ("pi2(a) . a", 2),
    ("(a^3)+ \\ (a^7)+", 3), ("a+ \\ a", 2), ("a \\ a", None),
    ("pi1(a+) . pi1(a . a)", 2),
]


@pytest.mark.parametrize("text,k", COLLAPSE_CORPUS)
def test_normalize_matches_brute_force_on_chains(text, k):
    e = parse(text)
    form = normalize_unlabeled_boolean(e)
    brute = _first_nonempty_chain(e, max(witness_span(e) + 1, 25))
    if k is None:
        assert form.kind == "empty"
        assert brute is None
    else:
        assert form.kind == "power"
        assert form.k == k
        assert brute == k + 1
    verdict = boolean_equivalent(e, form.expr, "unlabeled-chain", max_nodes=8)
    assert verdict, verdict.witness


def test_normalize_tree_lane_matches_trees():
    # depth decides nonemptiness on trees for these fragments, so the chain
    # normal form transfers; verify against every tree up to 6 nodes
    for text in ("pi1(a . a)", "a & a+", "(a . a)+ . a"):
        e = parse(text)
        form = normalize_unlabeled_boolean(e)
        for g in enumerate_trees(6, labels=1):
            assert evaluate_boolean(e, g) == evaluate_boolean(form.expr, g)


def test_normalize_rejects_uncollapsible_fragments():
    with pytest.raises(NotCollapsibleError):
        normalize_unlabeled_boolean(parse("id \\ pi1(a)"))
    with pytest.raises(NotCollapsibleError):
        normalize_unlabeled_boolean(parse("copi1(a)"))
    with pytest.raises(NotCollapsibleError):
        normalize_unlabeled_boolean(parse("a | b"))


@settings(max_examples=40, deadline=None)
@given(st.recursive(
    st.sampled_from([parse(s) for s in ("a", "id", "pi1(a)", "conv(a)")]),
    lambda kids: st.one_of(
        st.builds(Compose, kids, kids),
        st.builds(Union, kids, kids),
        st.builds(Intersect, kids, kids),
        st.builds(TransClosure, kids),
        st.builds(Proj1, kids),
        st.builds(Proj2, kids),
    ),
    max_leaves=5))
def test_witness_span_bounds_first_nonemptiness(e):
    # the span bound must not under-shoot: searching chains up to the bound
    # and finding nothing must mean the query is empty on much longer chains
    bound = witness_span(e) + 1
    first = _first_nonempty_chain(e, min(bound, 14))
    if first is None and bound <= 14:
        assert _first_nonempty_chain(e, 14) is None
    if first is not None:
        assert first <= bound


def test_witness_span_handles_deep_expressions():
    # compositions add their operands' spans, 2 per letter
    assert witness_span(power(parse("a"), 5000)) == 2 * 5000
    assert witness_span(Proj1(power(parse("a"), 5000))) == 2 * 5000


def _collapsible(leaves, unary, binary):
    return st.recursive(
        st.sampled_from([parse(s) for s in leaves]),
        lambda kids: st.one_of(
            *[st.builds(f, kids) for f in unary],
            *[st.builds(f, kids, kids) for f in binary]),
        max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    _collapsible(("a", "id", "a . a", "conv(a)"), (TransClosure, Proj1, Proj2),
                 (Compose, Union, Intersect)),
    _collapsible(("a", "id", "a . a"), (TransClosure,),
                 (Compose, Union, Intersect, Difference))))
def test_collapse_search_agrees_with_a_linear_scan(e):
    # the search is exact only if nonemptiness is monotone in the chain
    # length on both collapsible fragments; check that, and the result,
    # against evaluating every chain of 1..bound nodes.  The distance
    # fragment is decided by arithmetic, on no chain, so there the scan
    # runs over a fixed horizon instead
    distance = operators_used(e).flags <= _DISTANCE_SAFE
    bound = 61 if distance else witness_span(e) + 1
    assume(bound <= 61)
    label = next(iter(labels_of(e)), "a")
    seen = [evaluate_boolean(e, chain_graph(n, label)) for n in range(1, bound + 1)]
    assert seen == sorted(seen)
    form = normalize_unlabeled_boolean(e)
    if True in seen:
        first = seen.index(True) + 1
        assert (form.kind, form.k) == ("power", first - 1)
        assert form.searched == (0 if distance else first)
    elif distance:
        assert form.kind == "empty" or form.k >= bound
        assert form.searched == 0
    else:
        assert (form.kind, form.k, form.searched) == ("empty", None, bound)


def _distances(e, horizon):
    """The distances below `horizon` of the pairs `e` relates on a chain,
    one operator at a time over plain sets; exact below the horizon, as
    distances only add."""
    t = type(e)
    if t is Compose:
        x, y = _distances(e.left, horizon), _distances(e.right, horizon)
        return {i + j for i in x for j in y if i + j < horizon}
    if t is TransClosure:
        body = _distances(e.child, horizon)
        out, new = set(body), set(body)
        while new:
            new = {i + j for i in new for j in body if i + j < horizon} - out
            out |= new
        return out
    if t in (Union, Intersect, Difference):
        x, y = _distances(e.left, horizon), _distances(e.right, horizon)
        return {Union: x | y, Intersect: x & y, Difference: x - y}[t]
    return {"0": set(), "id": {0}, "a": {1}}[render(e)]


@settings(max_examples=300, deadline=None)
@given(_collapsible(("a", "id", "0", "a^3", "a^5"), (TransClosure,),
                    (Compose, Union, Intersect, Difference)))
def test_distance_arithmetic_matches_a_per_distance_reference(e):
    t, p, bits = _distance_set(e)
    horizon = 3 * (t + p) + 60
    members = {n for n in range(horizon)
               if (bits >> (n if n < t else t + (n - t) % p)) & 1}
    assert members == _distances(e, horizon)
    # the least threshold, and the least period: no divisor of p repeats
    assert t == 0 or (bits >> (t - 1) & 1) != (bits >> (t - 1 + p) & 1)
    block = bits >> t
    for d in range(1, p):
        if p % d == 0:      # rotating the periodic block by d changes it
            assert (block >> d | block << (p - d)) & ((1 << p) - 1) != block


@pytest.fixture
def built_chains(monkeypatch):
    """The node counts of the chains the unlabeled collapse builds, in order."""
    built = []
    monkeypatch.setattr(navex.rewrite, "chain_graph",
                        lambda n, label: built.append(n) or chain_graph(n, label))
    return built


@pytest.mark.parametrize("text", ["(a^3)+ & (a^7)+", "a^3 & (a . (a^3)+)"])
def test_collapse_evaluates_logarithmically_many_chains(text, built_chains):
    e = Proj1(parse(text))      # the distance fragment alone searches no chain
    form = normalize_unlabeled_boolean(e)
    assert len(built_chains) <= 2 * math.ceil(math.log2(form.searched)) + 2
    bound = witness_span(e) + 1
    assert form.searched == (_first_nonempty_chain(e, bound) or bound)


@pytest.mark.parametrize("text, k", [("(a^3)+ & (a^7)+", 21), ("a^3 & (a . (a^3)+)", None)])
def test_collapse_decides_the_distance_fragment_on_no_chain(text, k, built_chains):
    form = normalize_unlabeled_boolean(parse(text))
    assert (form.k, form.searched) == (k, 0)
    assert built_chains == []


def test_collapse_refuses_chains_beyond_the_instance_ceiling(built_chains, monkeypatch):
    monkeypatch.setenv("NAVEX_MAX_INSTANCES", "100")
    # power 21 needs 22 nodes, 253 pairs; 14 nodes have 105
    with pytest.raises(ResourceLimitError) as exc:
        normalize_unlabeled_boolean(parse("pi1((a^3)+ & (a^7)+)"))
    assert "normalize_unlabeled_boolean" in str(exc.value)
    assert "NAVEX_MAX_INSTANCES" in str(exc.value)
    assert max(built_chains) * (max(built_chains) + 1) // 2 <= 100
    # a power found on small chains is still found
    assert normalize_unlabeled_boolean(parse("pi1((a^2)+ & (a^3)+)")).k == 6
    # the arithmetic keeps sets of period 143 past this ceiling too
    built_chains.clear()
    with pytest.raises(ResourceLimitError) as exc:
        normalize_unlabeled_boolean(parse("(a^11)+ & (a^13)+"))
    assert "normalize_unlabeled_boolean: distance arithmetic" in str(exc.value)
    assert "NAVEX_MAX_INSTANCES" in str(exc.value)
    assert built_chains == []

    # power 2,431 needs 2,432 nodes, and the default ceiling admits chains
    # of up to 1,999 nodes, so it must stop the search; the arithmetic
    # needs a set of period 2,431 only
    monkeypatch.delenv("NAVEX_MAX_INSTANCES")
    with pytest.raises(ResourceLimitError):
        normalize_unlabeled_boolean(parse("pi1(((a^11)+ & (a^13)+) & (a^17)+)"))
    assert max(built_chains) < 2000
    assert normalize_unlabeled_boolean(parse("((a^11)+ & (a^13)+) & (a^17)+")).k == 2431
    e = parse("(((a^3 & a^5) & (a^7)+) & (a^11)+) & (a^13)+")
    assert normalize_unlabeled_boolean(e).kind == "empty"


# --- the report driver ------------------------------------------------------

def test_run_pipeline_certifies_and_reports():
    r = run_pipeline("chain-projections", parse("pi1(a+) . b"))
    assert isinstance(r, RewriteReport)
    assert r.verdict is not None and bool(r.verdict)
    assert not operators_used(r.result).flags & {"pi1", "pi2"}
    assert any("automaton" in s for s in r.steps)
    assert bool(r)

    r = run_pipeline("tree-set-operations", parse("a & b"), max_nodes=4)
    assert r.verdict is not None and bool(r.verdict)

    r = run_pipeline("unlabeled-normal-form", parse("(a^2)+ & (a^3)+"))
    assert r.verdict is not None and bool(r.verdict)
    assert "power 6" in " ".join(r.steps)

    r = run_pipeline("tree-pi2", parse("a . pi2(b)"), certify=False)
    assert r.verdict is None
    assert bool(r)


def test_unlabeled_normal_form_over_another_label():
    r = run_pipeline("unlabeled-normal-form", parse("(b^3)+ & (b^7)+"))
    assert r.verdict is not None and bool(r.verdict)
    assert r.result == parse("b^21")
    assert "power 21" in " ".join(r.steps)


def test_run_pipeline_rejects_unknown_names():
    with pytest.raises(RewriteError) as exc:
        run_pipeline("no-such-pipeline", parse("a"))
    for name in ("chain-projections", "tree-pi2", "tree-set-operations",
                 "unlabeled-normal-form"):
        assert name in str(exc.value)


# Rewrites minimize their automata before state elimination.  The sizes
# before minimization were 11,269, 634 and 1,814 operators; minimizing the
# last case by determinization alone would give 766,079,320.  The
# chain-projections family (a|b)+ . a . (a|b)^k rewrites to 2k + 6 operators.
# The last three rows put such nondeterministic bodies under projections,
# where moving a tracked run to every hitting set of its successors, not
# to one successor, builds exponentially many states.
@pytest.mark.parametrize("pipeline, text, most", [
    ("tree-set-operations", r"(a|b|c)+ \ ((a.b.c)+ | (c.b)+)", 46),
    ("tree-set-operations", r"(a | b)+ \ (a . b)+", 15),
    ("chain-projections", "pi1(a+ . pi1(b+ . pi1(c+)))", 11),
    ("tree-set-operations", "(a|b)+ . a" + " . (a|b)" * 5, 16),
    *[("chain-projections", f"(a|b)+ . a . (a|b)^{k}", most)
      for k, most in ((3, 12), (5, 16), (7, 20), (9, 24))],
    ("chain-projections", "pi1((a|b)+ . a . (a|b)^9) . b", 23),
    ("tree-pi2", "b . pi2((a|b)^9 . a . (a|b)+)", 30),
    ("chain-projections", "pi2((a|b)^5 . a . (a|b)+) . pi1(b . (a|b)^5)", 27),
    # complements split each subset on its own states' conditions only;
    # splitting every subset on every condition gave 7, 825 and 465
    ("tree-set-operations", r"a \ (a . pi1(b))", 2),
    ("tree-set-operations", r"(a . (a . a . a))+ \ copi2(a)", 14),
    ("tree-set-operations", r"a . (b . (a . a))+ \ copi1(a)", 13),
    # neither complements nor products build a state holding a condition
    # and its complement; building them gave 14, 15 and 3
    ("tree-set-operations", r"a+ \ (a | (a \ pi1(a)))", 9),
    ("tree-set-operations", r"copi2(a) \ (pi1(a) \ pi2(a & a))", 3),
    ("tree-set-operations", r"id \ (pi1(a) | copi1(a))", 0),
])
def test_minimized_rewrites_stay_small_and_certify(pipeline, text, most):
    report = run_pipeline(pipeline, parse(text))
    assert report.verdict, report.verdict
    assert size(report.result) <= most


@pytest.mark.parametrize("pipeline, text, checked", [
    ("chain-projections", "pi1(a+ . pi1(b+ . pi1(c+)))", 3280),
    ("tree-set-operations", r"(a|b|c)+ \ ((a.b.c)+ | (c.b)+)", 596),
])
def test_baseline_cases_certify_over_their_whole_streams(pipeline, text, checked):
    # the two slowest certifications at their pipelines' default bounds:
    # 3,280 chains of up to 8 nodes and 596 trees of up to 5, over 3 labels
    verdict = run_pipeline(pipeline, parse(text)).verdict
    assert (verdict.equivalent, verdict.checked, verdict.labels) == (True, checked, 3)


def test_normal_form_str():
    assert str(normalize_unlabeled_boolean(parse("0"))) == "empty"
    assert str(normalize_unlabeled_boolean(parse("a"))).startswith("power 1")


# the README's examples for each pipeline, and the ROADMAP's set-operation case
_README_CASES = [
    ("unlabeled-normal-form", "(b^3)+ & (b^7)+"),
    ("tree-set-operations", "a+ \\ a"),
    ("chain-projections", "pi1(a+ . pi1(b+ . pi1(c+)))"),
    ("tree-pi2", "a . pi2(b . a+) . b"),
    ("tree-set-operations", "(a|b|c)+ \\ ((a.b.c)+ | (c.b)+)"),
    ("tree-set-operations", "a \\ (a . pi1(b))"),
]
_REWRITE_SCRIPT = """
import json, sys
from navex.expr import parse, render
from navex.rewrite import run_pipeline
reports = [run_pipeline(name, parse(text), certify=False)
           for name, text in json.loads(sys.argv[1])]
print(json.dumps([[render(r.result), list(r.steps)] for r in reports]))
"""


def _rewrites_under_hash_seed(seed):
    src = str(Path(next(iter(navex.__path__))).resolve().parent)
    env = {**os.environ, "PYTHONHASHSEED": str(seed),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _REWRITE_SCRIPT, json.dumps(_README_CASES)],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(done.stdout)


def test_rewrites_do_not_depend_on_the_hash_seed():
    """Sets of strings and expressions iterate in an order that changes
    with the hash seed; no rewrite result or step may follow it."""
    first = _rewrites_under_hash_seed(0)
    assert len(first) == len(_README_CASES)
    assert first == _rewrites_under_hash_seed(1)
