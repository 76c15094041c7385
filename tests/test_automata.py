"""Condition automata: structure, evaluation, determinism."""

import pytest

from navex.automata import (
    ID, AutomatonError, ConditionAutomaton, state_condition_expr, state_key,
)
from navex.evaluate import EvalContext, evaluate
from navex.expr import EdgeLabel, IDENTITY, parse, render
from navex.graphs import Graph, chain_graph, enumerate_trees

from automaton_eval import _satisfying_nodes, check_deterministic, eval_automaton


@pytest.fixture(scope="module")
def branchy():
    """Condition automaton with a self-loop, two entry points, and conditions
    pi2(l1^2), pi1(l2^3) on its middle state."""
    return ConditionAutomaton.build(
        states={"q1", "q2", "q3", "q4"},
        alphabet={"l1", "l2", "l3"},
        initials={"q1", "q4"},
        finals={"q3", "q4"},
        transitions=[("q1", "l1", "q2"), ("q1", "l3", "q4"),
                     ("q2", "l1", "q2"), ("q2", "l2", "q3")],
        state_conditions=[("q1", parse("id")),
                          ("q2", parse("pi2(l1^2)")),
                          ("q2", parse("pi1(l2^3)"))],
    )


@pytest.fixture(scope="module")
def deep_tree():
    """A tree with an l1-spine, two l2-tails, and one l3 branch at the root."""
    edges = [
        ("r", "l1", "n1"), ("n1", "l1", "n2"), ("n2", "l1", "n3"),
        ("n3", "l2", "n4"), ("n2", "l2", "m21"), ("m21", "l2", "m22"),
        ("m22", "l2", "m23"), ("n4", "l2", "m41"), ("m41", "l2", "m42"),
        ("r", "l3", "m"),
    ]
    nodes = {s for s, _, _ in edges} | {t for _, _, t in edges}
    return Graph.build(nodes, {"l1", "l2", "l3"}, edges)


def test_validation_rejects_bad_structure():
    with pytest.raises(AutomatonError):
        ConditionAutomaton.build({"q"}, {ID}, {"q"}, {"q"}, [], [])
    with pytest.raises(AutomatonError):
        ConditionAutomaton.build({"q"}, {"a"}, {"q", "p"}, set(), [], [])
    with pytest.raises(AutomatonError):
        ConditionAutomaton.build({"q"}, {"a"}, {"q"}, set(), [("q", "b", "q")], [])
    with pytest.raises(AutomatonError):
        ConditionAutomaton.build({"q"}, {"a"}, {"q"}, set(), [], [("q", parse("a"))])
    with pytest.raises(AutomatonError):
        ConditionAutomaton.build({"q"}, {"a"}, {"q"}, set(), [], [("p", parse("pi1(a)"))])


def test_state_key_orders_mixed_states():
    states = ["q1", ("q1", frozenset({"x"})), 3, ("a", 1)]
    ordered = sorted(states, key=state_key)
    assert sorted(ordered, key=state_key) == ordered
    assert state_key(parse("pi1(a)")) == ("e", "pi1(a)")


def test_state_condition_expr(branchy, deep_tree):
    assert state_condition_expr(branchy, "q3") == IDENTITY
    assert state_condition_expr(branchy, "q1") == IDENTITY  # single id condition
    composed = state_condition_expr(branchy, "q2")
    both = evaluate(composed, deep_tree)
    assert both == (evaluate(parse("pi2(l1^2)"), deep_tree)
                    & evaluate(parse("pi1(l2^3)"), deep_tree))


def test_eval_matches_equivalent_expression(branchy, deep_tree):
    got = eval_automaton(branchy, deep_tree)
    step = "l1 . pi2(l1^2) . pi1(l2^3)"
    equivalent = parse(f"{step} . ({step})* . l2 | l3 | id")
    assert got == evaluate(equivalent, deep_tree)
    assert ("r", "m") in got
    assert ("n1", "n4") in got
    assert ("n1", "m21") in got
    assert ("r", "n4") not in got


def test_eval_on_every_small_tree_agrees_with_expression(branchy):
    step = "l1 . pi2(l1^2) . pi1(l2^3)"
    equivalent = parse(f"{step} . ({step})* . l2 | l3 | id")
    for tree in enumerate_trees(4, ["l1", "l2", "l3"]):
        assert eval_automaton(branchy, tree) == evaluate(equivalent, tree)


def test_identity_transitions_in_runs():
    a = ConditionAutomaton.build(
        states={"u", "v"}, alphabet={"a"},
        initials={"u"}, finals={"v"},
        transitions=[("u", ID, "v")],
        state_conditions=[("v", parse("pi1(a)"))],
    )
    g = chain_graph(2)
    assert eval_automaton(a, g) == {("n0", "n0")}
    assert not a.identity_free


def test_json_round_trip(branchy):
    data = branchy.to_json()
    back = ConditionAutomaton.from_json(data)
    assert back.to_json() == data
    d = branchy.to_json_dict()
    assert d["states"] == ["s0", "s1", "s2", "s3"]
    assert d["initials"] == ["s0", "s3"]
    assert set(d["conditions"]["s1"]) == {render(parse("pi2(l1^2)")),
                                          render(parse("pi1(l2^3)"))}
    # canonical rename preserves semantics
    g = chain_graph(4, ["l1", "l1", "l2"])
    assert eval_automaton(back, g) == eval_automaton(branchy, g)


def test_dot_output(branchy):
    dot = branchy.to_dot()
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert dot == branchy.to_dot()


# ---------------------------------------------------------------------------
# determinism

@pytest.fixture(scope="module")
def spine_detector():
    """Deterministic automaton: from nodes satisfying pi2(l1^3) it accepts
    targets down an l1 (l2)* l1 path; elsewhere it accepts the node itself."""
    return ConditionAutomaton.build(
        states={"q1", "q2", "q3", "q4", "q5"},
        alphabet={"l1", "l2"},
        initials={"q1", "q4"},
        finals={"q3", "q4"},
        transitions=[
            ("q1", "l1", "q2"), ("q1", "l2", "q5"),
            ("q2", "l2", "q2"), ("q2", "l1", "q3"),
            ("q3", "l1", "q5"), ("q3", "l2", "q5"),
            ("q4", "l1", "q5"), ("q4", "l2", "q5"),
            ("q5", "l1", "q5"), ("q5", "l2", "q5"),
        ],
        state_conditions=[("q1", parse("pi2(l1^3)")),
                          ("q4", parse("copi2(l1^3)"))],
    )


def test_deterministic_example(spine_detector):
    assert check_deterministic(spine_detector, max_nodes=5)


def test_branchy_automaton_is_not_deterministic(branchy):
    # both initial states hold at every node: two runs of length zero
    assert not check_deterministic(branchy, max_nodes=2)


def test_determinism_requires_identity_free():
    a = ConditionAutomaton.build({"u", "v"}, {"a"}, {"u"}, {"v"},
                                 [("u", ID, "v")], [])
    with pytest.raises(AutomatonError):
        check_deterministic(a)


def test_branching_two_steps_down_is_not_deterministic():
    # every node starts in p alone; the choice between r1 and r2 comes only
    # after one step, so edges must be walked from the root down to reach it
    a = ConditionAutomaton.build(
        {"p", "q", "r1", "r2"}, {"a"}, {"p"}, {"r1", "r2"},
        [("p", "a", "q"), ("q", "a", "r1"), ("q", "a", "r2")], [])
    assert check_deterministic(a, max_nodes=2)
    assert not check_deterministic(a, max_nodes=3)


def _literal_deterministic(a: ConditionAutomaton, tree: Graph) -> bool:
    """Reference formulation: exactly one initial-started run between every
    ancestor-or-self node pair, counted by dynamic programming over the
    unique tree path."""
    ctx = EvalContext(tree)
    sat = _satisfying_nodes(a, ctx)
    parent = {t: (s, lab) for s, lab, t in tree.edges}

    def path(m, n):
        # unique tree path m .. n, or None if m is not an ancestor of n
        back = [n]
        labs = []
        cur = n
        while cur != m:
            if cur not in parent:
                return None
            cur, lab = parent[cur][0], parent[cur][1]
            back.append(cur)
            labs.append(lab)
        return list(reversed(back)), list(reversed(labs))

    for m in tree.nodes:
        for n in tree.nodes:
            got = path(m, n)
            if got is None:
                continue
            nodes, labs = got
            counts = {q: 1 for q in a.initials
                      if sat[q] >> ctx.index[nodes[0]] & 1}
            for step, lab in enumerate(labs):
                nxt: dict = {}
                node_idx = ctx.index[nodes[step + 1]]
                for q, c in counts.items():
                    for lab2, q2 in a.successors[q]:
                        if lab2 == lab and sat[q2] >> node_idx & 1:
                            nxt[q2] = nxt.get(q2, 0) + c
                counts = nxt
            if sum(counts.values()) != 1:
                return False
    return True


def test_node_local_determinism_matches_run_counting(branchy, spine_detector):
    no_continuation = ConditionAutomaton.build(
        {"u", "v"}, {"a", "b"}, {"u"}, {"v"}, [("u", "a", "v")], [])
    doubled = ConditionAutomaton.build(
        {"u", "v", "w"}, {"a"}, {"u"}, {"v"},
        [("u", "a", "v"), ("u", "a", "w")], [])
    for automaton in (branchy, spine_detector, no_continuation, doubled):
        trees = list(enumerate_trees(4, sorted(automaton.alphabet)))
        literal = all(_literal_deterministic(automaton, t) for t in trees)
        node_local = check_deterministic(automaton, max_nodes=4)
        assert node_local == literal
