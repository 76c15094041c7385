"""Translations between navigational expressions and condition automata, and
the automaton constructions that eliminate identity transitions, build
intersections, determinize, and take downward complements on trees.

State names are rebuilt as small integers after every public construction;
the exception is remove_identity_transitions, whose states are the identity
pairs themselves, since their structure is the point of the construction.
"""

from __future__ import annotations

from .automata import ID, ConditionAutomaton, state_condition_expr, state_key
from .expr import (
    Compose, Coproj1, Coproj2, EdgeLabel, Empty, Expr, FragmentError,
    Identity, Proj1, Proj2, TransClosure, Union,
    EMPTY, IDENTITY, _children, _fold, labels_used, operators_used, render,
)
from .graphs import ResourceLimitError, _subsets, default_ceiling

__all__ = [
    "expr_to_automaton", "automaton_to_expr", "renumber_states",
    "compose_automata", "union_automata", "plus_automaton",
    "identity_pairs", "remove_identity_transitions", "intersect_automata",
    "condition_complement", "determinize", "downward_complement_automaton",
    "difference_automata", "trim_automaton",
]


def renumber_states(a: ConditionAutomaton) -> ConditionAutomaton:
    """The same automaton with states renamed to 0..n-1 in canonical order."""
    names = {q: i for i, q in enumerate(a.ordered_states)}
    return ConditionAutomaton.build(
        states=names.values(),
        alphabet=a.alphabet,
        conditions=a.conditions,
        initials=[names[q] for q in a.initials],
        finals=[names[q] for q in a.finals],
        transitions=[(names[s], lab, names[t]) for s, lab, t in a.transitions],
        state_conditions=[(names[q], c) for q, c in a.state_conditions],
    )


def _tagged(a: ConditionAutomaton, tag: int):
    return {
        "states": {(tag, s) for s in a.states},
        "initials": {(tag, s) for s in a.initials},
        "finals": {(tag, s) for s in a.finals},
        "transitions": {((tag, s), lab, (tag, t)) for s, lab, t in a.transitions},
        "state_conditions": {((tag, q), c) for q, c in a.state_conditions},
    }


def compose_automata(a1: ConditionAutomaton, a2: ConditionAutomaton) -> ConditionAutomaton:
    """Accepts (m, n) when a1 accepts (m, x) and a2 accepts (x, n): identity
    transitions bridge every final of a1 to every initial of a2."""
    t1, t2 = _tagged(a1, 0), _tagged(a2, 1)
    bridges = {(f, ID, i) for f in t1["finals"] for i in t2["initials"]}
    return renumber_states(ConditionAutomaton.build(
        states=t1["states"] | t2["states"],
        alphabet=a1.alphabet | a2.alphabet,
        conditions=a1.conditions | a2.conditions,
        initials=t1["initials"],
        finals=t2["finals"],
        transitions=t1["transitions"] | t2["transitions"] | bridges,
        state_conditions=t1["state_conditions"] | t2["state_conditions"],
    ))


def union_automata(a1: ConditionAutomaton, a2: ConditionAutomaton) -> ConditionAutomaton:
    t1, t2 = _tagged(a1, 0), _tagged(a2, 1)
    return renumber_states(ConditionAutomaton.build(
        states=t1["states"] | t2["states"],
        alphabet=a1.alphabet | a2.alphabet,
        conditions=a1.conditions | a2.conditions,
        initials=t1["initials"] | t2["initials"],
        finals=t1["finals"] | t2["finals"],
        transitions=t1["transitions"] | t2["transitions"],
        state_conditions=t1["state_conditions"] | t2["state_conditions"],
    ))


def plus_automaton(a: ConditionAutomaton) -> ConditionAutomaton:
    """One or more a-steps: fresh endpoints wired by identity transitions,
    with a back edge allowing repetition."""
    t = _tagged(a, 0)
    v, w = (1, 0), (1, 1)
    extra = ({(v, ID, q) for q in t["initials"]}
             | {(q, ID, w) for q in t["finals"]}
             | {(w, ID, v)})
    return renumber_states(ConditionAutomaton.build(
        states=t["states"] | {v, w},
        alphabet=a.alphabet,
        conditions=a.conditions,
        initials={v},
        finals={w},
        transitions=t["transitions"] | extra,
        state_conditions=t["state_conditions"],
    ))


_AUTOMATON_OPS = ("tc", "pi1", "pi2", "copi1", "copi2")
_CONDITIONS = (Proj1, Proj2, Coproj1, Coproj2)


def expr_to_automaton(e: Expr, alphabet=None) -> ConditionAutomaton:
    """Translate an expression over labels, id, 0, composition, union,
    transitive closure, projections, and coprojections into a path-equivalent
    condition automaton.  Projection subterms become state conditions."""
    used = operators_used(e)
    for flag in used:
        if flag not in _AUTOMATON_OPS:
            raise FragmentError(
                f"no automaton translation for the {flag} operator in {render(e)}")
    sigma = frozenset(alphabet) if alphabet is not None else frozenset()
    sigma |= labels_used(e)

    def two_state(transitions):
        return ConditionAutomaton.build(
            {0, 1}, sigma, set(), {0}, {1}, transitions, [])

    def condition_state(cond):
        return ConditionAutomaton.build(
            {0}, sigma, {cond}, {0}, {0}, [], [(0, cond)])

    def translate(node, *kids):
        t = type(node)
        if t is Empty:
            return two_state([])
        if t is Identity:
            return two_state([(0, ID, 1)])
        if t is EdgeLabel:
            return two_state([(0, node.name, 1)])
        if t in _CONDITIONS:
            return condition_state(node)
        if t is Compose:
            return compose_automata(*kids)
        if t is Union:
            return union_automata(*kids)
        if t is TransClosure:
            return plus_automaton(*kids)
        raise FragmentError(f"no automaton translation for {render(node)}")

    # a condition's body is not translated: it stays inside the condition
    return _fold(e, translate,
                 children=lambda node: () if type(node) in _CONDITIONS else _children(node))


# ---------------------------------------------------------------------------
# automaton -> expression (state elimination)

def _union_expr(x: Expr, y: Expr) -> Expr:
    if isinstance(x, Empty):
        return y
    if isinstance(y, Empty):
        return x
    return Union(x, y)


def _compose_expr(x: Expr, y: Expr) -> Expr:
    if isinstance(x, Empty) or isinstance(y, Empty):
        return EMPTY
    return Compose(x, y)


def _star_expr(x: Expr) -> Expr:
    if isinstance(x, Empty):
        return IDENTITY
    return Union(IDENTITY, TransClosure(x))


class _Endpoint:
    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f"<{self.name}>"


def automaton_to_expr(a: ConditionAutomaton) -> Expr:
    """State elimination.  Fresh source and sink endpoints are wired to the
    initial and final states by identity steps; states are eliminated
    cheapest-degree first; the entry between source and sink is the result.
    Empty entries vanish eagerly, but compositions with the identity are kept
    as written."""
    src, snk = _Endpoint("source"), _Endpoint("sink")
    chat = {q: state_condition_expr(a, q) for q in a.states}
    chat[src] = IDENTITY
    chat[snk] = IDENTITY

    entries: dict[tuple, Expr] = {}

    def add(p, r, term):
        if isinstance(term, Empty):
            return
        entries[(p, r)] = _union_expr(entries.get((p, r), EMPTY), term)

    all_transitions = sorted(
        [(s, lab, t) for s, lab, t in a.transitions],
        key=lambda tr: (state_key(tr[0]), tr[1], state_key(tr[2])))
    all_transitions += [(src, ID, q) for q in sorted(a.initials, key=state_key)]
    all_transitions += [(q, ID, snk) for q in sorted(a.finals, key=state_key)]
    for s, lab, t in all_transitions:
        atom = IDENTITY if lab == ID else EdgeLabel(lab)
        add(s, t, _compose_expr(chat[s], _compose_expr(atom, chat[t])))

    active = set(a.states)

    def degree(q):
        return sum(1 for (p, r) in entries if (p == q) != (r == q))

    while active:
        q = min(active, key=lambda s: (degree(s), state_key(s)))
        active.remove(q)
        loop = entries.pop((q, q), EMPTY)
        mid = _star_expr(loop)
        ins = sorted(((p, x) for (p, r), x in entries.items() if r == q),
                     key=lambda t: state_key(t[0]))
        outs = sorted(((r, x) for (p, r), x in entries.items() if p == q),
                      key=lambda t: state_key(t[0]))
        for p, ein in ins:
            for r, eout in outs:
                add(p, r, _compose_expr(ein, _compose_expr(mid, eout)))
        for key in [k for k in entries if q in k]:
            del entries[key]

    return entries.get((src, snk), EMPTY)


# ---------------------------------------------------------------------------
# identity-transition removal

def identity_pairs(a: ConditionAutomaton) -> frozenset:
    """All pairs (q, V): V is the exact set of states visited by some walk of
    identity transitions starting at q."""
    id_succ = {q: sorted((t for s, lab, t in a.transitions
                          if s == q and lab == ID), key=state_key)
               for q in a.states}
    out = set()
    for q in a.states:
        start = (q, frozenset({q}))
        seen = {start}
        stack = [start]
        while stack:
            cursor, visited = stack.pop()
            for t in id_succ[cursor]:
                cfg = (t, visited | {t})
                if cfg not in seen:
                    seen.add(cfg)
                    stack.append(cfg)
        out.update((q, visited) for _, visited in seen)
    return frozenset(out)


def remove_identity_transitions(a: ConditionAutomaton) -> ConditionAutomaton:
    """Path-equivalent identity-transition-free automaton whose states are
    the identity pairs of the input.  Already identity-free automata are
    returned unchanged."""
    if a.identity_free:
        return a
    pairs = identity_pairs(a)
    by_head: dict = {}
    for q, visited in pairs:
        by_head.setdefault(q, []).append((q, visited))
    gamma = a.gamma
    transitions = set()
    for p, visited in pairs:
        seen_targets = set()
        for member in visited:
            for lab, t in a.successors[member]:
                if lab == ID or (lab, t) in seen_targets:
                    continue
                seen_targets.add((lab, t))
                for target_pair in by_head.get(t, ()):
                    transitions.add(((p, visited), lab, target_pair))
    state_conditions = [
        ((q, visited), c)
        for q, visited in pairs
        for member in visited
        for c in gamma[member]
    ]
    return ConditionAutomaton.build(
        states=pairs,
        alphabet=a.alphabet,
        conditions=a.conditions,
        initials=[(q, v) for q, v in pairs if q in a.initials],
        finals=[(q, v) for q, v in pairs if v & a.finals],
        transitions=transitions,
        state_conditions=state_conditions,
    )


# ---------------------------------------------------------------------------
# intersection (sound on trees)

def intersect_automata(a1: ConditionAutomaton, a2: ConditionAutomaton) -> ConditionAutomaton:
    """Synchronized product.  Evaluated on trees this is the intersection of
    the two automata; on graphs with parallel paths it can undershoot.
    Identity transitions are removed from both operands first."""
    a1 = remove_identity_transitions(a1)
    a2 = remove_identity_transitions(a2)
    by_label1: dict = {}
    for s, lab, t in a1.transitions:
        by_label1.setdefault(lab, []).append((s, t))
    transitions = set()
    for s2, lab, t2 in a2.transitions:
        for s1, t1 in by_label1.get(lab, ()):
            transitions.add(((s1, s2), lab, (t1, t2)))
    states = {(p, q) for p in a1.states for q in a2.states}
    state_conditions = (
        [((p, q), c) for p, c in a1.state_conditions for q in a2.states]
        + [((p, q), c) for q, c in a2.state_conditions for p in a1.states]
    )
    return ConditionAutomaton.build(
        states=states,
        alphabet=a1.alphabet | a2.alphabet,
        conditions=a1.conditions | a2.conditions,
        initials={(p, q) for p in a1.initials for q in a2.initials},
        finals={(p, q) for p in a1.finals for q in a2.finals},
        transitions=transitions,
        state_conditions=state_conditions,
    )


# ---------------------------------------------------------------------------
# determinization and downward complement (tree semantics)

def condition_complement(c: Expr) -> Expr:
    """id <-> 0 and projection <-> coprojection; defined on the atomic
    condition forms only."""
    if isinstance(c, Identity):
        return EMPTY
    if isinstance(c, Empty):
        return IDENTITY
    if isinstance(c, Proj1):
        return Coproj1(c.child)
    if isinstance(c, Proj2):
        return Coproj2(c.child)
    if isinstance(c, Coproj1):
        return Proj1(c.child)
    if isinstance(c, Coproj2):
        return Proj2(c.child)
    raise FragmentError(
        f"condition complement is defined for atomic conditions, got {render(c)}")


def determinize(a: ConditionAutomaton) -> ConditionAutomaton:
    """Subset construction refined by condition sets: states are pairs (Q, V)
    with Q original states and V the conditions assumed to hold at the
    current node.  On trees every node satisfies exactly one V, making the
    result deterministic.  Output size is bounded by 2^|S| * 2^|C|."""
    a = renumber_states(remove_identity_transitions(a))
    conds = tuple(sorted(a.conditions, key=render))
    for c in conds:
        condition_complement(c)  # fail early on non-atomic conditions
    subsets = _subsets(conds)
    gamma = a.gamma
    bound = (2 ** len(a.states)) * (2 ** len(conds))
    cap = min(bound, default_ceiling())

    initials = []
    for v in subsets:
        q = frozenset(q for q in a.initials if gamma[q] <= v)
        initials.append((q, v))
    states = set(initials)
    if len(states) > cap:
        raise ResourceLimitError(f"{len(states)} determinized states exceeds {cap}")
    worklist = list(initials)
    transitions = set()
    by_label = {lab: {} for lab in a.alphabet}
    for s, lab, t in a.transitions:
        by_label[lab].setdefault(s, set()).add(t)
    while worklist:
        state = worklist.pop()
        q_set, _ = state
        for lab in sorted(a.alphabet):
            succ = by_label[lab]
            p = set()
            for q in q_set:
                p |= succ.get(q, set())
            for w in subsets:
                p_prime = frozenset(x for x in p if gamma[x] <= w)
                target = (p_prime, w)
                if target not in states:
                    states.add(target)
                    if len(states) > cap:
                        raise ResourceLimitError(
                            f"more than {cap} determinized states")
                    worklist.append(target)
                transitions.add((state, lab, target))
    assert len(states) <= bound
    cond_pool = set(conds) | {condition_complement(c) for c in conds}
    state_conditions = []
    for q_set, v in states:
        attached = set(v) | {condition_complement(c) for c in conds if c not in v}
        state_conditions.extend(((q_set, v), c) for c in attached)
    return ConditionAutomaton.build(
        states=states,
        alphabet=a.alphabet,
        conditions=cond_pool,
        initials=initials,
        finals=[(q_set, v) for q_set, v in states if q_set & a.finals],
        transitions=transitions,
        state_conditions=state_conditions,
    )


def downward_complement_automaton(a: ConditionAutomaton) -> ConditionAutomaton:
    """On a tree, accepts exactly the descendant-or-self pairs the input does
    not accept: determinize, flip the finals, drop useless states."""
    d = determinize(a)
    flipped = ConditionAutomaton(
        states=d.states,
        alphabet=d.alphabet,
        conditions=d.conditions,
        initials=d.initials,
        finals=d.states - d.finals,
        transitions=d.transitions,
        state_conditions=d.state_conditions,
    )
    return renumber_states(trim_automaton(flipped))


def difference_automata(a1: ConditionAutomaton, a2: ConditionAutomaton) -> ConditionAutomaton:
    """On trees: pairs accepted by a1 but not a2.  The second operand must
    range over every label a1 can step through, so the complement covers all
    of a1's paths."""
    a2 = ConditionAutomaton(
        states=a2.states, alphabet=a2.alphabet | a1.alphabet,
        conditions=a2.conditions, initials=a2.initials, finals=a2.finals,
        transitions=a2.transitions, state_conditions=a2.state_conditions,
    )
    return intersect_automata(a1, downward_complement_automaton(a2))


def trim_automaton(a: ConditionAutomaton) -> ConditionAutomaton:
    """Keep the states reachable from an initial state and able to reach a
    final state.  Conditions no longer attached anywhere are dropped from the
    declared set."""
    forward = set(a.initials)
    stack = list(forward)
    while stack:
        q = stack.pop()
        for _, t in a.successors[q]:
            if t not in forward:
                forward.add(t)
                stack.append(t)
    predecessors: dict = {}
    for s, _, t in a.transitions:
        predecessors.setdefault(t, set()).add(s)
    backward = set(a.finals)
    stack = list(backward)
    while stack:
        q = stack.pop()
        for s in predecessors.get(q, ()):
            if s not in backward:
                backward.add(s)
                stack.append(s)
    keep = forward & backward
    state_conditions = [(q, c) for q, c in a.state_conditions if q in keep]
    return ConditionAutomaton.build(
        states=keep,
        alphabet=a.alphabet,
        conditions={c for _, c in state_conditions},
        initials=a.initials & keep,
        finals=a.finals & keep,
        transitions=[(s, lab, t) for s, lab, t in a.transitions
                     if s in keep and t in keep],
        state_conditions=state_conditions,
    )
