"""Translations between navigational expressions and condition automata, and
the automaton constructions that eliminate identity transitions, build
intersections, determinize, take downward complements on trees, and
minimize.

minimize runs before state elimination, whose output grows with the state
count: it quotients an automaton by bisimulation and, where no conditions
remain, also takes the minimal deterministic automaton, keeping the smaller.
The constructions build their results with ConditionAutomaton.build(...,
check=False): their parts satisfy the automaton invariants by construction,
so only automata built by callers are validated.

compose_automata, union_automata and plus_automaton number their states
0..n-1: the first operand keeps its numbers, the second is placed after it,
and the fresh endpoints of `+` come last.  That is the numbering
renumber_states gives the tagged disjoint union, and renumber_states returns
an operand already numbered that way as it is.  trim_automaton, and so
minimize, number the states they keep 0..n-1 in state_key order.
remove_identity_transitions keeps the identity pairs themselves as states,
since their structure is the point of the construction.
"""

from __future__ import annotations

from collections import Counter
from itertools import count

from .automata import (
    _FIELDS, ID, ConditionAutomaton, state_condition_expr, state_key,
)
from .expr import (
    Compose, Coproj1, Coproj2, EdgeLabel, Empty, Expr, FragmentError,
    Identity, Proj1, Proj2, TransClosure, Union,
    EMPTY, IDENTITY, _children, _fold, labels_used, operators_used, render,
)
from .graphs import ResourceLimitError, _reach, _subsets

__all__ = [
    "expr_to_automaton", "automaton_to_expr", "renumber_states",
    "compose_automata", "union_automata", "plus_automaton",
    "identity_pairs", "remove_identity_transitions", "intersect_automata",
    "condition_complement", "determinize", "downward_complement_automaton",
    "difference_automata", "trim_automaton", "minimize",
]


def renumber_states(a: ConditionAutomaton) -> ConditionAutomaton:
    """The same automaton with states renamed to 0..n-1 in canonical order;
    `a` itself when its states are those ints already."""
    if (a.states == frozenset(range(len(a.states)))
            and set(map(type, a.states)) <= {int}):
        return a
    names = {q: i for i, q in enumerate(a.ordered_states)}
    return ConditionAutomaton.build(
        states=names.values(),
        alphabet=a.alphabet,
        initials=[names[q] for q in a.initials],
        finals=[names[q] for q in a.finals],
        transitions=[(names[s], lab, names[t]) for s, lab, t in a.transitions],
        state_conditions=[(names[q], c) for q, c in a.state_conditions],
        check=False,
    )


def _shifted(a: ConditionAutomaton, k: int) -> tuple:
    """States, initials, finals, transitions and state conditions of a
    numbered automaton, with every state moved up by k."""
    return ({q + k for q in a.states}, {q + k for q in a.initials},
            {q + k for q in a.finals},
            {(s + k, lab, t + k) for s, lab, t in a.transitions},
            {(q + k, c) for q, c in a.state_conditions})


def compose_automata(a1: ConditionAutomaton, a2: ConditionAutomaton) -> ConditionAutomaton:
    """Accepts (m, n) when a1 accepts (m, x) and a2 accepts (x, n): identity
    transitions bridge every final of a1 to every initial of a2."""
    a1, a2 = renumber_states(a1), renumber_states(a2)
    states2, initials2, finals2, transitions2, conds2 = _shifted(a2, len(a1.states))
    return ConditionAutomaton.build(
        states=a1.states | states2,
        alphabet=a1.alphabet | a2.alphabet,
        initials=a1.initials,
        finals=finals2,
        transitions=(a1.transitions | transitions2
                     | {(f, ID, i) for f in a1.finals for i in initials2}),
        state_conditions=a1.state_conditions | conds2,
        check=False,
    )


def union_automata(a1: ConditionAutomaton, a2: ConditionAutomaton) -> ConditionAutomaton:
    a1, a2 = renumber_states(a1), renumber_states(a2)
    states2, initials2, finals2, transitions2, conds2 = _shifted(a2, len(a1.states))
    return ConditionAutomaton.build(
        states=a1.states | states2,
        alphabet=a1.alphabet | a2.alphabet,
        initials=a1.initials | initials2,
        finals=a1.finals | finals2,
        transitions=a1.transitions | transitions2,
        state_conditions=a1.state_conditions | conds2,
        check=False,
    )


def plus_automaton(a: ConditionAutomaton) -> ConditionAutomaton:
    """One or more a-steps: fresh endpoints wired by identity transitions,
    with a back edge allowing repetition."""
    a = renumber_states(a)
    v, w = len(a.states), len(a.states) + 1
    return ConditionAutomaton.build(
        states=a.states | {v, w},
        alphabet=a.alphabet,
        initials={v},
        finals={w},
        transitions=(a.transitions | {(v, ID, q) for q in a.initials}
                     | {(q, ID, w) for q in a.finals} | {(w, ID, v)}),
        state_conditions=a.state_conditions,
        check=False,
    )


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
            {0, 1}, sigma, {0}, {1}, transitions, [], check=False)

    def condition_state(cond):
        return ConditionAutomaton.build(
            {0}, sigma, {0}, {0}, [], [(0, cond)], check=False)

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
    as written.

    The entries live in adjacency maps, `out[p][r]` and `inn[r][p]` for the
    entry from p to r, updated as entries are added and removed; a state's
    degree (its entries to and from other states) is read off their sizes
    and re-ranked only when a neighbour is eliminated.  The order is that of
    a full rescan: least (degree, state_key) first.  Eliminating a state adds
    at most one term to each entry, so the order in which its in- and
    out-entries are combined cannot reach the result."""
    src, snk = _Endpoint("source"), _Endpoint("sink")
    keys = {q: state_key(q) for q in a.states}
    keys[src], keys[snk] = state_key(src), state_key(snk)
    chat = {q: state_condition_expr(a, q) for q in a.states}
    chat[src] = chat[snk] = IDENTITY
    out: dict = {q: {} for q in keys}
    inn: dict = {q: {} for q in keys}

    def add(p, r, term):
        if isinstance(term, Empty):
            return
        out[p][r] = inn[r][p] = _union_expr(out[p].get(r, EMPTY), term)

    all_transitions = sorted(
        a.transitions, key=lambda tr: (keys[tr[0]], tr[1], keys[tr[2]]))
    all_transitions += [(src, ID, q) for q in sorted(a.initials, key=keys.get)]
    all_transitions += [(q, ID, snk) for q in sorted(a.finals, key=keys.get)]
    for s, lab, t in all_transitions:
        atom = IDENTITY if lab == ID else EdgeLabel(lab)
        add(s, t, _compose_expr(chat[s], _compose_expr(atom, chat[t])))

    def rank(q):
        return len(out[q]) + len(inn[q]) - 2 * (q in out[q]), keys[q]

    ranks = {q: rank(q) for q in a.states}
    active = set(a.states)
    while active:
        q = min(active, key=ranks.get)
        active.remove(q)
        mid = _star_expr(out[q].pop(q, EMPTY))
        inn[q].pop(q, None)
        ins, outs = inn.pop(q), out.pop(q)
        for p, ein in ins.items():
            for r, eout in outs.items():
                add(p, r, _compose_expr(ein, _compose_expr(mid, eout)))
        for p in ins:
            del out[p][q]
        for r in outs:
            del inn[r][q]
        for s in ins.keys() | outs.keys():
            if s in active:
                ranks[s] = rank(s)

    return out[src].get(snk, EMPTY)


# ---------------------------------------------------------------------------
# identity-transition removal

def identity_pairs(a: ConditionAutomaton) -> frozenset:
    """All pairs (q, V): V is the exact set of states visited by some walk of
    identity transitions starting at q."""
    def step(cfg):
        cursor, visited = cfg
        return ((t, visited | {t}) for t in a.moves.get((cursor, ID), ()))

    return frozenset((q, visited) for q in a.states
                     for _, visited in _reach([(q, frozenset({q}))], step))


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
        initials=[(q, v) for q, v in pairs if q in a.initials],
        finals=[(q, v) for q, v in pairs if v & a.finals],
        transitions=transitions,
        state_conditions=state_conditions,
        check=False,
    )


# ---------------------------------------------------------------------------
# intersection (sound on trees)

def intersect_automata(a1: ConditionAutomaton, a2: ConditionAutomaton) -> ConditionAutomaton:
    """The part of the synchronized product reachable from the pairs of
    initial states: a pair (p, q) steps along a label when both p and q do,
    and carries the conditions of both.  Evaluated on trees this is the
    intersection of the two automata; on graphs with parallel paths it can
    undershoot.  Identity transitions are removed from both operands first."""
    a1 = remove_identity_transitions(a1)
    a2 = remove_identity_transitions(a2)
    transitions = set()

    def step(pair):
        p, q = pair
        for lab, p2 in a1.successors[p]:
            for q2 in a2.moves.get((q, lab), ()):
                transitions.add((pair, lab, (p2, q2)))
                yield p2, q2

    initials = {(p, q) for p in a1.initials for q in a2.initials}
    states = _reach(initials, step)
    return ConditionAutomaton.build(
        states=states,
        alphabet=a1.alphabet | a2.alphabet,
        initials=initials,
        finals={(p, q) for p, q in states if p in a1.finals and q in a2.finals},
        transitions=transitions,
        state_conditions=[((p, q), c) for p, q in states
                          for c in a1.gamma[p] | a2.gamma[q]],
        check=False,
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


def determinize(a: ConditionAutomaton, *, limit: int | None = None) -> ConditionAutomaton:
    """Subset construction refined by condition sets: states are pairs (Q, V)
    with Q original states and V the conditions assumed to hold at the
    current node.  On trees every node satisfies exactly one V, making the
    result deterministic.  Only the states reachable from the initial ones
    are built; with C the conditions attached to some state, there are at
    most 2^|S| * 2^|C| of them, and more than the instance ceiling, or than
    `limit`, raises ResourceLimitError, as every reachability walk does.

    The result is complete: over a label none of its states move on, a
    subset steps into the subsets (empty set, W), the sink.  A complement
    needs the sink; trimming drops it, as it reaches no final state."""
    a = renumber_states(remove_identity_transitions(a))
    conds = tuple(sorted(a.conditions, key=render))
    for c in conds:
        condition_complement(c)  # fail early on non-atomic conditions
    subsets = _subsets(conds)
    gamma = a.gamma
    transitions = set()

    def step(state):
        q_set, _ = state
        moves: dict = {}
        for q in q_set:
            for lab, t in a.successors[q]:
                moves.setdefault(lab, set()).add(t)
        moves.update(dict.fromkeys(a.alphabet.difference(moves), ()))
        for lab, p in moves.items():
            for w in subsets:
                target = (frozenset(x for x in p if gamma[x] <= w), w)
                transitions.add((state, lab, target))
                yield target

    initials = [(frozenset(q for q in a.initials if gamma[q] <= v), v) for v in subsets]
    states = _reach(initials, step, limit)
    assert len(states) <= 2 ** len(a.states) * 2 ** len(conds)
    state_conditions = []
    for q_set, v in states:
        attached = set(v) | {condition_complement(c) for c in conds if c not in v}
        state_conditions.extend(((q_set, v), c) for c in attached)
    return ConditionAutomaton.build(
        states=states,
        alphabet=a.alphabet,
        initials=initials,
        finals=[(q_set, v) for q_set, v in states if q_set & a.finals],
        transitions=transitions,
        state_conditions=state_conditions,
        check=False,
    )


def _replace(a: ConditionAutomaton, **parts) -> ConditionAutomaton:
    """`dataclasses.replace` without re-validating the unchanged parts."""
    return ConditionAutomaton.build(
        **{name: parts.get(name, getattr(a, name)) for name in _FIELDS},
        check=False)


def downward_complement_automaton(a: ConditionAutomaton) -> ConditionAutomaton:
    """On a tree, accepts exactly the descendant-or-self pairs the input does
    not accept: determinize, flip the finals, drop useless states."""
    d = determinize(a)
    return trim_automaton(_replace(d, finals=d.states - d.finals))


def difference_automata(a1: ConditionAutomaton, a2: ConditionAutomaton) -> ConditionAutomaton:
    """On trees: pairs accepted by a1 but not a2.  The second operand must
    range over every label a1 can step through, so the complement covers all
    of a1's paths."""
    a2 = _replace(a2, alphabet=a2.alphabet | a1.alphabet)
    return intersect_automata(a1, downward_complement_automaton(a2))


def trim_automaton(a: ConditionAutomaton) -> ConditionAutomaton:
    """Keep the states reachable from an initial state and able to reach a
    final state, with their conditions, numbered 0..n-1 in state_key order."""
    predecessors: dict = {}
    for s, _, t in a.transitions:
        predecessors.setdefault(t, []).append(s)
    keep = (_reach(a.initials, lambda q: (t for _, t in a.successors[q]))
            & _reach(a.finals, lambda q: predecessors.get(q, ())))
    return renumber_states(ConditionAutomaton.build(
        states=keep,
        alphabet=a.alphabet,
        initials=a.initials & keep,
        finals=a.finals & keep,
        transitions=[(s, lab, t) for s, lab, t in a.transitions
                     if s in keep and t in keep],
        state_conditions=[(q, c) for q, c in a.state_conditions if q in keep],
        check=False,
    ))


# ---------------------------------------------------------------------------
# minimization

def _quotient(a: ConditionAutomaton) -> ConditionAutomaton:
    """The quotient of `a` by its coarsest bisimulation that keeps finality
    and conditions, numbered 0..n-1 in the order of `a`'s states.

    States start in blocks of equal finality and conditions.  Each round
    splits the blocks by signature, the set of (label, target block) steps,
    as in Moore's (1956) refinement; but it recomputes only the signatures
    of the states with a successor that changed block in the round before,
    and a split block keeps its number for the states whose signature did
    not change (or, when all changed, for the largest group).  So a round
    costs the steps of the states it re-examines, and a word of n letters
    takes n rounds of one state each, not n rounds over every state."""
    predecessors: dict = {}
    for s, _, t in a.transitions:
        predecessors.setdefault(t, set()).add(s)
    gamma = a.gamma
    ids: dict = {}
    block = {q: ids.setdefault((q in a.finals, gamma[q]), len(ids)) for q in a.states}
    size = Counter(block.values())
    shared: dict = {}  # block -> the signature of its members not re-examined
    fresh = count(len(ids))
    dirty = set(a.states)
    while dirty:
        groups: dict = {}
        for q in dirty:
            signature = frozenset((lab, block[t]) for lab, t in a.successors[q])
            groups.setdefault(block[q], {}).setdefault(signature, []).append(q)
        moved = []
        for b, by_signature in groups.items():
            if sum(map(len, by_signature.values())) == size[b]:
                shared[b] = max(by_signature, key=lambda sg: len(by_signature[sg]))
            for signature, members in by_signature.items():
                if signature != shared[b]:
                    new = next(fresh)
                    shared[new], size[new] = signature, len(members)
                    size[b] -= len(members)
                    block.update(dict.fromkeys(members, new))
                    moved += members
        dirty = {p for q in moved for p in predecessors.get(q, ())}
    number: dict = {}
    for q in a.ordered_states:
        number.setdefault(block[q], len(number))
    block = {q: number[b] for q, b in block.items()}
    return ConditionAutomaton.build(
        states=range(len(number)),
        alphabet=a.alphabet,
        initials={block[q] for q in a.initials},
        finals={block[q] for q in a.finals},
        transitions={(block[s], lab, block[t]) for s, lab, t in a.transitions},
        state_conditions={(block[q], c) for q, c in a.state_conditions},
        check=False,
    )


def minimize(a: ConditionAutomaton) -> ConditionAutomaton:
    """An automaton accepting the same pairs as `a` on every graph, with
    states numbered 0..n-1: the quotient of trimmed `a` by bisimulation.  A
    condition-free `a` is also determinized, trimmed of its sink and
    quotiented, which on a deterministic automaton is Moore's (1956)
    minimization; the result is whichever of the two has fewer transitions,
    then states.  A subset construction that outgrows the states and
    transitions of `a` plus the sink is abandoned, since determinizing can
    take exponentially many states where the quotient keeps few."""
    a = trim_automaton(a)
    quotient = _quotient(a)
    if a.conditions or not a.states:
        return quotient
    try:
        d = determinize(a, limit=len(a.states) + len(a.transitions) + 1)
    except ResourceLimitError:
        return quotient
    return min(_quotient(trim_automaton(d)), quotient,
               key=lambda m: (len(m.transitions), len(m.states)))
