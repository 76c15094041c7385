"""Translations between navigational expressions and condition automata, and
the automaton constructions that eliminate identity transitions, build
intersections, determinize (each subset split on its own states' conditions
only), take downward complements on trees, and minimize.

minimize runs before state elimination, whose output grows with the state
count: it quotients an automaton by bisimulation and, where no conditions
remain and the automaton is not deterministic already, also takes the
minimal deterministic automaton, keeping the smaller.  trim_automaton marks
what it returns, so trimming it again walks nothing.
State elimination builds through `_union` and `_compose` of `expr`, where 0
and id are units, so its output carries no identity padding.
The constructions build their results with ConditionAutomaton.build(...,
check=False): their parts satisfy the automaton invariants by construction,
so only automata built by callers are validated.

compose_automata, union_automata and plus_automaton number their states
0..n-1: the first operand keeps its numbers, the second is placed after it,
and the fresh endpoints of `+` come last.  That is the numbering
renumber_states gives the tagged disjoint union, and renumber_states returns
an operand already numbered that way as it is.  trim_automaton, and so
minimize, number the states they keep 0..n-1 in state_key order.
remove_identity_transitions names its states (q, C) instead, by an input
state and the condition set the state carries.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import count

from .automata import (
    _FIELDS, ID, ConditionAutomaton, state_condition_expr, state_key,
)
from .expr import (
    Compose, Coproj1, Coproj2, EdgeLabel, Empty, Expr, FragmentError,
    Identity, Proj1, Proj2, TransClosure, Union,
    EMPTY, IDENTITY, _children, _compose, _fold, _union, labels_used,
    operators_used, render, star,
)
from .graphs import ResourceLimitError, _reach, _subsets

__all__ = [
    "expr_to_automaton", "automaton_to_expr", "renumber_states",
    "compose_automata", "union_automata", "plus_automaton",
    "remove_identity_transitions", "intersect_automata",
    "condition_complement", "determinize", "downward_complement_automaton",
    "difference_automata", "trim_automaton", "minimize",
]


def renumber_states(a: ConditionAutomaton) -> ConditionAutomaton:
    """The same automaton with states renamed to 0..n-1 in canonical order;
    `a` itself when its states are those ints already."""
    n = len(a.states)
    if all(type(q) is int and 0 <= q < n for q in a.states):
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
_ATOMIC = (Identity, Empty, *_CONDITIONS)   # the conditions with a complement


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

class _Endpoint:
    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f"<{self.name}>"


def automaton_to_expr(a: ConditionAutomaton) -> Expr:
    """State elimination.  Fresh source and sink endpoints are wired to the
    initial and final states by identity steps; states are eliminated
    cheapest-degree first; the entry between source and sink is the result.
    A state's conditions open each of its outgoing entries, the step into
    the sink included, so a path tests each state's conditions once.
    Entries are built through `_union` and `_compose`, so empty entries
    vanish and compositions with the identity leave no trace.

    The entries live in adjacency maps, `out[p][r]` and `inn[r][p]` for the
    entry from p to r, updated as entries are added and removed; a state's
    degree (its entries to and from other states) is read off their sizes
    and re-ranked only when a neighbour is eliminated.  The order is that of
    a full rescan: least (degree, state_key) first.  Eliminating a state adds
    at most one term to each entry, so the order in which its in- and
    out-entries are combined cannot reach the result."""
    src, snk = _Endpoint("source"), _Endpoint("sink")
    keys = {q: state_key(q) for q in a.states}
    chat = {q: state_condition_expr(a, q) for q in a.states}
    chat[src] = IDENTITY
    out: dict = {q: {} for q in (*chat, snk)}
    inn: dict = {q: {} for q in (*chat, snk)}

    def add(p, r, term):
        if term is not EMPTY:
            out[p][r] = inn[r][p] = _union(out[p].get(r, EMPTY), term)

    all_transitions = sorted(
        a.transitions, key=lambda tr: (keys[tr[0]], tr[1], keys[tr[2]]))
    all_transitions += [(src, ID, q) for q in sorted(a.initials, key=keys.get)]
    all_transitions += [(q, ID, snk) for q in sorted(a.finals, key=keys.get)]
    for s, lab, t in all_transitions:
        atom = IDENTITY if lab == ID else EdgeLabel(lab)
        add(s, t, _compose(chat[s], atom))

    def rank(q):
        return len(out[q]) + len(inn[q]) - 2 * (q in out[q]), keys[q]

    ranks = {q: rank(q) for q in a.states}
    active = set(a.states)
    while active:
        q = min(active, key=ranks.get)
        active.remove(q)
        loop = out[q].pop(q, EMPTY)
        mid = IDENTITY if loop is EMPTY else star(loop)
        inn[q].pop(q, None)
        ins, outs = inn.pop(q), out.pop(q)
        for p, ein in ins.items():
            for r, eout in outs.items():
                add(p, r, _compose(ein, _compose(mid, eout)))
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

def remove_identity_transitions(a: ConditionAutomaton) -> ConditionAutomaton:
    """Path-equivalent identity-transition-free automaton, with a state
    (q, C) for each head q and each condition set C that a walk of identity
    transitions from q collects, q's own included: epsilon removal closing
    over labels, not states (Mohri, CIAA 2000).  The heads are the initial
    states and, started when first reached, the label targets of the states
    built, so every state is reachable.  (q, C) carries C, is final when
    such a walk reaches a final state, and steps on a label wherever the
    walk's states do, into every state headed by the target.  A run rests
    at a node for one identity walk, all of whose conditions hold there, so
    only their union matters.  Only heads with an identity move are walked;
    any other q gives the one state (q, its own conditions).  Already
    identity-free automata are returned unchanged."""
    if a.identity_free:
        return a
    gamma = a.gamma

    def step(cfg):
        r, conds = cfg
        return ((t, conds | gamma[t]) for t in a.moves.get((r, ID), ()))

    finals, successors = set(), {}

    def head(q):
        """Build the states headed by q; return the heads they step to."""
        start, targets = [(q, gamma[q])], set()
        for r, conds in _reach(start, step) if (q, ID) in a.moves else start:
            if r in a.finals:
                finals.add((q, conds))
            pairs = [(lab, t) for lab, t in a.successors[r] if lab != ID]
            successors.setdefault((q, conds), set()).update(pairs)
            targets.update(t for _, t in pairs)
        return targets

    _reach(a.initials, head)
    by_head: dict = {}
    for q, conds in successors:
        by_head.setdefault(q, []).append((q, conds))
    return ConditionAutomaton.build(
        states=successors,
        alphabet=a.alphabet,
        initials=[(q, conds) for q, conds in successors if q in a.initials],
        finals=finals,
        transitions=[(s, lab, target) for s, pairs in successors.items()
                     for lab, t in pairs for target in by_head[t]],
        state_conditions=[((q, conds), c) for q, conds in successors for c in conds],
        check=False,
    )


# ---------------------------------------------------------------------------
# intersection (sound on trees)

def intersect_automata(a1: ConditionAutomaton, a2: ConditionAutomaton) -> ConditionAutomaton:
    """The part of the synchronized product reachable from the pairs of
    initial states: a pair (p, q) steps along a label when both p and q do,
    and carries the conditions of both, unless they hold a condition and
    its complement, which hold at no node.  Evaluated on trees this is the
    intersection of the two automata; on graphs with parallel paths it can
    undershoot.  Identity transitions are removed from both operands first."""
    a1 = remove_identity_transitions(a1)
    a2 = remove_identity_transitions(a2)
    transitions = set()

    def consistent(p, q) -> bool:
        return not (a1.gamma[p] and a2.gamma[q]) or not _contradictory(
            a1.gamma[p] | a2.gamma[q])

    def step(pair):
        p, q = pair
        for lab, p2 in a1.successors[p]:
            for q2 in a2.moves.get((q, lab), ()):
                if consistent(p2, q2):
                    transitions.add((pair, lab, (p2, q2)))
                    yield p2, q2

    initials = {(p, q) for p in a1.initials for q in a2.initials if consistent(p, q)}
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

def _contradictory(conds) -> bool:
    """Whether `conds` holds an atomic condition and its complement, which
    hold at no node together."""
    return any(type(c) in _ATOMIC and condition_complement(c) in conds
               for c in conds)


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
    """Subset construction where a target subset p splits on its own states'
    conditions: into a state (Q, L) for each way they can hold at a node,
    with Q the states of p whose conditions hold and L, the state's
    conditions, holding those conditions and the complements of the rest.
    An L holding a condition and its complement holds at no node, so that
    split is not built; one that chooses between them always is.
    On trees every node satisfies exactly one split of p, making the result
    deterministic; a p without conditions gives the one state (p, {}).
    Only the states reachable from the initial set's splits are built; with
    C the conditions attached to some state, there are at most 2^|S| * 3^|C|
    of them, as L may leave a condition out, and more than the instance
    ceiling, or than `limit`, raises ResourceLimitError, as every walk does.

    The result is complete: over a label none of its states move on, a
    subset steps into the sink ({}, {}).  A complement needs the sink;
    trimming drops it, as it reaches no final state."""
    a = renumber_states(remove_identity_transitions(a))
    gamma = a.gamma
    transitions = set()

    @cache
    def splits(p: frozenset) -> list:
        conds = {c for x in p for c in gamma[x]}
        out = [(frozenset(x for x in p if gamma[x] <= w),
                w.union(map(condition_complement, conds - w)))
               for w in _subsets(tuple(conds))]
        return [s for s in out if not _contradictory(s[1])] if conds else out

    def step(state):
        moves: dict = {}
        for q in state[0]:
            for lab, t in a.successors[q]:
                moves.setdefault(lab, set()).add(t)
        moves.update(dict.fromkeys(a.alphabet.difference(moves), ()))
        for lab, p in moves.items():
            for target in splits(frozenset(p)):
                transitions.add((state, lab, target))
                yield target

    initials = splits(a.initials)
    states = _reach(initials, step, limit)
    return ConditionAutomaton.build(
        states=states,
        alphabet=a.alphabet,
        initials=initials,
        finals=[s for s in states if s[0] & a.finals],
        transitions=transitions,
        state_conditions=[(s, c) for s in states for c in s[1]],
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


_TRIMMED = "_trimmed"   # the instance attribute that marks a trimmed automaton


def trim_automaton(a: ConditionAutomaton) -> ConditionAutomaton:
    """Keep the states reachable from an initial state and able to reach a
    final state, with their conditions, numbered 0..n-1 in state_key order.
    When every state is kept, that is `renumber_states(a)`, which is `a`
    itself if its states are numbered already.  The result is marked in its
    instance `__dict__`, so trimming it again returns it without a walk; a
    rebuilt automaton, equal or not, carries no mark."""
    if _TRIMMED in a.__dict__:
        return a
    predecessors: dict = {}
    for s, _, t in a.transitions:
        predecessors.setdefault(t, []).append(s)
    keep = (_reach(a.initials, lambda q: (t for _, t in a.successors[q]))
            & _reach(a.finals, lambda q: predecessors.get(q, ())))
    if len(keep) < len(a.states):
        a = ConditionAutomaton.build(
            states=keep,
            alphabet=a.alphabet,
            initials=a.initials & keep,
            finals=a.finals & keep,
            transitions=[(s, lab, t) for s, lab, t in a.transitions
                         if s in keep and t in keep],
            state_conditions=[(q, c) for q, c in a.state_conditions if q in keep],
            check=False,
        )
    a = renumber_states(a)
    a.__dict__[_TRIMMED] = True
    return a


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
    then states.  A trimmed `a` that is deterministic already (one initial
    state, no identity transition, at most one target per state and label)
    skips the subset construction: its states ({q}, {}), in q's order, and
    the sink, which trimming drops, give back `a` itself.  A subset
    construction that outgrows the states and transitions of `a` plus the
    sink is abandoned, since determinizing can take exponentially many
    states where the quotient keeps few."""
    a = trim_automaton(a)
    quotient = _quotient(a)
    if (a.conditions or not a.states
            or len(a.initials) == 1 and a.identity_free
            and len(a.moves) == len(a.transitions)):
        return quotient
    try:
        d = determinize(a, limit=len(a.states) + len(a.transitions) + 1)
    except ResourceLimitError:
        return quotient
    return min(_quotient(trim_automaton(d)), quotient,
               key=lambda m: (len(m.transitions), len(m.states)))
