"""Rewrites that eliminate operators from navigational expressions.

Three engines live here:

* projection removal for boolean queries — a condition automaton is rewritten
  so that a deepest projection condition is replaced by tracked runs of the
  condition body's automaton, one body state per run, where a run in a
  final state may stop; repeating this yields a projection-free
  automaton that is nonemptiness-equivalent on labeled chains (and, for
  second-projection conditions only, on labeled trees).  A first projection
  is tracked from the node where it holds along the main run's labels; a
  second projection is tracked by the same construction on the reversed
  automata, so its runs walk toward the root, where trees do not branch;
* intersection/difference elimination on trees — a bottom-up translation
  through condition automata using the synchronized product and the downward
  complement;
* the unlabeled collapse — fragments closed under homomorphisms (and the
  pure distance-set fragment) reduce, for boolean queries on unlabeled chains
  and trees, to the empty query or to a fixed-length reachability query.
  The distance fragment is decided by arithmetic on ultimately periodic
  sets of distances; the homomorphic one by searching chain lengths.

The first two end in state elimination, and each automaton is minimized
before it: the projection-free automaton, the tree automaton, and the
automaton of each projection's body, which becomes a condition again.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .automata import ConditionAutomaton
# renumber_states is unused here but stays: the benchmark tracer wraps it by name
from .constructions import (
    _Endpoint, automaton_to_expr, compose_automata, difference_automata,
    expr_to_automaton, intersect_automata, minimize, plus_automaton,
    remove_identity_transitions, renumber_states, trim_automaton,
    union_automata,
)
from .evaluate import (
    EquivVerdict, _bits, boolean_equivalent, evaluate_boolean, path_equivalent,
)
from .expr import (
    Compose, Converse, Coproj1, Coproj2, Difference, EdgeLabel,
    Empty, Expr, Identity, Intersect, Proj1, Proj2, TransClosure, Union,
    EMPTY, IDENTITY, _fold, condition_depth, labels_used, operators_used,
    power, render,
)
from .graphs import (
    ResourceLimitError, _reach, chain_graph, default_ceiling,
)

__all__ = [
    "RewriteError", "NotCollapsibleError", "RewriteReport", "NormalForm",
    "remove_projection_step", "remove_projections_boolean",
    "eliminate_intersect_difference",
    "witness_span", "normalize_unlabeled_boolean",
    "PIPELINES", "run_pipeline",
]


class RewriteError(ValueError):
    """The expression or automaton is outside the scope of this rewrite."""


class NotCollapsibleError(RewriteError):
    """The fragment has no empty-or-power normal form on unlabeled instances."""


# ---------------------------------------------------------------------------
# projection removal on condition automata

def _projection_conditions(a: ConditionAutomaton) -> list[Expr]:
    """The projection conditions of `a`; any other but id and 0 raises."""
    out = []
    for c in a.conditions:
        if isinstance(c, (Proj1, Proj2)):
            out.append(c)
        elif not isinstance(c, (Identity, Empty)):
            raise RewriteError("projection removal needs atomic projection "
                               f"conditions, found condition {render(c)}")
    return out


def _condition_measure(a: ConditionAutomaton) -> tuple[int, int]:
    """(depth, weight) of `a`: the maximum projection-nesting depth over
    the attached conditions, and how many conditions reach it, taking each
    condition's depth once."""
    depths = [condition_depth(c) for c in a.conditions]
    depth = max(depths, default=0)
    return depth, depths.count(depth)


# The tracking-only state, held once the main run has ended while tracked runs
# go on: below its last node for pi1, and for pi2, tracked on the reversed
# automata, above its first node, toward the root, where a tree is a chain.
_BOT = _Endpoint("below")


def _reversed(a: ConditionAutomaton) -> ConditionAutomaton:
    """`a` with every transition turned around and initials and finals
    swapped; each condition stays on its state.  Its runs are the runs of
    `a` read backwards, each state at the same node, and conditions are
    node tests, so each one holds where it held."""
    return ConditionAutomaton.build(
        states=a.states,
        alphabet=a.alphabet,
        initials=a.finals,
        finals=a.initials,
        transitions=[(q, lab, p) for p, lab, q in a.transitions],
        state_conditions=a.state_conditions,
        check=False,
    )


def remove_projection_step(a: ConditionAutomaton) -> ConditionAutomaton:
    """Replace one deepest projection condition by explicit tracking of the
    condition body's runs.

    pi1(body) holds where a body run starts.  A state of the result pairs a
    main-run state with the body states of the runs it tracks, one body
    state per run: a condition state starts a run in an initial body state,
    on each label every tracked run moves along one body transition or, in a
    final state, may stop, and after the main run ends the rest finish in
    `_BOT`.  On a chain all runs from a node follow one path, so none is
    lost.  pi2(body) holds where a body run ends, so it is removed by the
    same construction on the reversed automata, and the result is reversed
    back.  Its tracked runs then walk toward the root, where trees do not
    branch, so nonemptiness is preserved on labeled trees too.

    A run never needs to split into several successors at once, as a
    universal branch would.  The construction that lets it move to any
    hitting set of its successors has the same nonemptiness as this one.
    Each target set built here is such a hitting set in which every target
    has a predecessor, so this result is a sub-automaton of that one.
    Conversely, an accepting run of that one is shadowed by a run of this
    one whose tracked set is, at each node, a subset of its set: each
    shadow run picks one successor inside the other's target set, stops
    where the other may stop it, and starts from the same initial body
    state.  A subset carries fewer conditions and is final no later.  When
    every shadow run stops as the main run goes to `_BOT`, the target
    `(_BOT, {})` is not a state, but then the source state is already
    final, and the shadow accepts there.

    The output is identity-transition free, its condition depth/weight is
    strictly smaller, and it stays acyclic and closure-free when the input
    is.  Only the part reachable from the initial states (the final states,
    for pi2) is constructed.
    """
    if not a.identity_free:
        raise RewriteError("projection removal needs an identity-transition-free automaton")
    candidates = _projection_conditions(a)
    if not candidates:
        raise RewriteError("no projection conditions to remove")
    cond = max(candidates, key=lambda c: (condition_depth(c), render(c)))
    inner = trim_automaton(remove_identity_transitions(
        expr_to_automaton(cond.child, alphabet=a.alphabet)))
    second = isinstance(cond, Proj2)
    if second:
        a, inner = _reversed(a), _reversed(inner)
    i_prime = inner.initials
    f_prime = inner.finals
    gamma_prime = inner.gamma
    gamma = a.gamma
    s_cond = frozenset(q for q in a.states if cond in gamma[q])

    def entered(q, tracked: frozenset):
        """(q, tracked), with one body run started where q needs the condition."""
        if q in s_cond:
            return [(q, tracked | {qp}) for qp in i_prime]
        return [(q, tracked)]

    initials = {st for q in a.initials for st in entered(q, frozenset())}

    def continuations(tracked: frozenset, lab: str) -> set[frozenset]:
        """Target sets for the tracked runs: each run moves along one body
        transition on `lab` or, in a final body state, stops."""
        out = {frozenset()}
        for s in tracked:
            grown = {r | {t} for r in out for t in inner.moves.get((s, lab), ())}
            out = grown | out if s in f_prime else grown
        return out

    transitions = set()

    def step(src):
        p, tracked = src
        ends = p is _BOT or p in a.finals
        for lab in a.alphabet:
            main = () if p is _BOT else a.moves.get((p, lab), ())
            for r2 in continuations(tracked, lab):
                targets = [st for q in main for st in entered(q, r2)]
                if r2 and ends:
                    targets.append((_BOT, r2))
                for tgt in targets:
                    transitions.add((src, lab, tgt))
                    yield tgt

    states = _reach(initials, step)

    # the main run has ended and every tracked run is in a final body state
    finals = {(q, tracked) for q, tracked in states
              if (q is _BOT or q in a.finals) and tracked <= f_prime}

    state_conditions = []
    for st in states:
        q, tracked = st
        attached = set() if q is _BOT else set(gamma[q]) - {cond}
        for r in tracked:
            attached |= gamma_prime[r]
        state_conditions.extend((st, x) for x in attached)

    out = ConditionAutomaton.build(
        states=states,
        alphabet=a.alphabet | inner.alphabet,
        initials=initials,
        finals=finals,
        transitions=transitions,
        state_conditions=state_conditions,
        check=False,
    )
    return _reversed(out) if second else out


# operators each graph class lets projection removal keep nonemptiness for
_PROJECTION_OPERATORS = {
    "labeled-chain": frozenset({"tc", "pi1", "pi2"}),
    "labeled-tree": frozenset({"tc", "pi2"}),
}


def remove_projections_boolean(e: Expr, graph_class: str,
                               steps: list[str] | None = None) -> Expr:
    """A projection-free expression with the same nonemptiness as `e` on
    every instance of `graph_class`.  `e` may use labels, id, 0, composition,
    union, transitive closure and projections: both projections on labeled
    chains, only second projections on labeled trees.  Second-projection
    condition runs walk toward ancestors, and trees do not branch in that
    direction; first projections look into subtrees, which may branch."""
    allowed = _PROJECTION_OPERATORS.get(graph_class)
    if allowed is None:
        raise RewriteError(f"no projection removal on {graph_class!r}; choose "
                           f"from {sorted(_PROJECTION_OPERATORS)}")
    used = operators_used(e)
    if "pi1" in used and "pi1" not in allowed:
        raise RewriteError(
            f"first projections cannot be removed on {graph_class}; "
            "pi1(a) . pi1(b) separates branching from non-branching instances")
    if not used.flags <= allowed:
        raise RewriteError(f"projection removal on {graph_class} handles "
                           f"{', '.join(sorted(allowed))} only, got {used}")
    if steps is None:
        steps = []
    a = trim_automaton(remove_identity_transitions(expr_to_automaton(e)))
    steps.append(f"translated to an automaton with {len(a.states)} states and "
                 f"{len(a.conditions)} conditions")
    measure = _condition_measure(a)
    while measure[0] > 0:
        a = trim_automaton(remove_projection_step(a))
        now = _condition_measure(a)
        assert now < measure, "projection removal must shrink (depth, weight)"
        measure = now
        steps.append(f"condition removed; depth {now[0]}, weight {now[1]}, "
                     f"{len(a.states)} states")
    return automaton_to_expr(minimize(a))


# ---------------------------------------------------------------------------
# intersection and difference elimination on trees

def eliminate_intersect_difference(e: Expr, steps: list[str] | None = None) -> Expr:
    """An intersection- and difference-free expression path-equivalent to `e`
    on every tree.  Works bottom-up through condition automata: products for
    intersections, determinized complements for differences.  All automata
    range over every label of the whole expression, so complements cover the
    full alphabet."""
    used = operators_used(e)
    if not used.flags <= {"tc", "pi1", "pi2", "copi1", "copi2", "cap", "minus"}:
        raise RewriteError(
            f"tree set-operation removal got unsupported operators {used}")
    if steps is None:
        steps = []
    sigma = labels_used(e)

    def translate(node, *kids) -> ConditionAutomaton:
        t = type(node)
        if t in (Empty, Identity, EdgeLabel):
            return expr_to_automaton(node, alphabet=sigma)
        if t is Compose:
            return compose_automata(*kids)
        if t is Union:
            return union_automata(*kids)
        if t is TransClosure:
            return plus_automaton(*kids)
        if t in (Proj1, Proj2, Coproj1, Coproj2):
            child = automaton_to_expr(minimize(kids[0]))
            if child is EMPTY or child is IDENTITY:
                # pi(0) and copi(id) hold nowhere, pi(id) and copi(0) everywhere
                holds = (child is IDENTITY) == (t in (Proj1, Proj2))
                return expr_to_automaton(IDENTITY if holds else EMPTY, alphabet=sigma)
            return expr_to_automaton(t(child), alphabet=sigma)
        if t is Intersect:
            prod = intersect_automata(*kids)
            steps.append(f"intersection product: {len(prod.states)} states")
            return trim_automaton(prod)
        if t is Difference:
            diff = difference_automata(*kids)
            steps.append(f"difference via complement: {len(diff.states)} states")
            return trim_automaton(diff)
        raise RewriteError(f"no tree rewrite for {render(node)}")

    out = automaton_to_expr(minimize(_fold(e, translate)))
    assert not operators_used(out).flags & {"cap", "minus"}
    return out


# ---------------------------------------------------------------------------
# the unlabeled collapse

_HOMOMORPHISM_SAFE = frozenset({"conv", "tc", "pi1", "pi2", "cap"})
_DISTANCE_SAFE = frozenset({"tc", "cap", "minus"})


def witness_span(e: Expr) -> int:
    """An upper bound on the number of nodes a chain needs before `e` can
    first become nonempty.  Atoms span their endpoints; compositions add;
    intersections and differences multiply, covering the interleaving of the
    two operands' eventual periods."""
    def span(node, *kids):
        t = type(node)
        if t in (Empty, Identity):
            return 1
        if t is EdgeLabel:
            return 2
        if t in (TransClosure, Converse, Proj1, Proj2):
            return kids[0]
        if t is Compose:
            return sum(kids)
        if t is Union:
            return max(kids)
        if t in (Intersect, Difference):
            a, b = kids
            return a * b + a + b
        raise RewriteError(f"no chain-span bound for {render(node)}")
    return _fold(e, span)


# In the distance fragment a pair belongs to `e` iff its distance lies in a
# set D(e) of naturals, which is ultimately periodic, as every unary regular
# language is (Chrobak, TCS 1986).  A set is kept as (t, p, bits): bits
# covers [0, t + p), and n >= t is in the set iff bit t + (n - t) % p is.

def _upto(s: tuple, n: int) -> int:
    """The members of the distance set `s` below n, as bits."""
    t, p, bits = s
    if n <= t + p:
        return bits & ((1 << n) - 1)
    repeats = -(-(n - t) // p)
    tail = (bits >> t) * ((1 << p * repeats) - 1) // ((1 << p) - 1)
    return ((bits & ((1 << t) - 1)) | tail << t) & ((1 << n) - 1)


def _normalized(t: int, p: int, bits: int) -> tuple:
    """(t, p, bits) with its least period, then its least threshold."""
    if p > 1:
        block, mask = bits >> t, (1 << p) - 1
        small = [d for d in range(1, math.isqrt(p) + 1) if p % d == 0]
        for d in small + [p // d for d in reversed(small)]:
            if (block >> d | block << (p - d)) & mask == block:
                p = d
                break
    t = ((bits ^ bits >> p) & ((1 << t) - 1)).bit_length()
    return t, p, bits & ((1 << (t + p)) - 1)


_DISTANCE_ATOM = {Empty: (0, 1, 0), Identity: (1, 1, 1), EdgeLabel: (2, 1, 2)}
_DISTANCE_BITWISE = {
    Union: lambda x, y: x | y,
    Intersect: lambda x, y: x & y,
    Difference: lambda x, y: x & ~y,
}


def _distance_set(e: Expr) -> tuple:
    """D(e) for `e` in the distance fragment, bottom-up.  `|`, `&` and `\\`
    act bitwise at the larger threshold and the lcm of the periods.  `.` is
    the sumset, periodic with the lcm p from t1 + t2 + p on: a member of
    the second set beyond t2 + p can trade p with a member of the first set
    beyond t1.  `+` closes the positive members, all multiples of their gcd
    g, under sums by doubling over a horizon that doubles, until they hold
    a1 / g consecutive multiples of g, a1 the least of them; adding a1 then
    gives every later multiple.  Raises ResourceLimitError when a set's
    t + p, or the closure's horizon, would exceed the instance ceiling."""
    ceiling = default_ceiling()

    def room(n: int) -> int:
        if n > ceiling:
            raise ResourceLimitError(
                "normalize_unlabeled_boolean: distance arithmetic needs "
                f"{n} distances, more than {ceiling} (NAVEX_MAX_INSTANCES)")
        return n

    def sumset(s1, s2):
        p = math.lcm(s1[1], s2[1])
        t = s1[0] + s2[0] + p
        n = room(t + p)
        x, y = _upto(s1, n), _upto(s2, n)
        if x.bit_count() > y.bit_count():
            x, y = y, x
        out = 0
        for d in _bits(x):
            out |= y << d
        return _normalized(t, p, out & ((1 << n) - 1))

    def plus(s):
        n = room(s[0] + 2 * s[1])
        closed = _upto(s, n) & ~1       # the positive members below n
        if not closed:
            return s
        g = math.gcd(*_bits(closed))
        least = (closed & -closed).bit_length() - 1
        while True:
            grown = None
            while grown != closed:
                grown = closed
                for d in _bits(grown):
                    if d + least >= n:
                        break
                    closed |= grown << d
                closed &= (1 << n) - 1
            run, length = closed, 1
            while length < least // g:
                step = min(length, least // g - length)
                run &= run >> step * g
                length += step
            if run:
                break
            room(n + 1)         # the run, if any, ends beyond the horizon
            n = min(2 * n, ceiling)
            closed |= _upto(s, n) & ~1
        m = (run & -run).bit_length() - 1
        return _normalized(m, g, (closed & ((1 << m) - 1)) | 1 << m | s[2] & 1)

    def value(node, *kids):
        t = type(node)
        if t in _DISTANCE_ATOM:
            return _DISTANCE_ATOM[t]
        if t is TransClosure:
            return plus(*kids)
        if t is Compose:
            return sumset(*kids)
        (t1, p1, _), (t2, p2, _) = kids
        p = math.lcm(p1, p2)
        n = room(max(t1, t2) + p)
        x, y = (_upto(k, n) for k in kids)
        return _normalized(n - p, p, _DISTANCE_BITWISE[t](x, y))
    return _fold(e, value)


@dataclass(frozen=True)
class NormalForm:
    kind: str            # "empty" or "power"
    k: int | None        # the power, when kind == "power"
    expr: Expr           # 0, or the k-step reachability expression
    searched: int        # the result is decided on chains of 1..searched nodes:
                         # the first nonempty length, or the witness-span bound;
                         # 0 when distance-set arithmetic decided it, on no chain
    step: str            # how it was decided, as the pipeline's step reads

    def __str__(self):
        if self.kind == "empty":
            return "empty"
        return f"power {self.k} ({render(self.expr)})"


def normalize_unlabeled_boolean(e: Expr) -> NormalForm:
    """The empty-or-power normal form of `e` as a boolean query on unlabeled
    chains or trees: `e` is either never nonempty, or nonempty exactly on
    instances of depth at least k, matching a k-step reachability query.

    Applies to fragments closed under homomorphisms and to the pure
    distance-set fragment with difference.  Mixing projection with
    difference can express coprojection, which breaks the collapse, and is
    rejected.

    In the distance fragment, whether a pair belongs to `e` depends only on
    the distance between its nodes, so `e` denotes a set D(e) of distances:
    the result is empty when D(e) is, and power min D(e) otherwise.  D(e)
    is computed by arithmetic on ultimately periodic sets, evaluating no
    chain, and the result has searched = 0; its step reads "decided by
    distance-set arithmetic (threshold t, period p)" with D(e)'s t and p.  That
    arithmetic raises ResourceLimitError when a set's threshold plus period
    exceeds the instance ceiling.

    Outside that fragment, k + 1 is the fewest nodes of a chain on which
    `e` is nonempty, and it is found by exponential search up to the
    witness span: chains of 1, 2, 4, ... nodes until one is nonempty, then
    bisection between the last empty length and that one; the step reads
    "searched chains of 1..N nodes".  This is exact because these queries
    are positive and the n-node chain maps homomorphically into the
    (n+1)-node chain, so nonempty on n nodes implies nonempty on n + 1.
    Raises ResourceLimitError before evaluating a chain whose n(n+1)/2 node
    pairs exceed the instance ceiling."""
    used = operators_used(e)
    if not (used.flags <= _HOMOMORPHISM_SAFE or used.flags <= _DISTANCE_SAFE):
        raise NotCollapsibleError(
            f"operators [{used}] have no empty-or-power collapse on unlabeled chains and trees")
    labels = labels_used(e)
    if len(labels) > 1:
        raise NotCollapsibleError(
            "expressions over several labels have no unlabeled reading")
    label = next(iter(labels)) if labels else "a"
    if used.flags <= _DISTANCE_SAFE:
        t, p, distances = _distance_set(e)
        step = f"decided by distance-set arithmetic (threshold {t}, period {p})"
        if not distances:
            return NormalForm("empty", None, EMPTY, 0, step)
        k = (distances & -distances).bit_length() - 1
        return NormalForm("power", k, power(EdgeLabel(label), k), 0, step)

    bound = witness_span(e) + 1
    ceiling = default_ceiling()

    def nonempty(n: int) -> bool:
        if n * (n + 1) // 2 > ceiling:
            raise ResourceLimitError(
                f"normalize_unlabeled_boolean: a chain of {n} nodes has more "
                f"than {ceiling} node pairs (NAVEX_MAX_INSTANCES)")
        return evaluate_boolean(e, chain_graph(n, label))

    empty, n = 0, 1  # a chain of `empty` nodes is empty; `n` is the length tried
    while not nonempty(n):
        if n == bound:
            return NormalForm("empty", None, EMPTY, bound,
                              f"searched chains of 1..{bound} nodes")
        empty, n = n, min(2 * n, bound)
    while n - empty > 1:
        mid = (empty + n) // 2
        if nonempty(mid):
            n = mid
        else:
            empty = mid
    return NormalForm("power", n - 1, power(EdgeLabel(label), n - 1), n,
                      f"searched chains of 1..{n} nodes")


# ---------------------------------------------------------------------------
# pipeline driver

@dataclass(frozen=True)
class RewriteReport:
    pipeline: str
    original: Expr
    result: Expr
    steps: tuple[str, ...]
    verdict: EquivVerdict | None

    def __bool__(self):
        return self.verdict is None or bool(self.verdict)


def _normal_form(e: Expr, steps: list[str]) -> Expr:
    form = normalize_unlabeled_boolean(e)
    steps.extend((form.step, f"normal form: {form}"))
    return form.expr


PIPELINES = {
    # name: (rewrite(e, steps), certification semantics, graph class,
    #        default max nodes)
    "chain-projections": (
        lambda e, steps: remove_projections_boolean(e, "labeled-chain", steps),
        "boolean", "labeled-chain", 8),
    "tree-pi2": (
        lambda e, steps: remove_projections_boolean(e, "labeled-tree", steps),
        "boolean", "labeled-tree", 5),
    "tree-set-operations": (eliminate_intersect_difference, "path",
                            "labeled-tree", 5),
    "unlabeled-normal-form": (_normal_form, "boolean", "unlabeled-chain", 8),
}


def run_pipeline(name: str, e: Expr, *, certify: bool = True,
                 max_nodes: int | None = None) -> RewriteReport:
    """Apply a named rewrite and, unless disabled, certify the result against
    the original by exhaustive evaluation over bounded instances."""
    if name not in PIPELINES:
        raise RewriteError(
            f"unknown pipeline {name!r}; choose from {sorted(PIPELINES)}")
    rewrite, semantics, graph_class, default_nodes = PIPELINES[name]
    steps: list[str] = []
    out = rewrite(e, steps)
    verdict = None
    if certify:
        nodes = max_nodes if max_nodes is not None else default_nodes
        check = boolean_equivalent if semantics == "boolean" else path_equivalent
        verdict = check(e, out, graph_class, max_nodes=nodes)
    return RewriteReport(name, e, out, tuple(steps), verdict)
