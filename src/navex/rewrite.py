"""Rewrites that eliminate operators from navigational expressions.

Three engines live here:

* projection removal for boolean queries — a condition automaton is rewritten
  so that a deepest projection condition is replaced by tracked runs of the
  condition body's automaton; repeating this yields a projection-free
  automaton that is nonemptiness-equivalent on labeled chains (and, for
  second-projection conditions only, on labeled trees);
* intersection/difference elimination on trees — a bottom-up translation
  through condition automata using the synchronized product and the downward
  complement;
* the unlabeled collapse — fragments closed under homomorphisms (and the
  pure distance-set fragment) reduce, for boolean queries on unlabeled chains
  and trees, to the empty query or to a fixed-length reachability query.

The first two end in state elimination, and each automaton is minimized
before it: the projection-free automaton, the tree automaton, and the
automaton of each projection's body, which becomes a condition again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import ConditionAutomaton
# renumber_states is unused here but stays: the benchmark tracer wraps it by name
from .constructions import (
    _Endpoint, automaton_to_expr, compose_automata, difference_automata,
    expr_to_automaton, intersect_automata, minimize, plus_automaton,
    remove_identity_transitions, renumber_states, trim_automaton,
    union_automata,
)
from .evaluate import (
    EquivVerdict, boolean_equivalent, evaluate_boolean, path_equivalent,
)
from .expr import (
    Compose, Converse, Coproj1, Coproj2, Difference, EdgeLabel,
    Empty, Expr, Identity, Intersect, Proj1, Proj2, TransClosure, Union,
    EMPTY, _fold, condition_depth, labels_used, operators_used,
    power, render,
)
from .graphs import _reach, _subsets, chain_graph

__all__ = [
    "RewriteError", "NotCollapsibleError", "RewriteReport", "NormalForm",
    "automaton_condition_depth", "automaton_condition_weight",
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
    out = []
    for c in a.conditions:
        if isinstance(c, (Coproj1, Coproj2)):
            raise RewriteError(
                "projection removal needs a coprojection-free automaton, "
                f"found condition {render(c)}")
        if isinstance(c, (Proj1, Proj2)):
            out.append(c)
    return out


def automaton_condition_depth(a: ConditionAutomaton) -> int:
    """Maximum projection-nesting depth over the attached conditions."""
    return max((condition_depth(c) for c in a.conditions), default=0)


def automaton_condition_weight(a: ConditionAutomaton) -> int:
    """Number of attached conditions at the maximum depth."""
    d = automaton_condition_depth(a)
    return sum(1 for c in a.conditions if condition_depth(c) == d)


_BOT = _Endpoint("below")  # tracking-only state used beyond the main run's extent


def remove_projection_step(a: ConditionAutomaton) -> ConditionAutomaton:
    """Replace one deepest projection condition by explicit tracking of the
    condition body's runs.  Nonemptiness is preserved on labeled chains; for
    a second-projection condition it is preserved on labeled trees as well,
    since the tracked runs then extend only toward ancestors, where trees do
    not branch.

    The output is identity-transition free, its condition depth/weight is
    strictly smaller, and it stays acyclic and closure-free when the input
    is.  Only the part reachable from the initial states is constructed.
    """
    if not a.identity_free:
        raise RewriteError("projection removal needs an identity-transition-free automaton")
    candidates = _projection_conditions(a)
    if not candidates:
        raise RewriteError("no projection conditions to remove")
    cond = max(candidates, key=lambda c: (condition_depth(c), render(c)))
    side = 1 if isinstance(cond, Proj1) else 2
    body = cond.child

    inner = trim_automaton(remove_identity_transitions(
        expr_to_automaton(body, alphabet=a.alphabet | labels_used(body))))
    i_prime = inner.initials
    f_prime = inner.finals
    gamma_prime = inner.gamma
    gamma = a.gamma
    s_cond = frozenset(q for q in a.states if cond in gamma[q])
    anchor = i_prime if side == 1 else f_prime

    def member(q, tracked: frozenset) -> bool:
        if q is _BOT:
            return bool(tracked)
        if q in s_cond:
            return bool(tracked & anchor)
        return True

    initials = set()
    for q in a.initials:
        if q not in s_cond:
            initials.add((q, frozenset()))
    if side == 1:
        for q in a.initials & s_cond:
            for qp in i_prime:
                initials.add((q, frozenset({qp})))
    else:
        spawnable = [r for r in _subsets(sorted(i_prime)) if r]
        for q in a.initials:
            for r in spawnable:
                if q in s_cond:
                    if r & f_prime:
                        initials.add((q, r))
                else:
                    initials.add((q, r))
        for r in spawnable:
            initials.add((_BOT, r))
    initials = {s for s in initials if member(*s)}

    def continuations(tracked: frozenset, lab: str, may_retire: frozenset):
        """Target sets for the tracked runs: states in `may_retire` may stop,
        everything else advances along an edge of the body automaton; each
        advanced-to state needs a predecessor among the advancing ones."""
        forced = frozenset(s for s in tracked if (s, lab) not in inner.moves)
        if not forced <= may_retire:
            return
        seen = set()
        for optional in _subsets(sorted(may_retire - forced)):
            reqs = [inner.moves[s, lab] for s in tracked - forced - optional]
            universe = sorted(frozenset().union(*reqs))
            for q_set in _subsets(universe):
                if q_set not in seen and all(q_set & r for r in reqs):
                    seen.add(q_set)
                    yield q_set

    i_singles = sorted(i_prime)
    i_subsets = _subsets(i_singles)

    def moves(p, tracked: frozenset):
        """The (label, target) steps out of (p, tracked), members or not."""
        for lab in a.alphabet:
            main = () if p is _BOT else a.moves.get((p, lab), ())
            if side == 1:
                plain = list(continuations(tracked, lab, tracked & f_prime))
                for q in main:
                    for r2 in plain:
                        yield lab, (q, r2)
                        if q in s_cond:
                            for qp in i_singles:
                                yield lab, (q, r2 | {qp})
                if p is _BOT or p in a.finals:
                    for r2 in plain:
                        yield lab, (_BOT, r2)
            else:
                q_sets = list(continuations(tracked, lab, frozenset()))
                if p is _BOT:
                    main = [*a.initials, _BOT]
                elif p in s_cond:
                    for pp in tracked & f_prime:
                        q_sets.extend(continuations(tracked - {pp}, lab, frozenset()))
                for q_set in q_sets:
                    for spawn in i_subsets:
                        for q in main:
                            yield lab, (q, q_set | spawn)

    transitions = set()

    def step(src):
        for lab, tgt in moves(*src):
            if member(*tgt):
                transitions.add((src, lab, tgt))
                yield tgt

    states = _reach(initials, step)

    finals = set()
    for st in states:
        q, tracked = st
        if side == 1:
            if q is _BOT:
                if tracked and tracked <= f_prime:
                    finals.add(st)
            elif q in a.finals:
                if not tracked and q not in s_cond:
                    finals.add(st)
                elif tracked and tracked <= f_prime:
                    finals.add(st)
        else:
            if q is _BOT or q not in a.finals:
                continue
            if q in s_cond:
                if len(tracked) == 1 and tracked <= f_prime:
                    finals.add(st)
            elif not tracked:
                finals.add(st)

    state_conditions = []
    for st in states:
        q, tracked = st
        attached = set() if q is _BOT else set(gamma[q]) - {cond}
        for r in tracked:
            attached |= gamma_prime[r]
        state_conditions.extend((st, x) for x in attached)

    return ConditionAutomaton.build(
        states=states,
        alphabet=a.alphabet | inner.alphabet,
        initials=initials,
        finals=finals,
        transitions=transitions,
        state_conditions=state_conditions,
        check=False,
    )


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
    a = trim_automaton(remove_identity_transitions(
        expr_to_automaton(e, alphabet=labels_used(e))))
    steps.append(f"translated to an automaton with {len(a.states)} states and "
                 f"{len(a.conditions)} conditions")
    measure = (automaton_condition_depth(a), automaton_condition_weight(a))
    while automaton_condition_depth(a) > 0:
        a = trim_automaton(remove_projection_step(a))
        now = (automaton_condition_depth(a), automaton_condition_weight(a))
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


@dataclass(frozen=True)
class NormalForm:
    kind: str            # "empty" or "power"
    k: int | None        # the power, when kind == "power"
    expr: Expr           # 0, or the k-step reachability expression
    searched: int        # chains of 1..searched nodes were evaluated
    graph_class: str

    def __str__(self):
        if self.kind == "empty":
            return "empty"
        return f"power {self.k} ({render(self.expr)})"


def normalize_unlabeled_boolean(e: Expr, graph_class: str = "unlabeled-chain") -> NormalForm:
    """The empty-or-power normal form of `e` as a boolean query on unlabeled
    chains or trees: `e` is either never nonempty, or nonempty exactly on
    instances of depth at least k, matching a k-step reachability query.

    Applies to fragments closed under homomorphisms and to the pure
    distance-set fragment with difference.  Mixing projection with
    difference can express coprojection, which breaks the collapse, and is
    rejected."""
    if graph_class not in ("unlabeled-chain", "unlabeled-tree"):
        raise RewriteError(f"no unlabeled normal form on {graph_class!r}")
    used = operators_used(e)
    if not (used.flags <= _HOMOMORPHISM_SAFE or used.flags <= _DISTANCE_SAFE):
        raise NotCollapsibleError(
            f"operators [{used}] have no empty-or-power collapse on {graph_class}")
    labels = labels_used(e)
    if len(labels) > 1:
        raise NotCollapsibleError(
            "expressions over several labels have no unlabeled reading")
    label = next(iter(labels)) if labels else "a"
    bound = witness_span(e) + 1
    for n in range(1, bound + 1):
        if evaluate_boolean(e, chain_graph(n, label)):
            k = n - 1
            return NormalForm("power", k, power(EdgeLabel(label), k), n, graph_class)
    return NormalForm("empty", None, EMPTY, bound, graph_class)


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
    steps += [f"searched chains of 1..{form.searched} nodes",
              f"normal form: {form}"]
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
