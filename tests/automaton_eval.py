"""Reference semantics of condition automata for the tests: the node pairs
an automaton accepts on a graph, and a bounded check that it is
deterministic on trees.  The library itself never runs an automaton on a
graph; the tests use these to check each construction against the
evaluator."""

from functools import reduce
from operator import or_

from navex.automata import AutomatonError, ConditionAutomaton
from navex.evaluate import EvalContext, Relation, _bits
from navex.graphs import ID, Graph, _reach, enumerate_trees


def diagonal_nodes(ctx: EvalContext, e) -> int:
    """Bitmask over node indices i with (i, i) in the relation of `e`: bit i
    of row i."""
    return sum(1 << i for i, row in enumerate(ctx.mask_of(e)) if row >> i & 1)


def successor_rows(ctx: EvalContext, label: str) -> list[int]:
    """Per-node successor sets along `label`, as node bitmasks: the label's
    rows, or no successors for a label the graph does not carry."""
    return ctx.label_rows.get(label, ctx.empty)


def _satisfying_nodes(a: ConditionAutomaton, ctx: EvalContext) -> dict:
    """{state: bitmask of the graph nodes satisfying all of the state's
    conditions}, evaluating each condition once."""
    holds = {c: diagonal_nodes(ctx, c) for c in a.conditions}
    every = (1 << ctx.n) - 1
    out = {}
    for q, cs in a.gamma.items():
        out[q] = every
        for c in cs:
            out[q] &= holds[c]
    return out


def eval_automaton(a: ConditionAutomaton, g: Graph) -> Relation:
    """All node pairs the automaton accepts on the graph, by reachability
    over (state, node) configurations."""
    ctx = EvalContext(g)
    sat = _satisfying_nodes(a, ctx)
    rows = {lab: successor_rows(ctx, lab) for lab in a.alphabet}

    def step(cfg):
        q, i = cfg
        for lab, q2 in a.successors[q]:
            nodes = (1 << i) if lab == ID else rows[lab][i]
            for j in _bits(nodes & sat[q2]):
                yield q2, j

    accepted = []           # row m: the nodes reached from start node m
    for m in range(ctx.n):
        reached = _reach([(q, m) for q in a.initials if sat[q] >> m & 1], step)
        accepted.append(reduce(or_, (1 << i for q, i in reached if q in a.finals), 0))
    return ctx.decode(accepted)


def check_deterministic(a: ConditionAutomaton, max_nodes: int = 6) -> bool:
    """Bounded check that the automaton is deterministic on trees: on every
    tree over its alphabet, every node satisfies exactly one initial state,
    and every reached (state, node) configuration extends in exactly one way
    along each outgoing edge."""
    if not a.identity_free:
        raise AutomatonError("determinism is defined for identity-free automata")
    for tree in enumerate_trees(max_nodes, sorted(a.alphabet)):
        ctx = EvalContext(tree)
        sat = _satisfying_nodes(a, ctx)
        active: dict[int, set] = {}
        for i in range(ctx.n):
            starts = [q for q in a.initials if sat[q] >> i & 1]
            if len(starts) != 1:
                return False
            active.setdefault(i, set()).add(starts[0])
        # nodes are numbered topologically: each node's activity is final before its edges
        for i, lab, j in sorted((ctx.index[s], lab, ctx.index[t]) for s, lab, t in tree.edges):
            for q in active.get(i, ()):
                followers = [q2 for q2 in a.moves.get((q, lab), ()) if sat[q2] >> j & 1]
                if len(followers) != 1:
                    return False
                active.setdefault(j, set()).add(followers[0])
    return True
