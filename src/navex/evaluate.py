"""Semantics of navigational expressions over edge-labeled graphs.

An expression denotes a binary relation on the nodes of a graph.  The
evaluator keeps a relation on n nodes as a list of n ints, its rows: row i
is node i's successor set, with bit j set when node i relates to node j.
Nodes are numbered in topological order, so a downward relation on a tree
or chain only relates nodes to later ones, and its closure is one pass from
the last row to the first.  Composition, closure and converse visit only
the nonempty rows of their operand, picked out in C by `compress` (a leaf
of a tree has an empty row), and composition and closure take a row with
one successor j in one step, from row j, without a loop over its bits.

Expressions are first compiled into a plan: one instruction per distinct
subterm, children before parents.  Expressions are hash-consed, so a walk
that visits each node object once meets each distinct subterm once and the
plan needs no merging of its own.  A plan is built once and run on any
number of graphs.  Neither compiling nor running hashes, compares or
recurses over expressions, so deep expressions evaluate as well as shallow
ones.

Compiling settles two facts the kernels would otherwise check per call.
A composition whose right operand is a test, a subterm inside the identity
on every graph (Kozen 1997), runs as one mask over the columns of its left
operand.  Only converse or a cycle puts a pair below the diagonal, so a
closure without converse, on a graph without a cycle, runs the one-pass
kernel, and every other closure squares to a fixpoint.

One interpreter, `_run`, runs every plan on a relation algebra: an
`EvalContext` for one graph, or a `_Lanes` chunk for the bounded oracles.
A relation is a list of ints in both, so union, intersection and difference
work entry by entry and the interpreter does them itself; each algebra
supplies the labels, identity, empty relation, composition, closure,
converse and projections.

The bounded oracles compile each pair of expressions once and run that plan
on chunks of up to `_LANES` consecutive instances of the stream, of any node
counts, not on one `EvalContext` per instance: a relation is n * n ints
whose bit b holds instance b's pair.  The lowest lane where the results
differ is the first instance that separates them; the witness is built
from that instance's level sequence alone, and equals the graph
`instances()` lists at that index.  Label lanes depend on label positions
only, so expressions over different names share them; a bounded cache
keeps them by (chain or tree, size bound, label count, chunk).

`evaluate` and `evaluate_boolean` build a graph's `EvalContext` on their
first call on that graph object and keep it while the object lives, so
several expressions on one graph number its nodes and fill its label rows
once.  Contexts are matched by identity: an equal graph built later builds
its own.  Nothing a plan runs changes a context's rows in place, so the
shared identity, empty and label rows are safe to hand out.

`evaluate` returns a `Relation`, not a frozenset: a set of node-name pairs
that holds only the rows and the node order.  Its length and its equality
with another relation on the same node order need no decoding, and its
pairs are built only when they are read.  It equals the frozenset of its
pairs, but `isinstance(r, frozenset)` is false.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Set
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from heapq import heappop, heappush
from itertools import compress, islice
from operator import and_, or_, xor

from .expr import (
    FLAGS, Compose, Converse, Coproj1, Coproj2, Difference, EdgeLabel,
    Empty, Expr, Identity, Intersect, Proj1, Proj2, TransClosure, Union,
    _distinct_nodes, labels_used,
)
# instances, like labels_used above, is unused here but stays: the
# benchmark tracer wraps both by name
from .graphs import (
    Graph, ResourceLimitError, _instance_count, _level_sequences, _tree_graph,
    default_ceiling, instances,
)

__all__ = [
    "EvalContext", "Relation", "UnknownLabelError", "evaluate", "evaluate_boolean",
    "EquivVerdict", "path_equivalent", "boolean_equivalent",
]


class UnknownLabelError(KeyError):
    """The expression mentions an edge label the graph does not carry.  It
    is a `KeyError` whose text is its message, not that message's repr."""

    __str__ = Exception.__str__


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# plans
#
# An instruction is (opcode, x, y): x and y are the slots of the operands,
# the label name for _LABEL, and for _PROJECT x is the operand's slot and y
# says which side is projected and whether the result is complemented.  For
# _CLOSURE, y is set when the operand uses converse; _run reads it there only.

(_EMPTY, _IDENTITY, _LABEL, _CONVERSE, _CLOSURE, _PROJECT,
 _COMPOSE, _UNION, _INTERSECT, _DIFFERENCE, _THEN_TEST) = range(11)

_ATOM_OP = {Empty: _EMPTY, Identity: _IDENTITY}
_UNARY_OP = {Converse: _CONVERSE, TransClosure: _CLOSURE}
# (second, complement) for each (co)projection
_PROJECTION = {Proj1: (False, False), Proj2: (True, False),
               Coproj1: (False, True), Coproj2: (True, True)}
_BINARY_OP = {Compose: _COMPOSE, Union: _UNION, Intersect: _INTERSECT,
              Difference: _DIFFERENCE}
_USES_CONVERSE = 1 << FLAGS.index("conv")


def _compile(roots) -> tuple[list[tuple], list[int]]:
    """The plan of `roots`: its instructions and the slot of each root.  A
    test is `id`, `0`, a (co)projection, or an operator that keeps a test
    inside the identity; composing with one on the right is _THEN_TEST."""
    code: list[tuple] = []
    slot: dict[int, int] = {}
    tests: list[bool] = []
    for node in _distinct_nodes(*roots):
        t = type(node)
        test = t in _ATOM_OP or t in _PROJECTION
        if t is EdgeLabel:
            code.append((_LABEL, node.name, None))
        elif t in _BINARY_OP:
            x, y = slot[id(node.left)], slot[id(node.right)]
            code.append((_THEN_TEST if t is Compose and tests[y] else _BINARY_OP[t], x, y))
            # t \ r is inside t, and t & r inside either side
            test = (tests[x] and tests[y] if t is Compose or t is Union
                    else tests[x] or t is Intersect and tests[y])
        elif t in _PROJECTION:
            code.append((_PROJECT, slot[id(node.child)], _PROJECTION[t]))
        elif t in _UNARY_OP:
            x = slot[id(node.child)]
            code.append((_UNARY_OP[t], x, node.child._flags & _USES_CONVERSE))
            test = tests[x]     # the converse and the closure of a test are that test
        elif t in _ATOM_OP:
            code.append((_ATOM_OP[t], None, None))
        else:  # pragma: no cover - exhaustive over the syntax
            raise TypeError(f"cannot evaluate {t.__name__}")
        slot[id(node)] = len(code) - 1
        tests.append(test)
    return code, [slot[id(r)] for r in roots]


def _run(code: list[tuple], alg) -> list:
    """The relation of every slot of a plan in the relation algebra `alg`,
    an `EvalContext` or a `_Lanes` chunk.  A relation is a list of ints in
    both, and union, intersection and difference work entry by entry."""
    rels: list = []
    push = rels.append
    for op, x, y in code:   # most frequent opcodes first
        if op == _COMPOSE:
            push(alg.compose_masks(rels[x], rels[y]))
        elif op == _UNION:
            push(list(map(or_, rels[x], rels[y])))
        elif op == _PROJECT:
            push(alg._project(rels[x], *y))
        elif op == _LABEL:
            push(alg.label(x))
        elif op == _CLOSURE:
            push(_squared_closure(alg, rels[x]) if y or alg.cyclic else alg.closure_mask(rels[x]))
        elif op == _IDENTITY:
            push(alg.identity)
        elif op == _THEN_TEST:
            push(alg.then_test(rels[x], rels[y]))
        elif op == _DIFFERENCE:
            push([p & ~q for p, q in zip(rels[x], rels[y])])
        elif op == _INTERSECT:
            push(list(map(and_, rels[x], rels[y])))
        elif op == _EMPTY:
            push(alg.empty)
        else:  # _CONVERSE
            push(alg.transpose_mask(rels[x]))
    return rels


def _squared_closure(alg, a: list) -> list:
    """The transitive closure of `a`, squaring it until a fixpoint."""
    cur = list(a)
    while True:
        nxt = list(map(or_, cur, alg.compose_masks(cur, cur)))
        if nxt == cur:
            return cur
        cur = nxt


class EvalContext:
    """Per-graph evaluation state: node indexing, label relations, and the
    relation algebra on rows that plans run on.

    Nodes are indexed in topological order (every edge's source before its
    target, ties by name), or in name order if the graph has a cycle other
    than a self-loop.  A relation is a list of n ints: row i is node i's
    successor set, with bit j set when node i relates to node j.  `cyclic`
    says whether some edge points back, which only a cycle makes."""

    def __init__(self, graph: Graph):
        self.node_order, self.index = _topological(graph)
        self.n = n = len(self.node_order)
        index = self.index
        self.identity = [1 << i for i in range(n)]
        self.empty = [0] * n
        self.label_rows = {lab: [0] * n for lab in graph.labels}
        for s, lab, t in graph.edges:
            self.label_rows[lab][index[s]] |= 1 << index[t]
        self.cyclic = any(index[s] > index[t] for s, _, t in graph.edges)

    # --- relation algebra on rows --------------------------------------
    def label(self, name: str) -> list[int]:
        try:
            return self.label_rows[name]
        except KeyError:
            raise UnknownLabelError(
                f"label {name!r} is not among the graph's labels "
                f"{sorted(self.label_rows)}") from None

    def compose_masks(self, a: list[int], b: list[int]) -> list[int]:
        """Row i of the result ORs the rows of `b` at row i's successors in
        `a`: that one row of `b` when there is one successor.  Plans send a
        `b` that is a test to `then_test` instead."""
        if not any(a) or not any(b):
            return self.empty
        out = [0] * self.n
        for i in compress(range(self.n), a):
            row = a[i]
            if row & (row - 1):
                acc = 0
                while row:
                    low = row & -row
                    acc |= b[low.bit_length() - 1]
                    row ^= low
                out[i] = acc
            else:
                out[i] = b[row.bit_length() - 1]
        return out

    def then_test(self, a: list[int], t: list[int]) -> list[int]:
        """`a` composed with the test `t`, a relation inside the identity:
        a's rows keep the columns of t's nodes."""
        return list(map(reduce(or_, t, 0).__and__, a))

    def transpose_mask(self, a: list[int]) -> list[int]:
        out = [0] * self.n
        for bit, row in compress(zip(self.identity, a), a):
            while row:
                low = row & -row
                out[low.bit_length() - 1] |= bit
                row ^= low
        return out

    def closure_mask(self, a: list[int]) -> list[int]:
        """The transitive closure of `a`, which relates nodes only to
        themselves or to later nodes, as a downward relation on a tree or
        chain does: one pass over the nonempty rows from the last to the
        first ORs into each row the finished rows of its successors, and a
        row with one successor j becomes `row | rows[j]`.  Plans send every
        other relation to `_squared_closure`."""
        rows = list(a)
        for i in compress(range(self.n - 1, -1, -1), reversed(a)):
            row = rows[i]
            if row & (row - 1):
                acc = row
                while row:
                    low = row & -row
                    acc |= rows[low.bit_length() - 1]
                    row ^= low
                rows[i] = acc
            else:
                rows[i] = row | rows[row.bit_length() - 1]
        return rows

    def _project(self, a: list[int], second: bool, complement: bool) -> list[int]:
        """The identity pairs on the nodes with an outgoing (or, for
        `second`, incoming) pair in `a`, or on the other nodes when
        `complement` is set."""
        if second:
            nodes = reduce(or_, a, 0)
        else:
            nodes = sum(compress(self.identity, a))
        if complement:
            nodes ^= (1 << self.n) - 1
        return list(map(nodes.__and__, self.identity))

    def mask_of(self, e: Expr) -> list[int]:
        code, (root,) = _compile((e,))
        return _run(code, self)[root]

    def decode(self, rows: list[int]) -> Relation:
        """The node pairs of `rows`, decoded when first read."""
        return Relation(tuple(rows), self.node_order)


class Relation(Set):
    """An immutable set of (node, node) pairs, held as the rows of an
    `EvalContext` and its node order.

    Its length is the rows' total bit count, and two relations on equal
    node orders compare by rows.  Anything else (iterating, membership,
    hashing, comparing with another set) reads the pairs, which are decoded
    once and kept as a frozenset; the hash is that frozenset's.  `&`, `|`
    and `-` return frozensets.  The node order is the computing context's
    list, which nothing changes; the relation keeps no reference to the
    context itself."""

    __slots__ = ("rows", "node_order", "_pairs")

    def __init__(self, rows: tuple[int, ...], node_order: list[str]):
        self.rows = rows
        self.node_order = node_order
        self._pairs: frozenset[tuple[str, str]] | None = None

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    def _decoded(self) -> frozenset[tuple[str, str]]:
        if self._pairs is None:
            order = self.node_order
            self._pairs = frozenset((order[i], order[j])
                                    for i, row in enumerate(self.rows) for j in _bits(row))
        return self._pairs

    def __len__(self) -> int:
        return sum(map(int.bit_count, self.rows))

    def __iter__(self):
        return iter(self._decoded())

    def __contains__(self, pair) -> bool:
        return pair in self._decoded()

    def __eq__(self, other) -> bool:
        if type(other) is Relation and other.node_order == self.node_order:
            return other.rows == self.rows
        if not isinstance(other, Set):
            return NotImplemented
        return self._decoded() == other

    def __hash__(self) -> int:
        return hash(self._decoded())

    def __reduce__(self):
        return Relation, (self.rows, self.node_order)

    def __repr__(self) -> str:
        return f"Relation({set(self._decoded())!r})"


def _topological(graph: Graph) -> tuple[list[str], dict[str, int]]:
    """The nodes with every edge's source before its target, ties broken by
    name (Kahn 1962), or by name if a cycle other than a self-loop leaves
    some unplaced; and the index of each node in that order."""
    by_name = sorted(graph.nodes)
    rank = {v: i for i, v in enumerate(by_name)}
    preds = [0] * len(by_name)
    succs: list[list[int]] = [[] for _ in by_name]
    for s, _, t in graph.edges:
        if s != t:
            succs[rank[s]].append(rank[t])
            preds[rank[t]] += 1
    ready = [i for i, count in enumerate(preds) if not count]   # sorted, so a heap
    order = []
    while ready:
        i = heappop(ready)
        order.append(by_name[i])
        for j in succs[i]:
            preds[j] -= 1
            if not preds[j]:
                heappush(ready, j)
    if len(order) < len(by_name):
        order = by_name
    return order, {v: i for i, v in enumerate(order)}


# id(graph) -> its context, for every live graph that has been evaluated on
_CONTEXTS: dict[int, EvalContext] = {}


def _context(graph: Graph) -> EvalContext:
    """The context of this graph object, built on first use and dropped
    when the object dies.  `EvalContext` is looked up at each build, so a
    subclass put in its place serves every graph evaluated after that.
    Threads that miss at once each build one; the last stored is kept,
    and every finalizer pops the same key."""
    ctx = _CONTEXTS.get(id(graph))
    if ctx is None:
        ctx = _CONTEXTS[id(graph)] = EvalContext(graph)
        weakref.finalize(graph, _CONTEXTS.pop, id(graph), None)
    return ctx


def evaluate(e: Expr, graph: Graph) -> Relation:
    """The relation denoted by `e` on `graph`: a `Relation`, a set of node
    pairs that equals the frozenset of those pairs but is not one.  The
    graph's context is built on the first call on this graph object and
    kept while the object lives."""
    ctx = _context(graph)
    return ctx.decode(ctx.mask_of(e))


def evaluate_boolean(e: Expr, graph: Graph) -> bool:
    """Nonemptiness of the denoted relation, on the same kept context as
    `evaluate`."""
    return any(_context(graph).mask_of(e))


# ---------------------------------------------------------------------------
# bounded equivalence oracles

@dataclass(frozen=True)
class EquivVerdict:
    """An oracle's verdict: `checked` counts the instances evaluated, up to
    and including the witness, and `labels` the labels the instances carry,
    those the two expressions name, or 1 when they name none."""
    equivalent: bool
    witness: Graph | None
    checked: int
    graph_class: str
    max_nodes: int
    labels: int
    semantics: str = "path"

    def __bool__(self) -> bool:
        return self.equivalent


# A chunk is up to _LANES consecutive instances of the stream, of any node
# counts.  Over a chunk whose largest instance has n nodes, a relation is
# n * n lane masks: bit b of entry i * n + j says that instance b relates
# its preorder node i to node j, never a node it lacks.  Preorder puts every
# edge's source first, so only converse puts a bit below the diagonal.
_LANES = 4096


@lru_cache(maxsize=256)
def _label_lanes(chains: bool, max_nodes: int, labels: int, chunk: int) -> tuple[tuple, tuple]:
    """Chunk `chunk` of the instances of at most `max_nodes` nodes over
    `labels` labels: `exists`, where exists[i] masks the lanes of the
    instances with more than i nodes, the top ones as the stream is by node
    count, and the lane masks of each label's relation over the chunk."""
    # (label, i, j) -> lane bytes, made only for the entries some instance sets
    lines = defaultdict(partial(bytearray, _LANES // 8))
    sizes = []
    for lane, seq in enumerate(islice(_level_sequences(max_nodes, labels, chains),
                                      chunk * _LANES, (chunk + 1) * _LANES)):
        sizes.append(len(seq) + 1)
        byte, bit = divmod(lane, 8)
        path = [0]                  # path[d]: the latest node at depth d
        for node, (depth, lab) in enumerate(seq, 1):
            del path[depth:]
            lines[lab, path[-1], node][byte] |= 1 << bit
            path.append(node)
    n, full = sizes[-1], (1 << len(sizes)) - 1
    exists = tuple(full >> k << k for k in (bisect_right(sizes, i) for i in range(n)))
    return exists, tuple(tuple(int.from_bytes(lines.get((lab, i, j), b""), "little")
                               for i in range(n) for j in range(n)) for lab in range(labels))


class _Lanes:
    """The relation algebra of a chunk on lane masks: exists[i] masks the
    lanes that have node i, and `labels` maps each label to its lane masks."""

    cyclic = False      # its instances are forests

    def __init__(self, exists: tuple, labels: dict):
        self.n, self.exists, self.labels = len(exists), exists, labels
        self.empty = [0] * self.n ** 2
        self.identity = list(self.empty)
        self.identity[::self.n + 1] = exists

    def label(self, name: str):
        return self.labels[name]

    def compose_masks(self, a, b) -> list[int]:
        """Entry (i, k) of the result is the OR over j of a's (i, j) AND b's
        (j, k); zero entries of `a` and `b` are skipped."""
        n = self.n
        out = [0] * (n * n)
        for i in range(0, n * n, n):
            for j, x in enumerate(a[i:i + n]):
                if x:
                    for k, y in enumerate(b[j * n:j * n + n], i):
                        if y:
                            out[k] |= x & y
        return out

    def then_test(self, a, t) -> list[int]:
        """`a` composed with the test `t`, which is zero off the diagonal:
        entry (i, k) is a's (i, k) AND t's (k, k)."""
        return list(map(and_, a, t[::self.n + 1] * self.n))

    def closure_mask(self, a) -> list[int]:
        """The transitive closure of `a`, which has no bit below the
        diagonal: one pass from the last row to the first ORs into each row
        the finished rows of its successors.  Plans send every other
        relation to `_squared_closure`."""
        n = self.n
        out = list(a)
        for row in range(n - 1, -1, -1):
            i = row * n
            for j in range(row + 1, n):
                x = a[i + j]
                if x:
                    for k, y in enumerate(out[j * n:j * n + n], i):
                        if y:
                            out[k] |= x & y
        return out

    def _project(self, a, second: bool, complement: bool) -> list[int]:
        """The diagonal holding, in each lane, the nodes with an outgoing (or,
        for `second`, incoming) pair in `a`, or the other nodes when
        `complement` is set."""
        n = self.n
        out = [0] * (n * n)
        for i in range(n):
            nodes = reduce(or_, a[i::n] if second else a[i * n:i * n + n])
            out[i * (n + 1)] = self.exists[i] ^ nodes if complement else nodes
        return out

    def transpose_mask(self, a) -> list[int]:
        """Row i of the result is column i of `a`."""
        n = self.n
        return [p for i in range(n) for p in a[i::n]]


def _check(e1: Expr, e2: Expr, graph_class: str, max_nodes: int,
           semantics: str) -> EquivVerdict:
    """Streams the instances over exactly the labels that e1 and e2 name, or
    `a` when they name none; the names are read off the plan's label
    instructions, one per distinct label.  An edge with any other label is
    invisible to both, and cutting such edges leaves smaller instances over
    the named labels, each relating what it related in the whole: those
    come first in a stream over more labels, so more labels would change no
    verdict and no witness."""
    if max_nodes < 1:
        raise ValueError(f"need max_nodes >= 1; got {max_nodes}")
    code, (r1, r2) = _compile((e1, e2))
    names = tuple(sorted(x for op, x, _ in code if op == _LABEL)) or ("a",)
    if graph_class.startswith("unlabeled") and len(names) > 1:
        raise ValueError("expressions mention several labels; unlabeled classes carry one")
    total = _instance_count(graph_class, max_nodes, names)
    limit = default_ceiling()
    if total > limit:
        raise ResourceLimitError(
            f"{semantics} oracle on {graph_class}, max_nodes={max_nodes}, labels={len(names)}: "
            f"{total} instances exceed the ceiling of {limit} (NAVEX_MAX_INSTANCES)")
    chains = graph_class.endswith("chain")
    for chunk in range(-(-total // _LANES)):
        exists, label_rels = _label_lanes(chains, max_nodes, len(names), chunk)
        rels = _run(code, _Lanes(exists, dict(zip(names, label_rels))))
        x, y = rels[r1], rels[r2]
        differ = (reduce(or_, x) ^ reduce(or_, y) if semantics == "boolean"
                  else reduce(or_, map(xor, x, y)))
        if differ:
            index = chunk * _LANES + (differ & -differ).bit_length() - 1
            seq = next(islice(_level_sequences(max_nodes, len(names), chains), index, None))
            witness = _tree_graph(seq, names)
            return EquivVerdict(False, witness, index + 1, graph_class, max_nodes,
                                len(names), semantics)
    return EquivVerdict(True, None, total, graph_class, max_nodes, len(names), semantics)


def path_equivalent(e1: Expr, e2: Expr, graph_class: str = "labeled-tree",
                    max_nodes: int = 5) -> EquivVerdict:
    """Exhaustively compare the relations of e1 and e2 on every instance of
    a graph class up to `max_nodes` nodes over the labels they name; the
    first instance that separates them becomes the witness."""
    return _check(e1, e2, graph_class, max_nodes, "path")


def boolean_equivalent(e1: Expr, e2: Expr, graph_class: str = "labeled-chain",
                       max_nodes: int = 8) -> EquivVerdict:
    """Like path_equivalent but compares nonemptiness only."""
    return _check(e1, e2, graph_class, max_nodes, "boolean")
