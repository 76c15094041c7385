"""Semantics of navigational expressions over edge-labeled graphs.

An expression denotes a binary relation on the nodes of a graph.  The
evaluator keeps a relation as one integer, a mask whose row i holds the
successors of node i: bit i * stride + j is set when node i relates to node
j.  The stride is the node count rounded up to whole bytes, so a mask's
bytes cut into its rows and rows join back into a mask in one conversion
each, without shifting the whole mask once per row; every operation works
on rows that way.  Nodes are numbered in topological order, so a downward
relation on a tree or chain only relates nodes to later ones, and its
closure is one pass from the last row to the first.  A projection is one
multiplication: the product of a node set and the mask with bit 0 of every
row set copies the set into every row, and the identity mask keeps the
diagonal.

Expressions are first compiled into a plan: one instruction per distinct
subterm, children before parents.  Expressions are hash-consed, so a walk
that visits each node object once meets each distinct subterm once and the
plan needs no merging of its own.  A plan is built once and run on any
number of graphs.  Neither compiling nor running hashes, compares or
recurses over expressions, so deep expressions evaluate as well as shallow
ones.

The bounded oracles compile each pair of expressions once and run that plan
on lane masks, not on one `EvalContext` per instance: the instances of one
node count, at most `_LANES` at a time in stream order, are evaluated
together, a relation being n * n integers whose bit b holds instance b's
pair.  The lowest lane where the two results differ is the first instance
that separates them, which is read back from `instances()` as the witness.
Label names map onto positions in the stream's labels l0, l1, ..., so
expressions over different names share the label lanes of a chunk, which a
bounded cache keeps by (chain or tree, node count, label count, chunk).

`evaluate` returns a `Relation`, not a frozenset: a set of node-name pairs
that holds only the mask and the node order.  Its length and its equality
with another relation on the same node order need no decoding, and its
pairs are built only when they are read.  It equals the frozenset of its
pairs, but `isinstance(r, frozenset)` is false.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from functools import lru_cache, reduce
from heapq import heappop, heappush
from itertools import chain, compress, count, islice
from operator import and_, itemgetter, or_, xor
from string import ascii_lowercase

from .expr import (
    Compose, Converse, Coproj1, Coproj2, Difference, EdgeLabel,
    Empty, Expr, Identity, Intersect, Proj1, Proj2, TransClosure, Union,
    _distinct_nodes, labels_used,
)
from .graphs import (
    Graph, ResourceLimitError, _instance_count, _level_sequences, default_ceiling,
    instances,
)

__all__ = [
    "EvalContext", "Relation", "UnknownLabelError", "evaluate", "evaluate_boolean",
    "EquivVerdict", "path_equivalent", "boolean_equivalent",
]


class UnknownLabelError(KeyError):
    """The expression mentions an edge label the graph does not carry."""


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
# says which side is projected and whether the result is complemented.

(_EMPTY, _IDENTITY, _LABEL, _CONVERSE, _CLOSURE, _PROJECT,
 _COMPOSE, _UNION, _INTERSECT, _DIFFERENCE) = range(10)

_ATOM_OP = {Empty: _EMPTY, Identity: _IDENTITY}
_UNARY_OP = {Converse: _CONVERSE, TransClosure: _CLOSURE}
# (second, complement) for each (co)projection
_PROJECTION = {Proj1: (False, False), Proj2: (True, False),
               Coproj1: (False, True), Coproj2: (True, True)}
_BINARY_OP = {Compose: _COMPOSE, Union: _UNION, Intersect: _INTERSECT,
              Difference: _DIFFERENCE}


def _compile(roots) -> tuple[list[tuple], list[int]]:
    """The plan of `roots`: its instructions and the slot of each root."""
    code: list[tuple] = []
    slot: dict[int, int] = {}
    for node in _distinct_nodes(*roots):
        t = type(node)
        if t is EdgeLabel:
            code.append((_LABEL, node.name, None))
        elif t in _BINARY_OP:
            code.append((_BINARY_OP[t], slot[id(node.left)], slot[id(node.right)]))
        elif t in _PROJECTION:
            code.append((_PROJECT, slot[id(node.child)], _PROJECTION[t]))
        elif t in _UNARY_OP:
            code.append((_UNARY_OP[t], slot[id(node.child)], None))
        elif t in _ATOM_OP:
            code.append((_ATOM_OP[t], None, None))
        else:  # pragma: no cover - exhaustive over the syntax
            raise TypeError(f"cannot evaluate {t.__name__}")
        slot[id(node)] = len(code) - 1
    return code, [slot[id(r)] for r in roots]


def _join(rows, widths, little) -> int:
    return int.from_bytes(b"".join(map(int.to_bytes, rows, widths, little)), "little")


@lru_cache(maxsize=64)
def _layout(n: int) -> tuple:
    """What the masks of every n-node context share: the byte length of a
    mask, a getter cutting its bytes into rows, the arguments that turn n
    rows to and from bytes, the singleton rows, and the identity, column
    (bit 0 of every row) and backward ((i, j) with j < i) masks."""
    width = (n + 7) // 8      # bytes per row
    # a trailing empty slice keeps the getter's result a tuple at n = 1;
    # the n-long argument lists cut the split at n rows
    slicer = itemgetter(*[slice(i * width, (i + 1) * width) for i in range(n)],
                        slice(0, 0))
    widths, little = [width] * n, ["little"] * n
    singletons = [1 << i for i in range(n)]
    identity = _join(singletons, widths, little)
    column = _join([1] * n, widths, little)
    return (n * width, slicer, widths, little, singletons,
            identity, column, identity - column)


class EvalContext:
    """Per-graph evaluation state: node indexing, label relations as bit
    masks, and the relation algebra on masks that plans run on.

    Nodes are indexed in topological order (every edge's source before its
    target, ties by name), or in name order if the graph has a cycle other
    than a self-loop.  Row i of a mask, node i's successor set, starts at
    bit i * stride, where the stride is n rounded up to whole bytes, so a
    mask splits into its rows with one `to_bytes` and rows join back with
    one `from_bytes`.  Operations work on rows through that split and join,
    except projections and products with a test, which multiply by the
    column mask."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.node_order, self.index = _topological(graph)
        self.n = n = len(self.node_order)
        index = self.index
        (self._size, self._slicer, self._widths, self._little, self._singletons,
         self.identity_mask, self._column, self._backward) = _layout(n)
        rows = {lab: [0] * n for lab in graph.labels}
        for s, lab, t in graph.edges:
            rows[lab][index[s]] |= 1 << index[t]
        self.label_masks = {lab: _join(r, self._widths, self._little)
                            for lab, r in rows.items()}
        # the rows of every mask split or joined here, starting with the
        # masks every plan starts from
        self._row_cache: dict[int, list[int]] = {
            self.label_masks[lab]: r for lab, r in rows.items()}
        self._row_cache.update({0: [0] * n, self.identity_mask: self._singletons})

    # --- relation algebra on masks -------------------------------------
    def _split(self, mask: int) -> list[int]:
        """The rows of `mask`, a new list."""
        return list(map(int.from_bytes,
                        self._slicer(mask.to_bytes(self._size, "little")), self._little))

    def _rows(self, mask: int) -> list[int]:
        """The rows of `mask`, shared: callers must not change them."""
        rows = self._row_cache.get(mask)
        if rows is None:
            rows = self._row_cache[mask] = self._split(mask)
        return rows

    def join_rows(self, rows: list[int]) -> int:
        """The mask whose row i is `rows[i]`, a node bitmask.  The rows are
        kept for `_rows`, so the caller must not change them afterwards."""
        mask = _join(rows, self._widths, self._little)
        self._row_cache[mask] = rows
        return mask

    def compose_masks(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        if a == self.identity_mask:
            return b
        if b == self.identity_mask:
            return a
        rows_b = self._rows(b)
        if b & self.identity_mask == b:  # b is a test: keep a's columns on its nodes
            return a & reduce(or_, rows_b) * self._column
        rows_a = self._rows(a)
        out = []
        for row in rows_a:
            acc = 0
            while row:
                low = row & -row
                acc |= rows_b[low.bit_length() - 1]
                row ^= low
            out.append(acc)
        # on small graphs a product is often empty or one of its operands
        if out == rows_b:
            return b
        if out == rows_a:
            return a
        return self.join_rows(out) if any(out) else 0

    def transpose_mask(self, a: int) -> int:
        out = [0] * self.n
        for bit, row in zip(self._singletons, self._rows(a)):
            while row:
                low = row & -row
                out[low.bit_length() - 1] |= bit
                row ^= low
        return self.join_rows(out)

    def closure_mask(self, a: int) -> int:
        """The transitive closure of `a`.  If `a` only relates nodes to
        themselves or to later nodes, as a downward relation on a tree or
        chain does, one pass from the last row to the first ORs into each
        row the finished rows of its successors.  Otherwise `a` is squared
        until a fixpoint."""
        if a & self._backward:
            cur = a
            while True:
                nxt = cur | self.compose_masks(cur, cur)
                if nxt == cur:
                    return cur
                cur = nxt
        given = self._rows(a)
        rows = list(given)
        for i in range(self.n - 1, -1, -1):
            row = acc = rows[i]
            while row:
                low = row & -row
                acc |= rows[low.bit_length() - 1]
                row ^= low
            rows[i] = acc
        return a if rows == given else self.join_rows(rows)

    def _project(self, a: int, second: bool, complement: bool) -> int:
        """The identity pairs on the nodes with an outgoing (or, for
        `second`, incoming) pair in `a`, or on the other nodes when
        `complement` is set."""
        rows = self._rows(a)
        if second:
            nodes = reduce(or_, rows, 0)
        else:
            nodes = sum(compress(self._singletons, rows))
        if complement:
            nodes ^= (1 << self.n) - 1
        # the product copies `nodes` into every row; no row carries over
        return nodes * self._column & self.identity_mask

    def _run(self, code: list[tuple]) -> list[int]:
        """The mask of every slot of a plan on this graph."""
        masks: list[int] = []
        push = masks.append
        for op, x, y in code:   # most frequent opcodes first
            if op == _COMPOSE:
                push(self.compose_masks(masks[x], masks[y]))
            elif op == _UNION:
                push(masks[x] | masks[y])
            elif op == _PROJECT:
                push(self._project(masks[x], *y))
            elif op == _LABEL:
                try:
                    push(self.label_masks[x])
                except KeyError:
                    raise UnknownLabelError(x) from None
            elif op == _CLOSURE:
                push(self.closure_mask(masks[x]))
            elif op == _IDENTITY:
                push(self.identity_mask)
            elif op == _DIFFERENCE:
                push(masks[x] & ~masks[y])
            elif op == _INTERSECT:
                push(masks[x] & masks[y])
            elif op == _EMPTY:
                push(0)
            else:  # _CONVERSE
                push(self.transpose_mask(masks[x]))
        return masks

    def mask_of(self, e: Expr) -> int:
        code, (root,) = _compile((e,))
        return self._run(code)[root]

    def decode(self, mask: int) -> Relation:
        """The node pairs of `mask`, decoded when first read."""
        return Relation(mask, self.node_order)


class Relation(Set):
    """An immutable set of (node, node) pairs, held as a mask over a node
    order as `EvalContext` lays it out.

    Its length is the mask's bit count, and two relations on equal node
    orders compare by mask.  Anything else (iterating, membership, hashing,
    comparing with another set) reads the pairs, which are decoded once and
    kept as a frozenset; the hash is that frozenset's.  `&`, `|` and `-`
    return frozensets.  The node order is the computing context's list,
    which nothing changes; the relation keeps no reference to the context
    itself, whose row cache holds every intermediate mask."""

    __slots__ = ("mask", "node_order", "_pairs")

    def __init__(self, mask: int, node_order: list[str]):
        self.mask = mask
        self.node_order = node_order
        self._pairs: frozenset[tuple[str, str]] | None = None

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    def _decoded(self) -> frozenset[tuple[str, str]]:
        if self._pairs is None:
            order = self.node_order
            size, slicer, _, little = _layout(len(order))[:4]
            rows = map(int.from_bytes, slicer(self.mask.to_bytes(size, "little")), little)
            self._pairs = frozenset((order[i], order[j])
                                    for i, row in enumerate(rows) for j in _bits(row))
        return self._pairs

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        return iter(self._decoded())

    def __contains__(self, pair) -> bool:
        return pair in self._decoded()

    def __eq__(self, other) -> bool:
        if type(other) is Relation and other.node_order == self.node_order:
            return other.mask == self.mask
        if not isinstance(other, Set):
            return NotImplemented
        return self._decoded() == other

    def __hash__(self) -> int:
        return hash(self._decoded())

    def __reduce__(self):
        return Relation, (self.mask, self.node_order)

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


def evaluate(e: Expr, graph: Graph) -> Relation:
    """The relation denoted by `e` on `graph`: a `Relation`, a set of node
    pairs that equals the frozenset of those pairs but is not one."""
    ctx = EvalContext(graph)
    return ctx.decode(ctx.mask_of(e))


def evaluate_boolean(e: Expr, graph: Graph) -> bool:
    """Nonemptiness of the denoted relation."""
    return EvalContext(graph).mask_of(e) != 0


# ---------------------------------------------------------------------------
# bounded equivalence oracles

@dataclass(frozen=True)
class EquivVerdict:
    equivalent: bool
    witness: Graph | None
    checked: int
    graph_class: str
    max_nodes: int
    labels: int
    semantics: str = "path"

    def __bool__(self) -> bool:
        return self.equivalent


def _required_labels(exprs, labels):
    """Label names for the instance stream: every label the expressions
    mention, padded up to the requested count with the letters a-z and
    then a1, a2, ..., skipping names already used."""
    used = {lab for e in exprs for lab in labels_used(e)}
    names = set(used)
    for c in chain(ascii_lowercase, map("a{}".format, count(1))):
        if len(names) >= labels:
            break
        names.add(c)
    return tuple(sorted(names)), used


# The oracles run a plan on every instance of one node count at once, in
# chunks of at most _LANES instances taken from the stream in order.  A
# relation over a chunk of n-node instances is n * n integers, the lane
# masks: bit b of entry i * n + j says that instance b relates its preorder
# node i to node j.  Preorder puts every edge's source first, so only
# converse puts a bit below the diagonal.
_LANES = 4096


@lru_cache(maxsize=256)
def _label_lanes(chains: bool, n: int, labels: int, chunk: int) -> tuple[int, tuple]:
    """The lane count of a chunk of the n-node instances over `labels`
    labels, and the lane masks of each label's relation over it."""
    lines = [[bytearray(_LANES // 8) for _ in range(n * n)] for _ in range(labels)]
    sequences = islice(_level_sequences(n, labels, chains, first=n),
                       chunk * _LANES, (chunk + 1) * _LANES)
    lanes = 0
    for lanes, seq in enumerate(sequences, 1):
        byte, bit = divmod(lanes - 1, 8)
        path = [0]                  # path[d]: the latest node at depth d
        for node, (depth, lab) in enumerate(seq, 1):
            del path[depth:]
            lines[lab][path[-1] * n + node][byte] |= 1 << bit
            path.append(node)
    return lanes, tuple(tuple(int.from_bytes(b, "little") for b in rel) for rel in lines)


def _lane_compose(a, b, n: int) -> list[int]:
    """Entry (i, k) of the result is the OR over j of a's (i, j) AND b's
    (j, k); zero entries of `a` and `b` are skipped."""
    out = [0] * (n * n)
    for i in range(0, n * n, n):
        for j, x in enumerate(a[i:i + n]):
            if x:
                for k, y in enumerate(b[j * n:j * n + n], i):
                    if y:
                        out[k] |= x & y
    return out


def _lane_closure(a, n: int) -> list[int]:
    """The transitive closure of `a`.  With no bit below the diagonal, one
    pass from the last row to the first ORs into each row the finished rows
    of its successors; otherwise `a` is squared until a fixpoint."""
    if any(a[i * n + j] for i in range(n) for j in range(i)):
        cur = list(a)
        while True:
            nxt = list(map(or_, cur, _lane_compose(cur, cur, n)))
            if nxt == cur:
                return cur
            cur = nxt
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


def _lane_project(a, n: int, full: int, second: bool, complement: bool) -> list[int]:
    """The diagonal holding, in each lane, the nodes with an outgoing (or,
    for `second`, incoming) pair in `a`, or the other nodes when
    `complement` is set."""
    out = [0] * (n * n)
    for i in range(n):
        nodes = reduce(or_, a[i::n] if second else a[i * n:i * n + n])
        out[i * (n + 1)] = full ^ nodes if complement else nodes
    return out


def _run_lanes(code: list[tuple], n: int, full: int, labels: tuple) -> list:
    """The lane masks of every slot of a plan over one chunk, whose lanes
    are the set bits of `full`; a label's operand is its position in
    `labels`."""
    empty = [0] * (n * n)
    identity = list(empty)
    identity[::n + 1] = [full] * n
    rels: list = []
    push = rels.append
    for op, x, y in code:   # most frequent opcodes first
        if op == _COMPOSE:
            push(_lane_compose(rels[x], rels[y], n))
        elif op == _UNION:
            push(list(map(or_, rels[x], rels[y])))
        elif op == _PROJECT:
            push(_lane_project(rels[x], n, full, *y))
        elif op == _LABEL:
            push(labels[x])
        elif op == _CLOSURE:
            push(_lane_closure(rels[x], n))
        elif op == _IDENTITY:
            push(identity)
        elif op == _DIFFERENCE:
            push([p & ~q for p, q in zip(rels[x], rels[y])])
        elif op == _INTERSECT:
            push(list(map(and_, rels[x], rels[y])))
        elif op == _EMPTY:
            push(empty)
        else:  # _CONVERSE: row i of the result is column i
            a = rels[x]
            push([p for i in range(n) for p in a[i::n]])
    return rels


def _check(e1: Expr, e2: Expr, graph_class: str, max_nodes: int, labels: int,
           semantics: str) -> EquivVerdict:
    if max_nodes < 1 or labels < 0:
        raise ValueError(f"need max_nodes >= 1, labels >= 0; got {max_nodes}, {labels}")
    names, used = _required_labels((e1, e2), labels)
    if graph_class.startswith("unlabeled"):
        if len(used) > 1:
            raise ValueError(
                "expressions mention several labels; unlabeled classes carry one")
        names = tuple(sorted(used)) or ("a",)
    stream_labels = tuple(f"l{i}" for i in range(len(names)))
    # counts[n]: how many instances have at most n nodes
    counts = [_instance_count(graph_class, n, stream_labels) for n in range(max_nodes + 1)]
    limit = default_ceiling()
    if counts[-1] > limit:
        raise ResourceLimitError(f"{counts[-1]} instances exceeds the ceiling of {limit}")
    rename = {name: i for i, name in enumerate(names)}
    code, (r1, r2) = _compile((e1, e2))
    code = [(op, rename[x], y) if op == _LABEL else (op, x, y)
            for op, x, y in code]
    chains = graph_class.endswith("chain")
    for n in range(1, max_nodes + 1):
        for chunk in range(-(-(counts[n] - counts[n - 1]) // _LANES)):
            lanes, label_rels = _label_lanes(chains, n, len(names), chunk)
            rels = _run_lanes(code, n, (1 << lanes) - 1, label_rels)
            x, y = rels[r1], rels[r2]
            if semantics == "boolean":
                differ = reduce(or_, x) ^ reduce(or_, y)
            else:
                differ = reduce(or_, map(xor, x, y))
            if differ:
                index = counts[n - 1] + chunk * _LANES + (differ & -differ).bit_length() - 1
                g = next(islice(instances(graph_class, max_nodes, stream_labels), index, None))
                back = dict(zip(stream_labels, names))
                witness = Graph(g.nodes, frozenset(back[lab] for lab in g.labels),
                                frozenset((s, back[lab], t) for s, lab, t in g.edges))
                return EquivVerdict(False, witness, index + 1, graph_class, max_nodes,
                                    len(names), semantics)
    return EquivVerdict(True, None, counts[-1], graph_class, max_nodes, len(names),
                        semantics)


def path_equivalent(e1: Expr, e2: Expr, graph_class: str = "labeled-tree",
                    max_nodes: int = 5, labels: int = 2) -> EquivVerdict:
    """Exhaustively compare the relations of e1 and e2 over the instance
    stream of a graph class; first difference becomes the witness."""
    return _check(e1, e2, graph_class, max_nodes, labels, "path")


def boolean_equivalent(e1: Expr, e2: Expr, graph_class: str = "labeled-chain",
                       max_nodes: int = 8, labels: int = 2) -> EquivVerdict:
    """Like path_equivalent but compares nonemptiness only."""
    return _check(e1, e2, graph_class, max_nodes, labels, "boolean")
