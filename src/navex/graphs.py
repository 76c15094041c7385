"""Edge-labeled graphs and instance enumeration.

Nodes are strings.  Edges are (source, label, target) triples; multiple labels
between the same pair of nodes are allowed.  Trees here are rooted and
edge-labeled: exactly one node without incoming edges, every other node with
exactly one, no cycles.
"""

from __future__ import annotations

import itertools
import os
import string
from dataclasses import dataclass

__all__ = [
    "Graph", "GraphError", "ResourceLimitError", "chain_graph",
    "count_trees", "enumerate_trees", "instances",
    "GRAPH_CLASSES", "default_ceiling",
]

ID = "id"  # the label of identity steps in automata, so never a graph label

GRAPH_CLASSES = (
    "labeled-tree", "unlabeled-tree", "labeled-chain", "unlabeled-chain",
)


class GraphError(ValueError):
    """The graph violates a structural invariant."""


class ResourceLimitError(RuntimeError):
    """An enumeration or a reachability walk would exceed the configured
    instance ceiling."""


def default_ceiling() -> int:
    """The one instance limit: NAVEX_MAX_INSTANCES, or 2,000,000 if unset."""
    value = os.environ.get("NAVEX_MAX_INSTANCES")
    if not value:
        return 2_000_000
    try:
        limit = int(value)
    except ValueError:
        limit = 0               # refused below, like every other non-positive value
    if limit < 1:
        raise ValueError(f"NAVEX_MAX_INSTANCES must be a positive integer, got {value!r}")
    return limit


@dataclass(frozen=True)
class Graph:
    nodes: frozenset[str]
    labels: frozenset[str]
    edges: frozenset[tuple[str, str, str]]

    def __post_init__(self):
        if ID in self.labels:
            raise GraphError(f"label {ID!r} is reserved")
        for src, lab, dst in self.edges:
            if src not in self.nodes or dst not in self.nodes:
                raise GraphError(f"edge ({src},{lab},{dst}) has an endpoint outside nodes")
            if lab not in self.labels:
                raise GraphError(f"edge label {lab!r} is not in the alphabet")

    @classmethod
    def build(cls, nodes, labels, edges) -> "Graph":
        return cls(frozenset(nodes), frozenset(labels),
                   frozenset((s, l, t) for (s, l, t) in edges))


def _subsets(items) -> list[frozenset]:
    """Every subset of the sequence `items`, in binary-counting order."""
    return [frozenset(x for i, x in enumerate(items) if bits >> i & 1)
            for bits in range(2 ** len(items))]


def _reach(starts, step, limit: int | None = None) -> set:
    """Every item reachable from `starts`, the starts included, where
    `step(x)` yields the successors of x.  Raises ResourceLimitError once
    more items than the instance ceiling, or than a lower `limit`, are
    reached, naming `step`, which is the walk's stage."""
    cap, source = default_ceiling(), "NAVEX_MAX_INSTANCES"
    if limit is not None and limit < cap:
        cap, source = limit, "limit"
    seen = set(starts)
    stack = list(seen)
    while len(seen) <= cap and stack:
        for y in step(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) > cap:
        raise ResourceLimitError(
            f"{step.__qualname__}: more than {cap} reachable states ({source})")
    return seen


# ---------------------------------------------------------------------------
# builders

def _label_names():
    """The default label names, in order: a to z, then a1, a2, ..."""
    return itertools.chain(string.ascii_lowercase, map("a{}".format, itertools.count(1)))


def _alphabet(labels) -> tuple[str, ...]:
    if isinstance(labels, int):
        if labels < 0:
            raise GraphError(f"label count out of range: {labels}")
        return tuple(itertools.islice(_label_names(), labels))
    return tuple(labels)


def chain_graph(n_nodes: int, labels="a") -> Graph:
    """A chain n0 -> n1 -> ... with the given edge labels.

    `labels` is either one label for every edge or a sequence of n_nodes - 1
    labels, one per edge top-down.
    """
    if n_nodes < 1:
        raise GraphError(f"a chain has a root, so at least one node; got {n_nodes}")
    if isinstance(labels, str):
        seq = [labels] * (n_nodes - 1)
        alphabet = {labels}
    else:
        seq = list(labels)
        if len(seq) != n_nodes - 1:
            raise GraphError("need one label per edge")
        alphabet = set(seq) or {"a"}
    nodes = [f"n{i}" for i in range(n_nodes)]
    edges = [(nodes[i], seq[i], nodes[i + 1]) for i in range(n_nodes - 1)]
    return Graph.build(nodes, alphabet, edges)


# ---------------------------------------------------------------------------
# enumeration

def count_trees(max_nodes: int, labels=1, *, chains_only: bool = False) -> int:
    """The length of the `enumerate_trees` stream with the same arguments.

    A tree of n nodes is a root over a forest of n - 1 nodes, a multiset of
    (label, subtree) children, so with k labels the forest counts are the
    Euler transform of k times the tree counts:
    m f(m) = sum over j of c(j) f(m - j), c(j) = k * sum over d | j of
    d f(d - 1)."""
    k = len(_alphabet(labels))
    if chains_only:
        return sum(k ** (n - 1) for n in range(1, max_nodes + 1))
    forests, c = [1], [0]
    for m in range(1, max_nodes):
        c.append(k * sum(d * forests[d - 1] for d in range(1, m + 1) if m % d == 0))
        forests.append(sum(c[j] * forests[m - j] for j in range(1, m + 1)) // m)
    return sum(forests[:max_nodes])


def _canonical_trees(max_nodes: int, n_labels: int):
    """Yield one level sequence per edge-labeled rooted tree of at most
    max_nodes nodes up to isomorphism, by node count.

    A level sequence lists the non-root nodes in preorder as (depth, label
    index).  Children are (label, subtree) items, ordered by (subtree size,
    label, subtree rank); each tree lists its children in non-increasing
    item order, which picks one child order per multiset of children and so
    one tree per isomorphism class (after Beyer & Hedetniemi, Constant time
    generation of rooted trees, SIAM J. Comput. 1980)."""
    items: list[tuple[int, tuple]] = []     # (size, level sequence below the parent)

    def forests(total: int, bound: int):
        """Non-increasing item sequences of `total` nodes, items < bound."""
        if total == 0:
            yield ()
            return
        for i in range(bound):
            if items[i][0] > total:
                break
            for rest in forests(total - items[i][0], i + 1):
                yield items[i][1] + rest

    for n in range(1, max_nodes + 1):
        trees = list(forests(n - 1, len(items)))
        yield from trees
        if n < max_nodes:
            items += [(n, ((1, lab),) + tuple((d + 1, l) for d, l in seq))
                      for lab in range(n_labels) for seq in trees]


def _level_sequences(max_nodes: int, n_labels: int, chains_only: bool):
    """The level sequences of the instance stream with at most max_nodes
    nodes, in stream order: by node count, then every chain word in
    lexicographic order, or `_canonical_trees`.  `enumerate_trees` and the
    oracle's lanes both read this one generator, so they list instances in
    the same order."""
    if not chains_only:
        return _canonical_trees(max_nodes, n_labels)
    return (tuple(enumerate(word, 1)) for n in range(1, max_nodes + 1)
            for word in itertools.product(range(n_labels), repeat=n - 1))


def enumerate_trees(max_nodes: int, labels=1, *, chains_only: bool = False):
    """Yield the rooted edge-labeled trees (single-labeled by construction)
    with at most max_nodes nodes, smallest first, nodes named n0, n1, ... in
    preorder from the root.

    With chains_only, every chain: one per word over the alphabet, in
    lexicographic order.  Otherwise exactly one tree per isomorphism class;
    the relations of navigational expressions are invariant under
    isomorphism, so the other members of a class could not separate two
    expressions that this one does not.
    """
    alphabet = _alphabet(labels)
    limit = default_ceiling()
    total = count_trees(max_nodes, alphabet, chains_only=chains_only)
    if total > limit:
        raise ResourceLimitError(
            f"enumerate_trees, max_nodes={max_nodes}, labels={len(alphabet)}: "
            f"{total} trees exceed the ceiling of {limit} (NAVEX_MAX_INSTANCES)")
    label_set = frozenset(alphabet)
    for seq in _level_sequences(max_nodes, len(alphabet), chains_only):
        names = [f"n{i}" for i in range(len(seq) + 1)]
        path = names[:1]            # path[d]: the latest node at depth d
        edges = []
        for name, (depth, lab) in zip(names[1:], seq):
            del path[depth:]
            edges.append((path[-1], alphabet[lab], name))
            path.append(name)
        yield Graph(frozenset(names), label_set, frozenset(edges))


def _class_labels(graph_class: str, labels):
    if graph_class not in GRAPH_CLASSES:
        raise GraphError(f"unknown graph class {graph_class!r}; "
                         f"choose from {', '.join(GRAPH_CLASSES)}")
    if graph_class.startswith("unlabeled"):
        return _alphabet(labels)[:1] or ("a",)
    return labels


def instances(graph_class: str, max_nodes: int, labels=2):
    """The instance stream behind the equivalence oracles."""
    labels = _class_labels(graph_class, labels)
    return enumerate_trees(max_nodes, labels, chains_only=graph_class.endswith("chain"))


def _instance_count(graph_class: str, max_nodes: int, labels=2) -> int:
    """The length of the `instances` stream with the same arguments."""
    labels = _class_labels(graph_class, labels)
    return count_trees(max_nodes, labels, chains_only=graph_class.endswith("chain"))
