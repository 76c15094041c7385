"""Independent references for the benchmark's correctness checks.

Nothing here imports `navex`.  Expressions are the benchmark's own tuples:
``("lab", name)``, ``("id",)``, ``("empty",)``, ``("di",)``, a unary
operator ``(op, child)`` with op in conv, tc, pi1, pi2, copi1, copi2, or a
binary operator ``(op, left, right)`` with op in ``.``, ``|``, ``&``, ``\\``.
Library expressions are converted through their public attributes
(``child``, ``left``, ``right``, ``name``), so the checks keep working when
the library changes how it stores or shares nodes.

The relational evaluator works on Python sets of node pairs, which is slow
but obviously correct, and is only used on graphs of a handful of nodes.
"""

from __future__ import annotations

import re

UNARY = ("conv", "tc", "pi1", "pi2", "copi1", "copi2")
BINARY = (".", "|", "&", "\\")
LEAVES = ("lab", "id", "empty", "di")

# navex class name -> tuple tag
_TAG_OF_CLASS = {
    "Empty": "empty", "Identity": "id", "Diversity": "di", "EdgeLabel": "lab",
    "Converse": "conv", "TransClosure": "tc", "Proj1": "pi1", "Proj2": "pi2",
    "Coproj1": "copi1", "Coproj2": "copi2",
    "Compose": ".", "Union": "|", "Intersect": "&", "Difference": "\\",
}
_FUNCTIONAL = {"conv", "pi1", "pi2", "copi1", "copi2"}


def text_of(t) -> str:
    """Fully parenthesised concrete syntax for a tuple expression."""
    tag = t[0]
    if tag == "lab":
        return t[1]
    if tag == "empty":
        return "0"
    if tag in ("id", "di"):
        return tag
    if tag == "tc":
        return f"({text_of(t[1])})+"
    if tag in _FUNCTIONAL:
        return f"{tag}({text_of(t[1])})"
    return f"({text_of(t[1])}) {tag} ({text_of(t[2])})"


def from_library(e):
    """Convert a library expression to tuples, keeping object sharing: two
    references to one library node become one tuple object.  Iterative, so
    deep trees are fine."""
    memo: dict[int, tuple] = {}
    stack = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in memo:
            continue
        tag = _TAG_OF_CLASS[type(node).__name__]
        if tag in LEAVES:
            memo[key] = ("lab", node.name) if tag == "lab" else (tag,)
        elif tag in UNARY:
            if expanded:
                memo[key] = (tag, memo[id(node.child)])
            else:
                stack += [(node, True), (node.child, False)]
        elif expanded:
            memo[key] = (tag, memo[id(node.left)], memo[id(node.right)])
        else:
            stack += [(node, True), (node.right, False), (node.left, False)]
    return memo[id(e)]


def _children(t):
    return t[1:] if t[0] in UNARY or t[0] in BINARY else ()


def postorder(t):
    """Distinct tuple objects of t, children before parents."""
    out, seen, stack = [], set(), [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded or node[0] in LEAVES:
            seen.add(id(node))
            out.append(node)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(_children(node)))
    return out


def _classes(roots):
    """Number every node of the roots by structure: (id -> class, classes)."""
    canon: dict[int, int] = {}
    classes: dict[tuple, int] = {}
    for root in roots:
        for node in postorder(root):
            kids = _children(node)
            key = ((node[0],) + tuple(canon[id(c)] for c in kids)) if kids else node
            canon[id(node)] = classes.setdefault(key, len(classes))
    return canon, classes


def tree_and_dag_ops(t) -> tuple[int, int]:
    """Operator count of the expression as a tree, and the number of
    structurally distinct operator subterms (its size as a DAG)."""
    tree: dict[int, int] = {}
    for node in postorder(t):
        kids = _children(node)
        tree[id(node)] = (1 + sum(tree[id(c)] for c in kids)) if kids else 0
    _, classes = _classes([t])
    return tree[id(t)], sum(1 for key in classes if key[0] in UNARY or key[0] in BINARY)


def same_structure(t1, t2) -> bool:
    """Structural equality of two tuple expressions, without recursion."""
    canon, _ = _classes([t1, t2])
    return canon[id(t1)] == canon[id(t2)]


def operators_in(t) -> set[str]:
    return {node[0] for node in postorder(t) if node[0] not in ("lab", "id", "empty")}


def labels_in(t) -> set[str]:
    return {node[1] for node in postorder(t) if node[0] == "lab"}


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[|\\&.+*^()]")


def count_tokens(text: str) -> int:
    return sum(1 for _ in _TOKEN.finditer(text))


# ---------------------------------------------------------------------------
# relational semantics on small graphs

def relation(t, nodes, edges) -> frozenset:
    """The relation of t on the graph (nodes, edges) with edges as
    (source, label, target) triples."""
    nodes = list(nodes)
    ident = frozenset((n, n) for n in nodes)
    value: dict[int, frozenset] = {}
    for node in postorder(t):
        tag = node[0]
        v = [value[id(c)] for c in _children(node)]
        if tag == "lab":
            out = frozenset((s, d) for s, lab, d in edges if lab == node[1])
        elif tag == "id":
            out = ident
        elif tag == "empty":
            out = frozenset()
        elif tag == "di":
            out = frozenset((m, n) for m in nodes for n in nodes if m != n)
        elif tag == "conv":
            out = frozenset((n, m) for m, n in v[0])
        elif tag == "tc":
            out = _closure(v[0])
        elif tag in ("pi1", "copi1"):
            sources = {m for m, _ in v[0]}
            out = frozenset((n, n) for n in nodes if (n in sources) == (tag == "pi1"))
        elif tag in ("pi2", "copi2"):
            targets = {n for _, n in v[0]}
            out = frozenset((n, n) for n in nodes if (n in targets) == (tag == "pi2"))
        elif tag == ".":
            succ: dict = {}
            for m, n in v[1]:
                succ.setdefault(m, set()).add(n)
            out = frozenset((m, k) for m, n in v[0] for k in succ.get(n, ()))
        elif tag == "|":
            out = v[0] | v[1]
        elif tag == "&":
            out = v[0] & v[1]
        else:
            out = v[0] - v[1]
        value[id(node)] = out
    return value[id(t)]


def _closure(pairs: frozenset) -> frozenset:
    succ: dict = {}
    for m, n in pairs:
        succ.setdefault(m, set()).add(n)
    out = set()
    for start in succ:
        seen, stack = set(), list(succ[start])
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(succ.get(n, ()))
        out.update((start, n) for n in seen)
    return frozenset(out)


def differ(t1, t2, nodes, edges, semantics: str) -> bool:
    r1, r2 = relation(t1, nodes, edges), relation(t2, nodes, edges)
    if semantics == "boolean":
        return bool(r1) != bool(r2)
    return r1 != r2


# ---------------------------------------------------------------------------
# distances on unlabeled chains

def distance_set(t, horizon: int) -> frozenset[int]:
    """For the fragment of a, id, 0, composition, union, closure,
    intersection and difference over one label: the set of distances j - i
    (below `horizon`) of the pairs (i, j) the expression relates on an
    unlabeled chain.  Exact below the horizon, since every distance is
    non-negative."""
    value: dict[int, frozenset] = {}
    for node in postorder(t):
        tag = node[0]
        v = [value[id(c)] for c in _children(node)]
        if tag == "lab":
            out = frozenset({1})
        elif tag == "id":
            out = frozenset({0})
        elif tag == "empty":
            out = frozenset()
        elif tag == ".":
            out = frozenset(x + y for x in v[0] for y in v[1] if x + y < horizon)
        elif tag == "|":
            out = v[0] | v[1]
        elif tag == "&":
            out = v[0] & v[1]
        elif tag == "\\":
            out = v[0] - v[1]
        elif tag == "tc":
            out, frontier = set(v[0]), set(v[0])
            while frontier:
                frontier = {x + y for x in frontier for y in v[0]
                            if x + y < horizon} - out
                out |= frontier
            out = frozenset(out)
        else:
            raise ValueError(f"no distance semantics for {tag}")
        value[id(node)] = out
    return value[id(t)]
