"""Navigational expressions: syntax tree, concrete grammar, and structural metrics.

An expression denotes a binary relation over the nodes of an edge-labeled
graph.  The core syntax has fourteen constructors; the concrete grammar adds
sugar (``*``, ``^k``, ``A``, ``E``) that is desugared at parse time and never
stored in the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
import re

__all__ = [
    "Expr", "Empty", "Identity", "Diversity", "EdgeLabel", "Converse",
    "TransClosure", "Proj1", "Proj2", "Coproj1", "Coproj2", "Compose",
    "Union", "Intersect", "Difference",
    "EMPTY", "IDENTITY", "DIVERSITY",
    "power", "star", "label_union",
    "ParseError", "FragmentError", "parse", "render",
    "size", "labels_used", "subexpressions",
    "Fragment", "FLAGS", "operators_used", "condition_depth",
]


class Expr:
    """Base class for expression nodes.  Instances are immutable and hashable.

    Hashes are cached per node so that deep trees and shared sub-DAGs can be
    used as dictionary keys in O(1) after construction.
    """

    def _fields(self) -> tuple:
        d = self.__dict__
        return tuple(d[name] for name in self.__dataclass_fields__)  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        h = self.__dict__.get("_h")
        if h is None:
            # Fill the missing hashes children first, without descending
            # below a node that has one, so the tuple hash below only meets
            # cached child hashes and never recurses.
            stack: list = [(self, False)]
            while stack:
                node, expanded = stack.pop()
                d = node.__dict__
                if "_h" in d:
                    continue
                if expanded:
                    d["_h"] = hash((type(node).__name__, node._fields()))
                else:
                    stack.append((node, True))
                    stack.extend((kid, False) for kid in _children(node))
            h = self.__dict__["_h"]
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other) or hash(self) != hash(other):
            return False
        stack = [(self, other)]
        seen: set[tuple[int, int]] = set()
        while stack:
            a, b = stack.pop()
            for x, y in zip(a._fields(), b._fields()):
                if x is y:
                    continue
                if not isinstance(x, Expr):
                    if x != y:
                        return False
                elif type(x) is not type(y) or hash(x) != hash(y):
                    return False
                elif (id(x), id(y)) not in seen:
                    seen.add((id(x), id(y)))
                    stack.append((x, y))
        return True

    def __repr__(self) -> str:
        return f"<{render(self)}>"


@dataclass(frozen=True, eq=False, repr=False)
class Empty(Expr):
    """The empty relation."""


@dataclass(frozen=True, eq=False, repr=False)
class Identity(Expr):
    """All pairs (n, n)."""


@dataclass(frozen=True, eq=False, repr=False)
class Diversity(Expr):
    """All pairs (m, n) with m != n."""


@dataclass(frozen=True, eq=False, repr=False)
class EdgeLabel(Expr):
    """All pairs connected by an edge with this label."""
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Converse(Expr):
    child: Expr


@dataclass(frozen=True, eq=False, repr=False)
class TransClosure(Expr):
    child: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Proj1(Expr):
    """Pairs (m, m) such that (m, n) is in the child for some n."""
    child: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Proj2(Expr):
    """Pairs (n, n) such that (m, n) is in the child for some m."""
    child: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Coproj1(Expr):
    """Pairs (m, m) such that no (m, n) is in the child."""
    child: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Coproj2(Expr):
    """Pairs (n, n) such that no (m, n) is in the child."""
    child: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Compose(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Union(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Intersect(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Difference(Expr):
    left: Expr
    right: Expr


EMPTY = Empty()
IDENTITY = Identity()
DIVERSITY = Diversity()

_UNARY = (Converse, TransClosure, Proj1, Proj2, Coproj1, Coproj2)
_BINARY = (Compose, Union, Intersect, Difference)


def power(e: Expr, k: int) -> Expr:
    """k-fold composition: power(e, 0) = id, power(e, k) = e . power(e, k-1)."""
    if k < 0:
        raise ValueError("negative exponent")
    out: Expr = IDENTITY
    for _ in range(k):
        out = Compose(e, out)
    return out


def star(e: Expr) -> Expr:
    """Reflexive closure sugar: e* = id | e+."""
    return Union(IDENTITY, TransClosure(e))


def label_union(labels) -> Expr:
    """E sugar: the union of all labels of an alphabet (0 if it is empty)."""
    out: Expr | None = None
    for name in sorted(labels):
        atom = EdgeLabel(name)
        out = atom if out is None else Union(out, atom)
    return EMPTY if out is None else out


def _children(e: Expr) -> tuple:
    t = type(e)
    if t in _UNARY:
        return (e.child,)
    if t in _BINARY:
        return (e.left, e.right)
    return ()


def _distinct_nodes(*roots: Expr) -> list[Expr]:
    """Every node object reachable from `roots`, each once (by identity),
    children before parents.  Iterative, so depth is bounded by memory, not
    by the recursion limit; no node is hashed or compared."""
    out: list[Expr] = []
    seen: set[int] = set()
    stack: list = [(r, False) for r in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            out.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((kid, False) for kid in reversed(_children(node)))
    return out


def subexpressions(e: Expr):
    """Yield every node of the tree, parents after children."""
    stack: list = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
        else:
            stack.append((node, True))
            stack.extend((kid, False) for kid in reversed(_children(node)))


def size(e: Expr) -> int:
    """Operator count: atoms are 0, every unary or binary node adds 1.
    Shared subterms count once per occurrence."""
    count: dict[int, int] = {}
    for node in _distinct_nodes(e):
        kids = _children(node)
        count[id(node)] = 1 + sum(count[id(k)] for k in kids) if kids else 0
    return count[id(e)]


def labels_used(e: Expr) -> frozenset[str]:
    return frozenset(n.name for n in _distinct_nodes(e) if type(n) is EdgeLabel)


# ---------------------------------------------------------------------------
# fragments

FLAGS = ("di", "conv", "tc", "pi1", "pi2", "copi1", "copi2", "cap", "minus")

_FLAG_OF = {
    Diversity: "di", Converse: "conv", TransClosure: "tc",
    Proj1: "pi1", Proj2: "pi2", Coproj1: "copi1", Coproj2: "copi2",
    Intersect: "cap", Difference: "minus",
}


class FragmentError(ValueError):
    """An expression or flag set falls outside the fragment an operation handles."""


@dataclass(frozen=True)
class Fragment:
    """A set of non-basic operators.  The basic ones (0, id, labels, ., |) are free."""
    flags: frozenset[str]

    def __post_init__(self):
        bad = self.flags - set(FLAGS)
        if bad:
            raise FragmentError(f"unknown fragment flags: {sorted(bad)}")

    @classmethod
    def of(cls, *names: str) -> "Fragment":
        return cls(frozenset(names))

    def __contains__(self, flag: str) -> bool:
        return flag in self.flags

    def __iter__(self):
        return iter(sorted(self.flags, key=FLAGS.index))

    def __le__(self, other: "Fragment") -> bool:
        return self.flags <= other.flags

    def __or__(self, other: "Fragment") -> "Fragment":
        return Fragment(self.flags | other.flags)

    def __sub__(self, other: "Fragment") -> "Fragment":
        return Fragment(self.flags - other.flags)

    def __str__(self) -> str:
        return ",".join(self) if self.flags else "(basic)"


def operators_used(e: Expr) -> Fragment:
    found = {_FLAG_OF.get(type(node)) for node in _distinct_nodes(e)}
    found.discard(None)
    return Fragment(frozenset(found))


# ---------------------------------------------------------------------------
# condition depth

def condition_depth(e: Expr) -> int:
    """Projection nesting depth for expressions built from 0, id, labels,
    composition, union, transitive closure, and projections."""
    depth: dict[int, int] = {}
    for node in _distinct_nodes(e):
        t = type(node)
        if t in (Empty, Identity, EdgeLabel):
            out = 0
        elif t is TransClosure:
            out = depth[id(node.child)]
        elif t in (Proj1, Proj2):
            out = 1 + depth[id(node.child)]
        elif t in (Compose, Union):
            out = max(depth[id(node.left)], depth[id(node.right)])
        else:
            raise FragmentError(
                f"condition depth is defined on the tc/pi fragment, got {render(node)}")
        depth[id(node)] = out
    return depth[id(e)]


# ---------------------------------------------------------------------------
# concrete syntax

class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_KEYWORDS = {"id", "di", "E", "A", "conv", "pi1", "pi2", "copi1", "copi2"}
_FUNCTIONAL = {
    "conv": Converse, "pi1": Proj1, "pi2": Proj2, "copi1": Coproj1, "copi2": Coproj2,
}
_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(\d+)|(-\d+)|([|\\&.+*^()]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos and not m.group(0):
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group(1):
            tokens.append(("name", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("int", m.group(2), m.start(2)))
        elif m.group(3):
            tokens.append(("negint", m.group(3), m.start(3)))
        else:
            tokens.append(("sym", m.group(4), m.start(4)))
        pos = m.end()
        if pos == m.start():
            break
    rest = text[pos:].strip()
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, alphabet):
        self.tokens = _tokenize(text)
        self.i = 0
        self.alphabet = alphabet

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str):
        kind, value, pos = self.take()
        if kind != "sym" or value != sym:
            raise ParseError(f"expected {sym!r}", pos)

    def parse(self) -> Expr:
        e = self.union()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return e

    def union(self) -> Expr:
        e = self.difference()
        while self.peek()[:2] == ("sym", "|"):
            self.take()
            e = Union(e, self.difference())
        return e

    def difference(self) -> Expr:
        e = self.intersection()
        while self.peek()[:2] == ("sym", "\\"):
            self.take()
            e = Difference(e, self.intersection())
        return e

    def intersection(self) -> Expr:
        e = self.composition()
        while self.peek()[:2] == ("sym", "&"):
            self.take()
            e = Intersect(e, self.composition())
        return e

    def composition(self) -> Expr:
        e = self.postfix()
        while self.peek()[:2] == ("sym", "."):
            self.take()
            e = Compose(e, self.postfix())
        return e

    def postfix(self) -> Expr:
        e = self.atom()
        while True:
            kind, value, pos = self.peek()
            if (kind, value) == ("sym", "+"):
                self.take()
                e = TransClosure(e)
            elif (kind, value) == ("sym", "*"):
                self.take()
                e = star(e)
            elif (kind, value) == ("sym", "^"):
                self.take()
                kind2, value2, pos2 = self.take()
                if kind2 == "negint":
                    raise ParseError("power sugar needs a non-negative exponent", pos2)
                if kind2 != "int":
                    raise ParseError("expected an exponent", pos2)
                e = power(e, int(value2))
            else:
                return e

    def atom(self) -> Expr:
        kind, value, pos = self.take()
        if kind == "int":
            if value == "0":
                return EMPTY
            raise ParseError("the only numeric atom is 0", pos)
        if kind == "sym" and value == "(":
            e = self.union()
            self.expect_sym(")")
            return e
        if kind == "name":
            if value in _FUNCTIONAL:
                self.expect_sym("(")
                e = self.union()
                self.expect_sym(")")
                return _FUNCTIONAL[value](e)
            if value == "id":
                return IDENTITY
            if value == "di":
                return DIVERSITY
            if value == "A":
                return Union(IDENTITY, DIVERSITY)
            if value == "E":
                if self.alphabet is None:
                    raise ParseError("E needs a declared alphabet", pos)
                return label_union(self.alphabet)
            if self.peek()[:2] == ("sym", "("):
                raise ParseError(f"unknown keyword {value!r}", pos)
            return EdgeLabel(value)
        raise ParseError(f"expected an expression, got {value!r}" if value else "unexpected end of input", pos)


def parse(text: str, alphabet=None) -> Expr:
    """Parse the concrete grammar.  `alphabet` (an iterable of labels) is only
    needed when the text uses the E shorthand.  Input nested deeper than the
    interpreter's recursion limit allows raises ParseError."""
    parser = _Parser(text, alphabet)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("nesting too deep", parser.peek()[2]) from None


_PREC = {
    Union: 1, Difference: 2, Intersect: 3, Compose: 4, TransClosure: 5,
}
_BIN_SYM = {Union: "|", Difference: "\\", Intersect: "&", Compose: "."}
_FUN_SYM = {Converse: "conv", Proj1: "pi1", Proj2: "pi2", Coproj1: "copi1", Coproj2: "copi2"}


_ATOM_TEXT = {Empty: "0", Identity: "id", Diversity: "di"}


def render(e: Expr) -> str:
    """Produce concrete syntax that parses back to the same tree (no sugar).
    Each distinct node object is rendered once, children first, so deep and
    shared expressions render without recursion."""
    text: dict[int, str] = {}
    for node in _distinct_nodes(e):
        t = type(node)
        if t is EdgeLabel:
            out = node.name
        elif t in _BIN_SYM:
            p = _PREC[t]
            left, right = text[id(node.left)], text[id(node.right)]
            if _PREC.get(type(node.left), 6) < p:
                left = f"({left})"
            if _PREC.get(type(node.right), 6) <= p:
                right = f"({right})"
            out = f"{left} {_BIN_SYM[t]} {right}"
        elif t in _FUN_SYM:
            out = f"{_FUN_SYM[t]}({text[id(node.child)]})"
        elif t is TransClosure:
            out = text[id(node.child)]
            out = f"({out})+" if _PREC.get(type(node.child), 6) < 5 else out + "+"
        else:
            out = _ATOM_TEXT[t]
        text[id(node)] = out
    return text[id(e)]
