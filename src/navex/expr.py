"""Navigational expressions: syntax tree, concrete grammar, and structural metrics.

An expression denotes a binary relation over the nodes of an edge-labeled
graph.  The core syntax has thirteen constructors, those of the downward
fragments and converse; the concrete grammar adds sugar (``*``, ``^k``,
``E``) that is desugared at parse time and never stored in the tree.

Expressions are hash-consed: every constructor call, parse, copy or unpickle
returns the one live node for its expression, so equality is identity and a
shared subterm is one object however often it occurs.  Each node keeps its
operators and projection depth, fixed when it is built.  The walks here
visit each distinct subterm once, `render` emits each occurrence in time
linear in the text, and none of them recurse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
import re
import threading
import weakref

__all__ = [
    "Expr", "Empty", "Identity", "EdgeLabel", "Converse",
    "TransClosure", "Proj1", "Proj2", "Coproj1", "Coproj2", "Compose",
    "Union", "Intersect", "Difference",
    "EMPTY", "IDENTITY",
    "power", "star", "label_union",
    "ParseError", "FragmentError", "parse", "render",
    "size", "labels_used",
    "Fragment", "FLAGS", "operators_used", "condition_depth", "is_condition",
]


class _Interned(type):
    """Builds each distinct expression once.  A constructor call returns the
    live node with the same type and fields if there is one; otherwise it
    builds the node, computes its hash, flags and depth, and enters it in a
    table that holds nodes weakly, so dead nodes drop out.  The table keys a
    label by its name and any other node by its type and its children's ids,
    which hash in C: that is sound because a live node holds its children,
    so no other object can have their ids while its entry is live."""

    def __call__(cls, *fields):
        key = (cls, *fields) if cls is EdgeLabel else (cls, *map(id, fields))
        node = _TABLE.get(key)
        if node is None:
            with _TABLE_LOCK:           # no two threads build one expression
                node = _TABLE.get(key)
                if node is None:
                    names = cls.__dataclass_fields__
                    if len(fields) != len(names):
                        raise TypeError(f"{cls.__name__} takes {len(names)} "
                                        f"fields, got {len(fields)}")
                    flags, depth = _BIT.get(cls, 0), 0
                    if cls is EdgeLabel:
                        _check_label(*fields)
                    else:
                        for kid in fields:
                            flags |= kid._flags
                            depth = max(depth, kid._depth)
                    node = object.__new__(cls)
                    d = node.__dict__
                    d.update(zip(names, fields))
                    d["_h"] = hash((cls.__name__, fields))
                    d["_flags"] = flags
                    d["_depth"] = depth + (cls is Proj1 or cls is Proj2)
                    _TABLE[key] = node
        return node


_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_TABLE_LOCK = threading.Lock()


class Expr(metaclass=_Interned):
    """Base class for expression nodes.  Nodes are immutable and hash-consed:
    each distinct expression is one object, so equality is identity.  The
    hash, fixed at construction, is that of (type name, fields), on which set
    and dict order, and with them every rewrite output, depend."""

    def __hash__(self) -> int:
        return self._h

    def __reduce__(self):
        # every distinct subterm once, children first, each as its type and
        # its label name or its children's positions in the list, so that
        # pickling a deep expression does not recurse
        nodes = _distinct_nodes(self)
        slot = {id(node): i for i, node in enumerate(nodes)}
        return _rebuild, ([
            (EdgeLabel, node.name) if type(node) is EdgeLabel
            else (type(node), *[slot[id(kid)] for kid in _children(node)])
            for node in nodes],)

    def __deepcopy__(self, memo):
        return self     # its own deep copy; no walk, so deep nodes copy too

    def __repr__(self) -> str:
        return f"<{render(self)}>"


@dataclass(frozen=True, eq=False, repr=False)
class Empty(Expr):
    """The empty relation."""


@dataclass(frozen=True, eq=False, repr=False)
class Identity(Expr):
    """All pairs (n, n)."""


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


# the non-basic operators; bit i of a node's _flags is set when it uses FLAGS[i]
FLAGS = ("conv", "tc", "pi1", "pi2", "copi1", "copi2", "cap", "minus")

_FLAG_OF = {
    Converse: "conv", TransClosure: "tc",
    Proj1: "pi1", Proj2: "pi2", Coproj1: "copi1", Coproj2: "copi2",
    Intersect: "cap", Difference: "minus",
}
_BIT = {cls: 1 << FLAGS.index(flag) for cls, flag in _FLAG_OF.items()}

EMPTY = Empty()
IDENTITY = Identity()

_UNARY = (Converse, TransClosure, Proj1, Proj2, Coproj1, Coproj2)
_BINARY = (Compose, Union, Intersect, Difference)


def power(e: Expr, k: int) -> Expr:
    """k-fold composition: power(e, 0) = id, power(e, k) = e . power(e, k-1),
    built by `_compose`, so power(e, 1) is e itself."""
    if k < 0:
        raise ValueError("negative exponent")
    out: Expr = IDENTITY
    for _ in range(k):
        out = _compose(e, out)
    return out


def star(e: Expr) -> Expr:
    """Reflexive closure sugar: e* = id | e+."""
    return Union(IDENTITY, TransClosure(e))


def _union(x: Expr, y: Expr) -> Expr:
    """x | y, with 0 as its unit."""
    if x is EMPTY:
        return y
    if y is EMPTY:
        return x
    return Union(x, y)


def _compose(x: Expr, y: Expr) -> Expr:
    """x . y, with id as its unit and 0 as its zero."""
    if x is EMPTY or y is EMPTY:
        return EMPTY
    if x is IDENTITY:
        return y
    if y is IDENTITY:
        return x
    return Compose(x, y)


def label_union(labels) -> Expr:
    """E sugar: the union of all labels of an alphabet (0 if it is empty)."""
    return reduce(_union, map(EdgeLabel, sorted(labels)), EMPTY)


def _children(e: Expr) -> tuple:
    t = type(e)
    if t in _UNARY:
        return (e.child,)
    if t in _BINARY:
        return (e.left, e.right)
    return ()


def _distinct_nodes(*roots: Expr, children=_children) -> list[Expr]:
    """Every distinct subterm of `roots`, once each, children before parents.
    `children` gives the subterms to descend into.  Iterative, so depth is
    bounded by memory, not by the recursion limit."""
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
            stack.extend((kid, False) for kid in reversed(children(node)))
    return out


def _rebuild(records) -> Expr:
    """The expression `Expr.__reduce__` flattened into `records`."""
    nodes: list[Expr] = []
    for cls, *fields in records:
        nodes.append(cls(*fields) if cls is EdgeLabel else cls(*[nodes[i] for i in fields]))
    return nodes[-1]


def _fold(e: Expr, f, children=_children):
    """The value of `e`, where the value of a node is f(node, *the values of
    its children).  Each distinct subterm is valued once, children first,
    and its value is dropped once its last parent has used it, so large
    values (automata, text) do not pile up along deep expressions."""
    pairs = [(node, children(node)) for node in _distinct_nodes(e, children=children)]
    last = {id(k): node for node, kids in pairs for k in kids}     # each child's last parent
    value: dict[int, object] = {}
    for node, kids in pairs:
        value[id(node)] = f(node, *[value[id(k)] for k in kids])
        for k in kids:
            if last[id(k)] is node:
                value.pop(id(k), None)      # None: the child's second use, as in a . a
    return value[id(e)]


def size(e: Expr) -> int:
    """Operator count: atoms are 0, every unary or binary node adds 1.
    Shared subterms count once per occurrence."""
    return _fold(e, lambda node, *kids: 1 + sum(kids) if kids else 0)


def labels_used(e: Expr) -> frozenset[str]:
    return frozenset(n.name for n in _distinct_nodes(e) if type(n) is EdgeLabel)


# ---------------------------------------------------------------------------
# fragments

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


_FRAGMENTS: dict[int, Fragment] = {}   # by flag bits: at most 2^8 entries


def operators_used(e: Expr) -> Fragment:
    fragment = _FRAGMENTS.get(e._flags)
    if fragment is None:
        fragment = _FRAGMENTS[e._flags] = Fragment(frozenset(
            flag for i, flag in enumerate(FLAGS) if e._flags >> i & 1))
    return fragment


# ---------------------------------------------------------------------------
# condition depth

_DEPTH_FLAGS = _BIT[TransClosure] | _BIT[Proj1] | _BIT[Proj2]


def condition_depth(e: Expr) -> int:
    """Projection nesting depth for expressions built from 0, id, labels,
    composition, union, transitive closure, and projections."""
    if e._flags & ~_DEPTH_FLAGS:
        node = next(n for n in _distinct_nodes(e) if n._flags & ~_DEPTH_FLAGS)
        raise FragmentError(
            f"condition depth is defined on the tc/pi fragment, got {render(node)}")
    return e._depth


def is_condition(e: Expr) -> bool:
    """Conditions are the node-test expressions allowed on automaton states:
    identity, empty, projections and coprojections, and compositions of
    conditions."""
    spine = _distinct_nodes(e, children=lambda n: _children(n) if type(n) is Compose else ())
    return all(type(n) in (Compose, Identity, Empty, Proj1, Proj2, Coproj1, Coproj2)
               for n in spine)


# ---------------------------------------------------------------------------
# concrete syntax

class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_FUNCTIONAL = {
    "conv": Converse, "pi1": Proj1, "pi2": Proj2, "copi1": Coproj1, "copi2": Coproj2,
}
# the diversity relation and its sugar A = id | di, which no downward
# fragment has; without this check they would parse as edge labels
_OUTSIDE = ("di", "A")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"\s*(?:({_NAME.pattern})|(\d+)|(-\d+)|([|\\&.+*^()]))")
_KINDS = (None, "name", "int", "negint", "sym")  # by the index of the matched group


def _check_label(name) -> None:
    """Raise ValueError unless `name` is a name that parses as an edge label."""
    if (not isinstance(name, str) or not _NAME.fullmatch(name)
            or name in ("id", "E", *_OUTSIDE, *_FUNCTIONAL)):
        raise ValueError(f"{name!r} cannot be an edge label")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if rest:
                raise ParseError(f"unexpected character {rest[0]!r}", pos)
            break
        g = m.lastindex
        tokens.append((_KINDS[g], m.group(g), m.start(g)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# operator precedence, loosest first; the binary operators associate left
_PREC = {
    Union: 1, Difference: 2, Intersect: 3, Compose: 4, TransClosure: 5,
}
_BIN_SYM = {Union: "|", Difference: "\\", Intersect: "&", Compose: "."}
_OF_SYM = {sym: t for t, sym in _BIN_SYM.items()}


def _atom(tokens: list, i: int, alphabet) -> Expr:
    """The atom that token i is, when it opens no group."""
    kind, value, pos = tokens[i]
    if kind == "int":
        if value == "0":
            return EMPTY
        raise ParseError("the only numeric atom is 0", pos)
    if kind == "name":
        if value == "id":
            return IDENTITY
        if value in _OUTSIDE:
            raise ParseError(f"{value!r} is outside the downward fragments", pos)
        if value == "E":
            if alphabet is None:
                raise ParseError("E needs a declared alphabet", pos)
            try:
                return label_union(alphabet)
            except ValueError as err:     # a declared name that is no label
                raise ParseError(str(err), pos) from None
        if tokens[i + 1][:2] == ("sym", "("):
            raise ParseError(f"unknown keyword {value!r}", pos)
        return EdgeLabel(value)
    raise ParseError(f"expected an expression, got {value!r}" if value else "unexpected end of input", pos)


def parse(text: str, alphabet=None) -> Expr:
    """Parse the concrete grammar.  `alphabet` (an iterable of labels) is only
    needed when the text uses the E shorthand.  The parser keeps its own
    stacks, so nesting depth is bounded by memory, not the recursion limit."""
    tokens = _tokenize(text)
    i = 0
    operands: list[Expr] = []
    # binary operators waiting for their right operand, as (precedence,
    # constructor), and open groups, as (0, None) for "(" or (0, constructor)
    # for a functional keyword
    pending: list[tuple] = []

    def combine(precedence: int) -> None:
        while pending and pending[-1][0] >= precedence:
            right = operands.pop()
            operands[-1] = pending.pop()[1](operands[-1], right)

    while True:
        kind, value, pos = tokens[i]
        i += 1
        if (kind, value) == ("sym", "("):
            pending.append((0, None))
            continue
        if kind == "name" and value in _FUNCTIONAL:
            if tokens[i][:2] != ("sym", "("):
                raise ParseError("expected '('", tokens[i][2])
            i += 1
            pending.append((0, _FUNCTIONAL[value]))
            continue
        e = _atom(tokens, i - 1, alphabet)
        while True:     # postfix operators, then a binary one or a group's end
            kind, value, pos = tokens[i]
            if (kind, value) == ("sym", "+"):
                i += 1
                e = TransClosure(e)
            elif (kind, value) == ("sym", "*"):
                i += 1
                e = star(e)
            elif (kind, value) == ("sym", "^"):
                kind, value, pos = tokens[i + 1]
                i += 2
                if kind == "negint":
                    raise ParseError("power sugar needs a non-negative exponent", pos)
                if kind != "int":
                    raise ParseError("expected an exponent", pos)
                e = power(e, int(value))
            elif kind == "sym" and value in _OF_SYM:
                i += 1
                constructor = _OF_SYM[value]
                operands.append(e)
                combine(_PREC[constructor])
                pending.append((_PREC[constructor], constructor))
                break
            else:
                operands.append(e)
                combine(1)
                e = operands.pop()
                if not pending:
                    if kind != "end":
                        raise ParseError(f"unexpected {value!r}", pos)
                    return e
                i += 1
                if (kind, value) != ("sym", ")"):
                    raise ParseError("expected ')'", pos)
                wrap = pending.pop()[1]
                if wrap is not None:
                    e = wrap(e)


_FUN_SYM = {Converse: "conv", Proj1: "pi1", Proj2: "pi2", Coproj1: "copi1", Coproj2: "copi2"}


_ATOM_TEXT = {Empty: "0", Identity: "id"}


def render(e: Expr) -> str:
    """Produce concrete syntax that parses back to the same tree (no sugar).
    The text is emitted left to right from a stack of nodes and literal
    pieces, so deep expressions render without recursion, in time linear
    in the length of the text."""
    out: list[str] = []
    stack: list = [e]
    push, emit = stack.append, out.append
    while stack:
        node = stack.pop()
        t = type(node)
        if t is str:
            emit(node)
        elif t is EdgeLabel:
            emit(node.name)
        elif t in _BIN_SYM:
            p = _PREC[t]
            if _PREC.get(type(node.right), 6) <= p:
                stack += (")", node.right, f" {_BIN_SYM[t]} (")
            else:
                stack += (node.right, f" {_BIN_SYM[t]} ")
            if _PREC.get(type(node.left), 6) < p:
                emit("(")
                stack += (")", node.left)
            else:
                push(node.left)
        elif t in _FUN_SYM:
            emit(f"{_FUN_SYM[t]}(")
            stack += (")", node.child)
        elif t is TransClosure:
            if _PREC.get(type(node.child), 6) < 5:
                emit("(")
                stack += (")+", node.child)
            else:
                stack += ("+", node.child)
        else:
            emit(_ATOM_TEXT[t])
    return "".join(out)
