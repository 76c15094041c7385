"""Condition automata: finite automata whose states carry node conditions.

A condition automaton has six parts: states, alphabet, initials, finals,
transitions and state_conditions.  Transitions are labeled with edge labels
or with the reserved identity label; a state's conditions restrict at which
graph nodes the state can hold.  The paper's condition set C is derived: it
is the set of conditions attached to some state.  Evaluated on a graph, an
automaton accepts a node pair (m, n) when some run over satisfied states
leads from an initial state at m to a final state at n.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce

from .expr import Expr, IDENTITY, _compose, is_condition, render
from .graphs import ID

__all__ = [
    "ID", "AutomatonError", "ConditionAutomaton", "state_key",
    "state_condition_expr",
]


class _cached:
    """A derived attribute, computed on first access and stored in the
    instance `__dict__`, where later look-ups find it before this non-data
    descriptor.  Unlike `functools.cached_property` before Python 3.12, it
    takes no lock: two threads may both compute it, to equal values."""

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class AutomatonError(ValueError):
    """The automaton violates a structural invariant."""


def state_key(s):
    """A total order on the mixed values used as automaton states: strings,
    ints, expressions, tuples, frozensets, and opaque markers."""
    if isinstance(s, tuple):        # the composite states, tested first
        return ("t", tuple(map(state_key, s)))
    if isinstance(s, frozenset):
        return ("f", tuple(sorted(map(state_key, s))))
    if isinstance(s, bool):
        return ("b", str(s))
    if isinstance(s, int):
        return ("i", s)
    if isinstance(s, str):
        return ("s", s)
    if isinstance(s, Expr):
        return ("e", render(s))
    return ("r", repr(s))


@dataclass(frozen=True)
class ConditionAutomaton:
    states: frozenset
    alphabet: frozenset[str]
    initials: frozenset
    finals: frozenset
    transitions: frozenset[tuple]
    state_conditions: frozenset[tuple]

    def __post_init__(self):
        if ID in self.alphabet:
            raise AutomatonError(f"alphabet must not contain the reserved label {ID!r}")
        if not self.initials <= self.states or not self.finals <= self.states:
            raise AutomatonError("initial and final states must be states")
        for src, lab, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise AutomatonError("transition endpoint is not a state")
            if lab != ID and lab not in self.alphabet:
                raise AutomatonError(f"transition label {lab!r} is not in the alphabet")
        for q, _ in self.state_conditions:
            if q not in self.states:
                raise AutomatonError("condition attached to a non-state")
        for c in self.conditions:
            if not is_condition(c):
                raise AutomatonError(f"{render(c)} is not a condition expression")

    @classmethod
    def build(cls, states, alphabet, initials, finals,
              transitions, state_conditions, *,
              check: bool = True) -> "ConditionAutomaton":
        """An automaton over the given parts, validated unless `check` is
        false.  The constructions pass check=False: they build from parts
        that already satisfy the invariants, with transitions and state
        conditions given as tuples."""
        if check:
            return cls(frozenset(states), frozenset(alphabet),
                       frozenset(initials), frozenset(finals),
                       frozenset(tuple(t) for t in transitions),
                       frozenset(tuple(sc) for sc in state_conditions))
        a = object.__new__(cls)
        for name, part in zip(_FIELDS, (states, alphabet, initials, finals,
                                        transitions, state_conditions)):
            object.__setattr__(a, name, frozenset(part))
        return a

    @_cached
    def conditions(self) -> frozenset[Expr]:
        """The condition set C: every condition attached to some state."""
        return frozenset(c for _, c in self.state_conditions)

    @_cached
    def gamma(self) -> dict:
        out: dict = {q: set() for q in self.states}
        for q, c in self.state_conditions:
            out[q].add(c)
        return {q: frozenset(cs) for q, cs in out.items()}

    @_cached
    def successors(self) -> dict:
        """Each state's outgoing (label, target) pairs, in no specified
        order: every reader collects them into a set or counts them."""
        out: dict = {q: [] for q in self.states}
        for src, lab, dst in self.transitions:
            out[src].append((lab, dst))
        return {q: tuple(pairs) for q, pairs in out.items()}

    @_cached
    def moves(self) -> dict:
        """{(state, label): targets} over the transitions; a pair without
        transitions is absent."""
        out: dict = {}
        for src, lab, dst in self.transitions:
            out.setdefault((src, lab), set()).add(dst)
        return {key: frozenset(targets) for key, targets in out.items()}

    @_cached
    def ordered_states(self) -> tuple:
        return tuple(sorted(self.states, key=state_key))

    @property
    def identity_free(self) -> bool:
        return all(lab != ID for _, lab, _ in self.transitions)


_FIELDS = tuple(f.name for f in fields(ConditionAutomaton))


def state_condition_expr(a: ConditionAutomaton, q) -> Expr:
    """The composition of a state's conditions, in a fixed order; the
    identity when the state has none."""
    return reduce(_compose, sorted(a.gamma[q], key=render), IDENTITY)
