"""Span recording around the library's layer boundaries, from outside.

`install` replaces the public functions each calling module imported from
another layer with wrappers that time the call, so a span's self time is
its duration minus the time of the spans it caused.  Evaluator operations
are traced through an `EvalContext` subclass put in place of the class in
`navex.evaluate`, and the oracle's instance stream through a wrapped
iterator.  Nothing under `src/` is edited; `uninstall` puts every original
back.

Wrappers record only while `Tracer.active` is set, which the benchmark does
around each timed op.  Fine-grained spans (evaluator operations, instance
steps, automaton builds) are aggregated; the rest are also kept as span
records and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time

# module -> [(attribute as that module imported it, span name)]
_WRAPPED = {
    "navex.rewrite": [
        ("remove_projection_step", "rewrite.remove_projection_step"),
        ("normalize_unlabeled_boolean", "rewrite.normalize_unlabeled_boolean"),
        ("path_equivalent", "evaluate.oracle"),
        ("boolean_equivalent", "evaluate.oracle"),
        ("evaluate_boolean", "evaluate.eval"),
        ("chain_graph", "graphs.chain_graph"),
        ("operators_used", "expr.operators_used"),
        ("labels_used", "expr.labels_used"),
        ("render", "expr.render"),
        ("expr_to_automaton", "constructions.expr_to_automaton"),
        ("remove_identity_transitions", "constructions.remove_identity_transitions"),
        ("intersect_automata", "constructions.intersect_automata"),
        ("difference_automata", "constructions.difference_automata"),
        ("trim_automaton", "constructions.trim_automaton"),
        ("automaton_to_expr", "constructions.automaton_to_expr"),
        ("compose_automata", "constructions.compose_automata"),
        ("union_automata", "constructions.union_automata"),
        ("plus_automaton", "constructions.plus_automaton"),
        ("renumber_states", "constructions.renumber_states"),
    ],
    "navex.constructions": [
        ("operators_used", "expr.operators_used"),
        ("labels_used", "expr.labels_used"),
        ("render", "expr.render"),
    ],
    "navex.evaluate": [
        ("labels_used", "expr.labels_used"),
    ],
}

FINE = frozenset({
    "evaluate.ctx", "evaluate.compose", "evaluate.closure", "evaluate.transpose",
    "graphs.instances", "automata.build", "expr.render", "expr.labels_used",
})
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {}      # name -> [calls, total s, self s]
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.spans: list[tuple] = []          # (id, parent id, name, start, end)
        self.dropped = 0
        self._stack: list[list] = []          # [child seconds, span id]
        self._next_id = 0

    def call(self, name, fn, args, kwargs=None):
        if not self.active:
            return fn(*args, **(kwargs or {}))
        parent = self._stack[-1][1] if self._stack else None
        span_id = None
        if name not in FINE:
            span_id = self._next_id = self._next_id + 1
        frame = [0.0, span_id if span_id is not None else parent]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self._stack.pop()
            took = end - start
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += took
            st[2] += took - frame[0]
            if self._stack:
                self._stack[-1][0] += took
            if span_id is not None:
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent, name, start, end))
                else:
                    self.dropped += 1

    def count(self, name):
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + 1

    def high(self, name, value):
        if self.active and value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def write(self, path, meta):
        with open(path, "w") as f:
            f.write(json.dumps({"meta": meta, "dropped_spans": self.dropped,
                                "stats": self.stats, "counts": self.counts,
                                "maxima": self.maxima}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _observe_automaton(tracer, result):
    if hasattr(result, "transitions") and hasattr(result, "states"):
        tracer.high("automata.states_max", len(result.states))
        tracer.high("automata.transitions_max", len(result.transitions))


def _wrapper(tracer, name, fn):
    observe = name.startswith("constructions.")

    def wrapped(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if observe:
            _observe_automaton(tracer, result)
        return result
    return wrapped


class _Steps:
    """The oracle's instance stream with each `next()` timed and counted."""

    def __init__(self, tracer, it):
        self.tracer, self.it = tracer, iter(it)

    def __iter__(self):
        return self

    def __next__(self):
        g = self.tracer.call("graphs.instances", next, (self.it,))
        self.tracer.count("graphs.instances_count")
        return g


def install(tracer, api):
    """Wrap the layer boundaries; return an undo list for `uninstall`."""
    undo = []

    def put(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                     else getattr(owner, attr)))
        setattr(owner, attr, value)

    for mod_name, entries in _WRAPPED.items():
        mod = importlib.import_module(mod_name)
        for attr, name in entries:
            put(mod, attr, _wrapper(tracer, name, getattr(mod, attr)))

    for attr, name in (("run_pipeline", "rewrite.run_pipeline"),
                       ("evaluate", "evaluate.eval"),
                       ("evaluate_boolean", "evaluate.eval"),
                       ("render", "expr.render")):
        put(api, attr, _wrapper(tracer, name, getattr(api, attr)))

    evaluate_mod = importlib.import_module("navex.evaluate")
    base = evaluate_mod.EvalContext

    class TracedContext(base):
        def __init__(self, graph):
            tracer.call("evaluate.ctx", base.__init__, (self, graph))

        def compose_masks(self, a, b):
            return tracer.call("evaluate.compose", base.compose_masks, (self, a, b))

        def closure_mask(self, a):
            return tracer.call("evaluate.closure", base.closure_mask, (self, a))

        def transpose_mask(self, a):
            return tracer.call("evaluate.transpose", base.transpose_mask, (self, a))

        def mask_of(self, e):
            tracer.count("evaluate.mask_of_calls")
            return base.mask_of(self, e)

    put(evaluate_mod, "EvalContext", TracedContext)
    instances = evaluate_mod.instances
    put(evaluate_mod, "instances",
        lambda *a, **k: _Steps(tracer, instances(*a, **k)))

    automaton = importlib.import_module("navex.automata").ConditionAutomaton
    build = automaton.__dict__["build"].__func__
    put(automaton, "build", classmethod(
        lambda cls, *a, **k: tracer.call("automata.build", build, (cls,) + a, k)))
    return undo


def uninstall(undo):
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)
