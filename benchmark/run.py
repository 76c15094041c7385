"""The navex benchmark: one closed-loop caller driving the public API.

    python3 benchmark/run.py --workload certify --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each exists):

* certify     run_pipeline(..., certify=True) over a corpus covering all
              four pipelines;
* rewrite     run_pipeline(..., certify=False) on larger inputs, then
              render the output;
* eval-large  evaluate / evaluate_boolean of originals and their rewrites
              on labeled chains and trees of 200-400 nodes.

A run makes whole passes over its inputs.  Before each pass the inputs are
set up afresh (built from the seed, parsed, graphs built), so no pass
profits from caches an earlier one filled.  The first pass warms up and
checks its results against references that do not come from the library
(reference.py); it is not timed.  Timed passes follow until their op time
reaches `--seconds`, and at least three; they must reproduce the first
pass's results exactly, and each op's time is the 90th percentile of its
times over them.  `setup_s` is the 90th percentile of the set-ups timed
through the run: the one before each timed pass and one between ops every
second.

With `--trace 1`, passes after the first alternate between untraced ones,
which measure the tracing overhead, and traced ones, with span recorders
around each layer boundary (tracing.py), which give the per-layer metrics.
The last line of output is one JSON object: `correct`, `attempted`,
`failed`, `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import corpus
import reference as ref
import tracing

ROOT = Path(__file__).resolve().parent.parent
# A pass takes 1-3 s; the first one is not timed, and at least three are.
MIN_PASSES = 3
# A set-up takes 5-80 ms.  One is timed before each timed pass and one
# between ops every SETUP_EVERY_S seconds.
SETUP_EVERY_S = 1.0
# small instances on which each rewrite is compared with its input
MEANING_GRAPHS = 24
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
ROUND_TRIP_OPS = 100_000

BOOLEAN = {"chain-projections", "tree-pi2", "unlabeled-normal-form"}
# operators a pipeline's output must not contain
FORBIDDEN = {
    "chain-projections": {"pi1", "pi2", "copi1", "copi2", "&", "\\"},
    "tree-pi2": {"pi1", "pi2", "copi1", "copi2", "&", "\\"},
    "tree-set-operations": {"&", "\\"},
    "unlabeled-normal-form": {"conv", "tc", "pi1", "pi2", "copi1", "copi2",
                              "|", "&", "\\", "di"},
}


def load_api():
    """Import navex from this checkout's src/, or stop without a result."""
    src = ROOT / "src"
    if not (src / "navex").is_dir():
        sys.exit(f"benchmark: no navex package under {src}")
    sys.path.insert(0, str(src))
    from navex import evaluate, expr, graphs, rewrite
    if not Path(rewrite.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"benchmark: navex was imported from {rewrite.__file__}, not {src}")
    return SimpleNamespace(
        parse=expr.parse, render=expr.render, run_pipeline=rewrite.run_pipeline,
        evaluate=evaluate.evaluate, evaluate_boolean=evaluate.evaluate_boolean,
        path_equivalent=evaluate.path_equivalent,
        boolean_equivalent=evaluate.boolean_equivalent, Graph=graphs.Graph)


# ---------------------------------------------------------------------------
# checks shared by the rewriting workloads

def check_rewrite(item, out_tree, rng) -> list[str]:
    """Independent checks of one rewrite: the output avoids the operators
    the pipeline removes, and agrees with the input on MEANING_GRAPHS small
    chains or trees whose edges spell the input's own label words (or, for
    the unlabeled collapse, has the hand-derived power)."""
    problems = []
    bad = ref.operators_in(out_tree) & FORBIDDEN[item.pipeline]
    if bad:
        problems.append(f"output still uses {sorted(bad)}")
    if item.pipeline == "unlabeled-normal-form":
        want = {item.power} if item.power is not None else set()
        got = set(ref.distance_set(out_tree, corpus.HORIZON))
        if got != want:
            problems.append(f"normal form relates distances {sorted(got)[:5]}, "
                            f"expected {sorted(want)}")
        return problems
    words = corpus.label_words(item.tree)
    chain = item.pipeline == "chain-projections"
    semantics = "boolean" if item.pipeline in BOOLEAN else "path"
    for _ in range(MEANING_GRAPHS):
        nodes, edges = corpus.word_instance(rng, words, chain, 10 if chain else 9)
        if ref.differ(item.tree, out_tree, nodes, edges, semantics):
            problems.append(f"output differs from input on {edges}")
            break
    return problems


def round_trip(api, text, out_tree, totals) -> list[str]:
    """Parse rendered output back (timed, for the parser's token rate) and
    compare it with the output it came from.  Outputs of more than
    ROUND_TRIP_OPS operators are left out: parsing one of 300,000 operators
    back and comparing the unshared tree takes about 7 s, longer than the
    ops of a whole pass."""
    if ref.tree_and_dag_ops(out_tree)[0] > ROUND_TRIP_OPS:
        return []
    start = time.perf_counter()
    back = api.parse(text)
    totals.parse_s += time.perf_counter() - start
    totals.parse_tokens += ref.count_tokens(text)
    if not ref.same_structure(ref.from_library(back), out_tree):
        return ["rendered output does not parse back to itself"]
    return []


# ---------------------------------------------------------------------------
# workloads: set-up, the ops of one pass, and the checks
#
# Set-up runs before every pass, so that each pass gets freshly parsed
# expressions and fresh graph objects and no pass finds caches an earlier
# one filled (hash caches on expression nodes, a graph's edge_map).

class Workload:
    """What the loop needs from a workload; the checks default to none."""
    name = ""

    def setup(self, api, seed):
        raise NotImplementedError

    def ops(self, api, state):
        """[(op key, callable)] for one pass."""
        raise NotImplementedError

    def fingerprint(self, api, key, result):
        """A value later passes must reproduce exactly."""
        raise NotImplementedError

    def outputs(self, api, state, totals):
        """Count rewritten outputs that exist before any op runs."""

    def run_checks(self, api, state, totals) -> list[str]:
        """Checks made once per run, outside the ops."""
        return []

    def check(self, api, state, key, result, rng, totals) -> list[str]:
        """Checks of one result of the first pass."""
        return []

    def check_pass(self, state, results) -> list[tuple]:
        """Checks across the results of the first pass: [(op key, problem)]."""
        return []


class Certify(Workload):
    name = "certify"

    def setup(self, api, seed):
        items = corpus.certify_corpus(seed)
        return SimpleNamespace(items=items, seed=seed,
                               exprs=[api.parse(item.text) for item in items],
                               controls=corpus.negative_controls(seed),
                               probe=corpus.unlabeled_probe(seed))

    def ops(self, api, state):
        return [(i, lambda p=item.pipeline, e=e, n=item.max_nodes:
                 api.run_pipeline(p, e, certify=True, max_nodes=n))
                for i, (item, e) in enumerate(zip(state.items, state.exprs))]

    def fingerprint(self, api, key, report):
        v = report.verdict
        return (v.equivalent, v.checked, api.render(report.result))

    def check(self, api, state, key, report, rng, totals):
        item = state.items[key]
        out = ref.from_library(report.result)
        totals.add_output(out)
        totals.instances += report.verdict.checked
        problems = check_rewrite(item, out, rng)
        problems += round_trip(api, api.render(report.result), out, totals)
        if not report.verdict:
            problems.append("the oracle rejected the rewrite")
        return problems

    def run_checks(self, api, state, totals):
        """Negative controls: inequivalent pairs the oracle must separate,
        with a witness the reference evaluator confirms.  Then the
        unlabeled probe, untimed: each of its ops that raises counts in
        `failed_share`, and each result is checked like a timed one."""
        problems = []
        rng = random.Random(state.seed)
        for item in state.probe:
            totals.probe_attempted += 1
            try:
                report = api.run_pipeline(item.pipeline, api.parse(item.text), certify=True)
            except Exception as exc:  # the known defect; counted, not fatal
                totals.probe_failed += 1
                totals.probe_errors.add(type(exc).__name__)
                continue
            problems += check_rewrite(item, ref.from_library(report.result), rng)
            if not report.verdict:
                problems.append(f"the oracle rejected the rewrite of {item.text}")
        for semantics, graph_class, t1, t2 in state.controls:
            check = api.boolean_equivalent if semantics == "boolean" else api.path_equivalent
            v = check(api.parse(ref.text_of(t1)), api.parse(ref.text_of(t2)), graph_class)
            w = v.witness
            if v.equivalent or w is None:
                problems.append(f"control {ref.text_of(t1)} vs {ref.text_of(t2)} "
                                "was not separated")
            elif not ref.differ(t1, t2, w.nodes, w.edges, semantics):
                problems.append(f"witness for {ref.text_of(t1)} does not separate")
        return problems


class Rewrite(Workload):
    name = "rewrite"

    def setup(self, api, seed):
        items = corpus.rewrite_corpus(seed)
        return SimpleNamespace(items=items, seed=seed,
                               exprs=[api.parse(item.text) for item in items])

    def ops(self, api, state):
        def op(p, e):
            report = api.run_pipeline(p, e, certify=False)
            return report, api.render(report.result)
        return [(i, lambda p=item.pipeline, e=e: op(p, e))
                for i, (item, e) in enumerate(zip(state.items, state.exprs))]

    def fingerprint(self, api, key, result):
        return result[1]

    def check(self, api, state, key, result, rng, totals):
        report, text = result
        item = state.items[key]
        out = ref.from_library(report.result)
        totals.add_output(out)
        return check_rewrite(item, out, rng) + round_trip(api, text, out, totals)


class EvalLarge(Workload):
    name = "eval-large"

    def setup(self, api, seed):
        sources = []
        for item in corpus.eval_large_sources():
            report = api.run_pipeline(item.pipeline, api.parse(item.text), certify=False)
            sources.append((item, report.result))
        graphs = [(g, api.Graph.build(g.nodes, g.labels, g.edges))
                  for g in corpus.big_graphs(seed)]
        closed = corpus.closed_forms()
        specs = []  # (op key, expression, graph, path semantics?)
        for s, (item, out) in enumerate(sources):
            for gi, (g, graph) in enumerate(graphs):
                if g.unlabeled or (item.pipeline == "chain-projections" and not g.chain):
                    continue
                path = item.pipeline not in BOOLEAN
                specs.append((("orig", s, gi), api.parse(item.text), graph, path))
                specs.append((("out", s, gi), out, graph, path))
        for c, (tree, _) in enumerate(closed):
            e = api.parse(ref.text_of(tree))
            specs += [(("closed", c, gi), e, graph, True)
                      for gi, (g, graph) in enumerate(graphs) if g.unlabeled]
        return SimpleNamespace(sources=sources, graphs=graphs, specs=specs,
                               closed=closed, seed=seed)

    def outputs(self, api, state, totals):
        for _, out in state.sources:
            totals.add_output(ref.from_library(out))

    def ops(self, api, state):
        return [(key, lambda fn=api.evaluate if path else api.evaluate_boolean, e=e, g=g:
                 fn(e, g)) for key, e, g, path in state.specs]

    def fingerprint(self, api, key, result):
        return (len(result), hash(result)) if isinstance(result, frozenset) else result

    def run_checks(self, api, state, totals):
        problems = []
        for item, out in state.sources:
            tree = ref.from_library(out)
            problems += check_rewrite(item, tree, random.Random(state.seed))
            problems += round_trip(api, api.render(out), tree, totals)
        return problems

    def check_pass(self, state, results):
        """Originals and rewrites agree on every big graph; closed forms
        give their hand-derived pair counts."""
        problems = []
        for (kind, idx, gi), result in results.items():
            graph = state.graphs[gi][0]
            if kind == "out":
                orig = results.get(("orig", idx, gi))
                if orig is not None and orig != result:
                    problems.append(((kind, idx, gi), f"rewrite of source {idx} "
                                     f"disagrees with it on {graph.name}"))
            elif kind == "closed":
                want = state.closed[idx][1](len(graph.nodes))
                if len(result) != want:
                    problems.append(((kind, idx, gi), f"closed form {idx} gives "
                                     f"{len(result)} pairs on {graph.name}, "
                                     f"expected {want}"))
        return problems


WORKLOADS = {w.name: w for w in (Certify(), Rewrite(), EvalLarge())}


# ---------------------------------------------------------------------------
# the loop

class Totals:
    def __init__(self):
        self.output_ops = 0
        self.output_distinct_ops = 0
        self.instances = 0
        self.parse_tokens = 0
        self.parse_s = 0.0
        self.probe_attempted = 0
        self.probe_failed = 0
        self.probe_errors: set[str] = set()

    def add_output(self, out_tree):
        tree, dag = ref.tree_and_dag_ops(out_tree)
        self.output_ops += tree
        self.output_distinct_ops += dag


def run_pass(api, workload, state, tracer, first, expected, totals, rng, log,
             between=lambda: None):
    """One pass over the workload's ops, calling `between` before each.
    Returns ({op key: seconds}, failed, wrong)."""
    durations, failed, wrong = {}, 0, 0
    results = {}
    for key, op in workload.ops(api, state):
        between()
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result = op()
        except Exception:  # a failed op is counted and reported, the run goes on
            durations[key] = time.perf_counter() - start
            failed += 1
            log(f"op {key} failed:\n{traceback.format_exc()}")
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        durations[key] = time.perf_counter() - start
        results[key] = result
        if first:
            expected[key] = workload.fingerprint(api, key, result)
            problems = workload.check(api, state, key, result, rng, totals)
        else:
            same = workload.fingerprint(api, key, result) == expected.get(key)
            problems = [] if same else ["result differs from the first pass"]
        for p in problems:
            log(f"wrong result for op {key}: {p}")
        wrong += bool(problems)
    if first:
        for key, p in workload.check_pass(state, results):
            log(f"wrong result for op {key}: {p}")
            wrong += 1
    return durations, failed, wrong


class SetupClock:
    """Times the set-up before each timed pass, and one more between ops
    every SETUP_EVERY_S seconds; `setup_s` is their 90th percentile."""

    def __init__(self, api, workload, seed):
        self.api, self.workload, self.seed = api, workload, seed
        self.samples: list[float] = []
        self.last = 0.0

    def setup(self):
        start = time.perf_counter()
        state = self.workload.setup(self.api, self.seed)
        self.last = time.perf_counter()
        self.samples.append(self.last - start)
        return state

    def tick(self):
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.setup()

    def seconds(self):
        return op_time(self.samples)


def op_time(seconds):
    """An op's time from its samples over the timed passes: their 90th
    percentile.  Other tenants of the machine switch it between a fully
    contended state and a faster one, each lasting from a fraction of a
    second to minutes.  The contended state is steady from run to run; how
    much of a run the faster one takes is not.  Over five minutes of
    `rewrite` passes cut into 25-second windows, the spread of the
    windows' 90th percentiles was 0.10, that of their means 0.18, of their
    medians 0.22 and of their minima 0.31."""
    if len(seconds) == 1:
        return seconds[0]
    return statistics.quantiles(seconds, n=10, method="inclusive")[8]


def tail(durations):
    """The highest percentile of the ladder with at least ten samples
    beyond it: (percentile, value, samples beyond)."""
    ordered = sorted(durations)
    n = len(ordered)
    pct = next((p for p in TAIL_LADDER if n - int(n * p / 100) - 1 >= 10), 50)
    idx = min(n - 1, int(n * pct / 100))
    return pct, ordered[idx], n - idx - 1


def metadata():
    src = ROOT / "src"
    lines = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    # the ceiling keeps git from finding a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"python": platform.python_version(), "git_sha": sha,
            "nproc": os.cpu_count(), "src_lines": lines}


def per_layer(tracer, ops, op_seconds, untraced_per_op, totals):
    stats, counts, maxima = tracer.stats, tracer.counts, tracer.maxima

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def total_s(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    per_op = max(ops, 1)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name, metric in (
            ("evaluate.oracle", "evaluate.oracle_s"),
            ("evaluate.ctx", "evaluate.ctx_s"),
            ("evaluate.compose", "evaluate.compose_s"),
            ("evaluate.closure", "evaluate.closure_s"),
            ("evaluate.transpose", "evaluate.transpose_s"),
            ("evaluate.eval", "evaluate.eval_s"),
            ("graphs.instances", "graphs.instances_s"),
            ("graphs.chain_graph", "graphs.chain_graph_s"),
            ("expr.operators_used", "expr.operators_used_s"),
            ("expr.render", "expr.render_s"),
            ("expr.labels_used", "expr.labels_used_s"),
            ("automata.build", "automata.build_s"),
            ("rewrite.remove_projection_step", "rewrite.remove_projection_step_s"),
            ("rewrite.normalize_unlabeled_boolean", "rewrite.normalize_unlabeled_s"),
            ("rewrite.run_pipeline", "rewrite.run_pipeline_s")):
        put(metric, self_s(name) / per_op, "s")
    for fn in ("expr_to_automaton", "remove_identity_transitions", "intersect_automata",
               "difference_automata", "trim_automaton", "automaton_to_expr",
               "compose_automata", "union_automata", "plus_automaton", "renumber_states"):
        put(f"constructions.{fn}_s", self_s(f"constructions.{fn}") / per_op, "s")
    certify_s = total_s("evaluate.oracle")
    put("rewrite.certify_s", certify_s / per_op, "s")
    put("rewrite.rewrite_s", (total_s("rewrite.run_pipeline") - certify_s) / per_op, "s")
    put("rewrite.projection_rounds",
        stats.get("rewrite.remove_projection_step", [0])[0] / per_op, "count")
    put("evaluate.mask_of_calls", counts.get("evaluate.mask_of_calls", 0) / per_op, "count")
    put("graphs.instances_count", counts.get("graphs.instances_count", 0) / per_op, "count")
    put("rewrite.oracle_instances_per_s",
        counts.get("graphs.instances_count", 0) / certify_s if certify_s else 0.0, "1/s")
    put("expr.parse_tokens_per_s",
        totals.parse_tokens / totals.parse_s if totals.parse_s else 0.0, "1/s")
    put("automata.states_max", maxima.get("automata.states_max", 0), "count")
    put("automata.transitions_max", maxima.get("automata.transitions_max", 0), "count")
    layers = {}
    for name, (_, _, own) in stats.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    for layer in ("evaluate", "graphs", "expr", "automata", "constructions", "rewrite"):
        put(f"layer.{layer}_share", layers.get(layer, 0.0) / op_seconds if op_seconds else 0.0,
            "share")
    put("layer.benchmark_share",
        1 - sum(layers.values()) / op_seconds if op_seconds else 0.0, "share")
    traced_per_op = op_seconds / per_op
    put("trace.overhead_share",
        traced_per_op / untraced_per_op - 1 if untraced_per_op else 0.0, "share")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api = load_api()
    workload = WORKLOADS[args.workload]
    log = lambda msg: print(msg, flush=True)  # noqa: E731

    rng = random.Random(args.seed)
    totals = Totals()
    expected: dict = {}
    samples: dict = {}      # op key -> seconds, one per timed untraced pass
    attempted = failed = wrong = passes = timed_passes = 0
    tracer = tracing.Tracer() if args.trace else None
    traced = [0.0, 0]       # trace run: seconds and ops of the traced passes
    # the first set-up runs cold (first imports, the shape catalogue), so it
    # is left out of `setup_s`
    state = workload.setup(api, args.seed)
    clock = SetupClock(api, workload, args.seed)
    workload.outputs(api, state, totals)
    problems = workload.run_checks(api, state, totals)
    for p in problems:
        log(f"wrong result: {p}")
    wrong += len(problems)
    measured = 0.0

    def enough():
        if tracer is not None:
            return timed_passes >= 1 and traced[1] > 0
        return timed_passes >= MIN_PASSES

    while not enough() or measured < args.seconds:
        if passes > 0:
            state = clock.setup()
        # a trace run alternates untraced and traced passes after the first,
        # so the overhead is measured against passes run at the same time
        tracing_pass = tracer is not None and passes > 0 and passes % 2 == 0
        undo = tracing.install(tracer, api) if tracing_pass else []
        try:
            d, f, w = run_pass(api, workload, state, tracer if tracing_pass else None,
                               passes == 0, expected, totals, rng, log,
                               (lambda: None) if tracing_pass else clock.tick)
        finally:
            tracing.uninstall(undo)
        attempted, failed, wrong = attempted + len(d), failed + f, wrong + w
        passes += 1
        if passes == 1:
            continue    # the first pass checks the results and warms up
        measured += sum(d.values())
        if tracing_pass:
            traced[0] += sum(d.values())
            traced[1] += len(d)
            continue
        timed_passes += 1
        for key, seconds in d.items():
            samples.setdefault(key, []).append(seconds)

    per_op = [op_time(v) for v in samples.values()]
    pct, tail_s, beyond = tail(per_op)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_to_end = {
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_tail_s": (tail_s, "s"),
        "output_ops": (totals.output_ops, "count"),
        "output_distinct_ops": (totals.output_distinct_ops, "count"),
        "setup_s": (clock.seconds(), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    extra = {
        "op_tail_percentile": (pct, "%"),
        "op_tail_beyond": (beyond, "count"),
        "ops_per_pass": (len(per_op), "count"),
        "timed_passes": (timed_passes, "count"),
        "wrong_results": (wrong, "count"),
        "failed_share": ((failed + totals.probe_failed)
                         / max(attempted + totals.probe_attempted, 1), "share"),
    }
    if totals.probe_attempted:
        extra["probe_failed"] = (totals.probe_failed, "count")
        extra["probe_attempted"] = (totals.probe_attempted, "count")
    if args.workload == "certify" and not tracer:
        extra["instances_per_s"] = (totals.instances / sum(per_op), "1/s")
    meta = metadata()
    meta.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(f"meta {json.dumps(meta, sort_keys=True)}")
    if totals.probe_failed:
        print(f"unlabeled probe: {totals.probe_failed} of {totals.probe_attempted} "
              f"ops raised {', '.join(sorted(totals.probe_errors))} (known defect, "
              "see README.md)")
    for name, (value, unit) in {**end_to_end, **extra}.items():
        print(f"{name:24s} {value:>16.6g} {unit}")

    if tracer is not None:
        untraced_per_op = (sum(map(sum, samples.values()))
                           / sum(map(len, samples.values())))
        metrics = per_layer(tracer, traced[1], traced[0], untraced_per_op, totals)
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{args.workload}-seed{args.seed}.jsonl", meta)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
