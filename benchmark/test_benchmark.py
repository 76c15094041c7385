"""Smoke test of the benchmark at tiny sizes, with no timing gates.

    python3 -m pytest benchmark -q

It runs every workload end to end on a shrunken corpus, untraced and
traced, checks that the references catch wrong outputs, and that the
benchmark refuses to report without the library.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FULL_SOURCES = corpus.eval_large_sources


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few cheap inputs and small graphs."""
    full_certify, full_rewrite = corpus.certify_corpus, corpus.rewrite_corpus

    def certify(seed):
        items = full_certify(seed)
        cheap = [i for i in items if i.pipeline == "unlabeled-normal-form"][:3]
        for pipeline in ("chain-projections", "tree-pi2", "tree-set-operations"):
            cheap += [i for i in items if i.pipeline == pipeline and i.slice == "generated"][:2]
        return cheap

    def rewrite(seed):
        return [i for i in full_rewrite(seed) if i.pipeline != "tree-set-operations"][:4] \
            + [i for i in full_rewrite(seed) if i.slice == "generated"][:1]

    monkeypatch.setattr(corpus, "certify_corpus", certify)
    monkeypatch.setattr(corpus, "rewrite_corpus", rewrite)
    monkeypatch.setattr(corpus, "LABELED_CHAIN_SIZES", (12,))
    monkeypatch.setattr(corpus, "TREE_SIZES", (15,))
    monkeypatch.setattr(corpus, "UNLABELED_CHAIN_SIZES", (25,))
    monkeypatch.setattr(corpus, "eval_large_sources", lambda: FULL_SOURCES()[:2])


def result_of(capsys, *args):
    run.main(list(args))
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(tiny, capsys, workload):
    lines, result = result_of(capsys, "--workload", workload, "--seed", "3",
                              "--seconds", "0", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert any(line.startswith("wrong_results") for line in lines)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer_and_restores_the_library(tiny, capsys, workload):
    from navex import evaluate, rewrite
    before = (evaluate.EvalContext, evaluate.instances, rewrite.operators_used)
    _, result = result_of(capsys, "--workload", workload, "--seed", "3",
                          "--seconds", "0", "--trace", "1")
    assert (evaluate.EvalContext, evaluate.instances, rewrite.operators_used) == before
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    share = {k: v["value"] for k, v in metrics.items() if k.startswith("layer.")}
    if workload == "rewrite":
        assert share["layer.evaluate_share"] == 0 and share["layer.graphs_share"] == 0
    else:
        assert share["layer.evaluate_share"] > 0.5
    assert (ROOT / ".bench_trace" / f"{workload}-seed3.jsonl").is_file()


def test_references_match_hand_derived_facts():
    a = corpus.lab("a")
    for n in (1, 5, 30):
        chain = (list(range(n)), [(i, "a", i + 1) for i in range(n - 1)])
        assert len(ref.relation(corpus.pw(a, 3), *chain)) == max(n - 3, 0)
        assert len(ref.relation(corpus.plus(a), *chain)) == n * (n - 1) // 2
        for tree, count in corpus.closed_forms():
            if n > 17:
                assert len(ref.relation(tree, *chain)) == count(n)
    t = corpus.cap(corpus.plus(corpus.pw(a, 3)), corpus.plus(corpus.pw(a, 7)))
    assert min(ref.distance_set(t, corpus.HORIZON)) == 21


def test_checks_catch_wrong_outputs():
    rng = random.Random(0)
    a, b = corpus.lab("a"), corpus.lab("b")
    item = corpus.Item("tree-set-operations", corpus.cap(corpus.plus(a), b), "hand")
    assert run.check_rewrite(item, item.tree, rng)             # still uses &
    assert run.check_rewrite(item, corpus.plus(a), rng)        # a+ is not a+ & b
    assert not run.check_rewrite(item, ("empty",), rng)       # one label per tree edge
    unlabeled = corpus.distance_item(rng, tree=corpus.pw(a, 4))
    assert unlabeled.power == 4
    assert run.check_rewrite(unlabeled, corpus.pw(a, 3), rng)
    assert not run.check_rewrite(unlabeled, corpus.pw(a, 4), rng)


def relabel(t, swap):
    """t with its labels renamed by `swap`, keeping shared subterms shared."""
    new = {}
    for node in ref.postorder(t):
        if node[0] == "lab":
            new[id(node)] = ("lab", swap.get(node[1], node[1]))
        elif node[0] in ref.LEAVES:
            new[id(node)] = node
        else:
            new[id(node)] = (node[0],) + tuple(new[id(c)] for c in node[1:])
    return new[id(t)]


def test_a_corrupted_rewrite_of_a_four_label_difference_is_caught():
    a, b, c, d = (corpus.lab(x) for x in "abcd")
    item = corpus.Item("tree-set-operations",
                       corpus.minus(corpus.plus(corpus.alt(a, b, c, d)),
                                    corpus.plus(corpus.dot(a, b, c, d))), "hand")
    api = run.load_api()
    report = api.run_pipeline(item.pipeline, api.parse(item.text), certify=False)
    out = ref.from_library(report.result)
    assert not run.check_rewrite(item, out, random.Random(0))
    # the rewrite of (a|b|c|d)+ \ (a.b.d.c)+: no & or \ left, and it differs
    # from the input only on paths that repeat a.b.c.d or a.b.d.c
    wrong = relabel(out, {"c": "d", "d": "c"})
    assert run.check_rewrite(item, wrong, random.Random(0))


def test_unlabeled_probe_counts_the_ops_that_raise():
    api = run.load_api()
    probe = corpus.unlabeled_probe(1)
    assert {label for item in probe for label in ref.labels_in(item.tree)} - {"a"}
    raised = 0
    for item in probe:
        try:
            api.run_pipeline(item.pipeline, api.parse(item.text), certify=True)
        except Exception:
            raised += 1
    totals = run.Totals()
    state = SimpleNamespace(controls=[], probe=probe, seed=1)
    assert run.WORKLOADS["certify"].run_checks(api, state, totals) == []
    assert (totals.probe_attempted, totals.probe_failed) == (len(probe), raised)


def test_no_result_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
