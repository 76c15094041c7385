"""Seeded inputs for the three workloads.

Every input is built here as the benchmark's own tuple expression (see
reference.py) and handed to the library as concrete syntax, so the library
only ever sees generated text and graphs.  The seed picks label names,
the labels of the generated shapes, and the random graphs.  The
hand-picked slices keep their shape and operand order and only get new
label names: rewrite output size does not depend on label names but does
on operand order (one input's output ranges from 266,000 to 402,000
operators over its union orders), and those inputs carry most of each
workload's time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from reference import distance_set, postorder, relation, text_of

LABEL_POOL = "abcdefgh"


# --- tuple builders --------------------------------------------------------

def lab(name):
    return ("lab", name)


def plus(x):
    return ("tc", x)


def pi1(x):
    return ("pi1", x)


def pi2(x):
    return ("pi2", x)


def _fold(op, xs):
    out = xs[0]
    for x in xs[1:]:
        out = (op, out, x)
    return out


def dot(*xs):
    return _fold(".", xs)


def alt(*xs):
    return _fold("|", xs)


def cap(x, y):
    return ("&", x, y)


def minus(x, y):
    return ("\\", x, y)


def pw(x, k):
    return dot(*[x] * k)


# --- items -----------------------------------------------------------------

@dataclass
class Item:
    """One input: the pipeline it goes through and its expression."""
    pipeline: str
    tree: tuple
    slice: str                          # "hand", "generated" or "probe"
    power: int | None = None            # unlabeled-normal-form reference
    max_nodes: int | None = None        # certification bound; None: the default
    text: str = field(init=False)

    def __post_init__(self):
        self.text = text_of(self.tree)


# --- random expressions over a pipeline's fragment ------------------------

# fragment of each pipeline: unary operators, binary operators, and the
# operators of which at least one must occur for the input to be worth
# rewriting.  Closure bodies are words (compositions of labels): a closure,
# projection or union inside a closure under a projection makes the
# rewritten output grow to millions of operators (pi1((b | b)+) and
# pi2((pi2(f) | f)+) each run for minutes), so a run's cost would depend on
# whether the seed happened to draw one.
FRAGMENTS = {
    "chain-projections": (("tc", "pi1", "pi2"), (".", "|"), {"pi1", "pi2"}),
    "tree-pi2": (("tc", "pi2"), (".", "|"), {"pi2"}),
    "tree-set-operations": (("tc", "pi1", "pi2", "copi1", "copi2"),
                            (".", "|", "&", "\\"), {"&", "\\"}),
    "unlabeled-homomorphic": (("tc", "pi1", "pi2", "conv"), (".", "|", "&"),
                              set()),
}


def random_expr(rng, ops, labels, unary, binary, in_closure=False):
    """A random expression with exactly `ops` operators over `labels`."""
    if ops == 0:
        return lab(rng.choice(labels))
    op = "." if in_closure else rng.choice(unary + binary)
    if op in unary:
        return (op, random_expr(rng, ops - 1, labels, unary, binary,
                                in_closure or op == "tc"))
    k = rng.randint(0, ops - 1)
    return (op, random_expr(rng, k, labels, unary, binary, in_closure),
            random_expr(rng, ops - 1 - k, labels, unary, binary, in_closure))


def _ops_in(t):
    tags = {t[0]}
    for c in t[1:]:
        if isinstance(c, tuple):
            tags |= _ops_in(c)
    return tags


def shapes(pipeline, count, ops):
    """A fixed catalogue of `count` expressions with `ops` operators over a
    pipeline's fragment and the labels 0 and 1, drawn once with a fixed
    seed; `labeled` names the labels."""
    rng = random.Random(0)
    unary, binary, required = FRAGMENTS[pipeline]
    out = []
    while len(out) < count:
        t = random_expr(rng, ops, [0, 1], unary, binary)
        if not required or _ops_in(t) & required:
            out.append(t)
    return out


def labeled(shape, names):
    """The shape with label i named names[i].  Which leaves share a label
    is part of the shape: it changes the query and its cost, so drawing it
    per seed would make op costs, and the median op time, differ by seed.
    A corpus drawn afresh per seed varies several-fold in output size."""
    if shape[0] == "lab":
        return lab(names[shape[1]])
    return (shape[0],) + tuple(labeled(c, names) for c in shape[1:])


# --- unlabeled normal forms ------------------------------------------------

HORIZON = 100  # far above every power the distance generator can produce


def _progression(rng, x):
    """a^k, (a^p)+ or a^k . (a^p)+ with k <= 3 and p <= 5."""
    k, p = rng.randint(1, 3), rng.randint(1, 5)
    return rng.choice([pw(x, k), plus(pw(x, p)), dot(pw(x, k), plus(pw(x, p)))])


# The timed unlabeled inputs use label "a", the name the library's unlabeled
# instance classes default to: `normalize_unlabeled_boolean` raises
# UnknownLabelError for any other label, because `chain_graph(1, label)`
# gives the one-node chain the alphabet {"a"}, and a timed op that fails
# would distort the timings.  `unlabeled_probe` keeps the seeded labels and
# runs outside the timed ops, so the defect shows in `failed_share` until it
# is fixed.  See README.md.
UNLABELED = "a"


def distance_item(rng, slice_="generated", tree=None, label=UNLABELED):
    """A distance-fragment input with its hand-derivable normal form: the
    smallest distance the expression relates, or empty.  Two progressions
    with periods at most 5 meet below 3 + 5 + 20, far below the horizon."""
    x = lab(label)
    if tree is None:
        op = rng.choice(["&", "|", "\\"])
        tree = (op, _progression(rng, x), _progression(rng, x))
    dist = distance_set(tree, HORIZON)
    return Item("unlabeled-normal-form", tree, slice_, power=min(dist, default=None))


def homomorphic_item(rng, label=UNLABELED):
    """A homomorphism-closed input of 3 operators over one label; its normal
    form is the length of the shortest chain the reference evaluator finds
    it nonempty on, or empty when no chain up to 12 nodes works (no input of
    this size needs more than 5 nodes)."""
    unary, binary, _ = FRAGMENTS["unlabeled-homomorphic"]
    tree = random_expr(rng, 3, [label], unary, binary)
    power = None
    for n in range(1, 13):
        nodes = list(range(n))
        if relation(tree, nodes, [(i, label, i + 1) for i in range(n - 1)]):
            power = n - 1
            break
    return Item("unlabeled-normal-form", tree, "generated", power=power)


def unlabeled_probe(seed: int) -> list[Item]:
    """Unlabeled-normal-form inputs over labels drawn from the seed, which
    the timed corpus avoids (see UNLABELED): the hand-derived
    (x^3)+ & (x^7)+, three distance-fragment and three homomorphism-closed
    inputs."""
    rng = random.Random(seed)
    x = rng.choice(LABEL_POOL)
    items = [distance_item(rng, "probe", cap(plus(pw(lab(x), 3)), plus(pw(lab(x), 7))), x)]
    for _ in range(3):
        x = rng.choice(LABEL_POOL)
        items += [distance_item(rng, "probe", label=x), homomorphic_item(rng, x)]
    return items


# --- workloads -------------------------------------------------------------

# The two ROADMAP baseline cases are certified below the bounds at which
# ROADMAP timed them: at the default bounds they take 5-11 s each, as
# long as the rest of the corpus together, so a run could time each of them
# only once or twice and they alone would set `ops_per_s`.
BASELINE_TREE_NODES = 3     # 22 trees instead of 2,128 at the default 5
BASELINE_CHAIN_NODES = 5    # 121 chains instead of 3,280 at the default 8
GENERATED_PER_PIPELINE = 10


def certify_corpus(seed: int) -> list[Item]:
    """ROADMAP baseline cases, plus random inputs over every pipeline's
    fragment at each pipeline's default bounds."""
    rng = random.Random(seed)
    a, b, c = (lab(x) for x in rng.sample(LABEL_POOL, 3))
    items = [
        # ROADMAP baseline, certified over 22 trees (2,128 at the default bound)
        Item("tree-set-operations",
             minus(plus(alt(a, b, c)), alt(plus(dot(a, b, c)), plus(dot(c, b)))), "hand",
             max_nodes=BASELINE_TREE_NODES),
        # ROADMAP baseline, certified over 121 chains (3,280 at the default bound)
        Item("chain-projections", pi1(dot(plus(a), pi1(dot(plus(b), pi1(plus(c)))))),
             "hand", max_nodes=BASELINE_CHAIN_NODES),
        # the ROADMAP 7-node case, at 4 nodes
        Item("tree-set-operations", minus(plus(alt(a, b)), plus(dot(a, b))), "hand",
             max_nodes=BASELINE_TREE_NODES + 1),
        Item("tree-pi2", dot(a, pi2(dot(b, plus(a))), b), "hand"),
        # hand-derived normal form: power 21
        distance_item(rng, "hand", cap(plus(pw(lab(UNLABELED), 3)),
                                       plus(pw(lab(UNLABELED), 7)))),
    ]
    for pipeline in ("chain-projections", "tree-pi2", "tree-set-operations"):
        names = rng.sample(LABEL_POOL, 2)
        items += [Item(pipeline, labeled(t, names), "generated")
                  for t in shapes(pipeline, GENERATED_PER_PIPELINE, 3)]
    # The timed unlabeled inputs all use the label `a` (see UNLABELED), so a
    # seed could only redraw their shapes.  Their costs range from 1 to 130
    # ms, and redrawing them per seed moved ops across the median op time.
    # They are drawn once, with a fixed seed.
    fixed = random.Random(0)
    items += [distance_item(fixed) for _ in range(10)]
    items += [homomorphic_item(fixed) for _ in range(10)]
    return items


def nested_projection(shape_rng, names, pipeline):
    """Projections nested 3-4 deep over 4 labels.  First projections look
    forward (pi1(step . inner)), second projections backward
    (pi2(inner . step)); one direction per input, since on a chain a node
    has one incoming edge and mixing them mostly yields the empty query.
    `shape_rng` draws the shape, `names` gives the labels."""
    forward = pipeline == "chain-projections" and shape_rng.random() < 0.5
    depth = shape_rng.randint(3, 4)
    t = plus(names[depth - 1])
    for level in reversed(range(depth - 1)):
        step = shape_rng.choice([plus(names[level]), names[level]])
        t = pi1(dot(step, t)) if forward else pi2(dot(t, step))
    return t


REWRITE_DIFFERENCES = 20
REWRITE_NESTS = 5    # per projection pipeline


def rewrite_corpus(seed: int) -> list[Item]:
    """Larger inputs rewritten without certification: differences nested
    over 3 labels, and projections nested 3-4 deep.  The generated inputs
    take their shapes from a catalogue drawn with a fixed seed, and the
    seed draws their label names: output size turns on which positions
    of a word share a label, so shapes drawn afresh per seed made the
    outputs, and the run's memory, vary by 10% between seeds."""
    rng = random.Random(seed)
    a, b, c, d = (lab(x) for x in rng.sample(LABEL_POOL, 4))
    items = [
        Item("tree-set-operations",
             minus(plus(alt(a, b, c)), alt(plus(dot(a, b, c)), plus(dot(c, b)))), "hand"),
        Item("tree-set-operations",
             minus(minus(plus(alt(a, b, c)), plus(dot(a, b))), plus(dot(c, c))),
             "hand"),
        Item("chain-projections",
             pi1(dot(plus(a), pi1(dot(plus(b), pi1(dot(plus(c), pi1(plus(d)))))))),
             "hand"),
        Item("tree-pi2", pi2(dot(pi2(dot(pi2(dot(pi2(plus(d)), plus(c))), plus(b))), a)),
             "hand"),
    ]
    shape_rng = random.Random(0)
    for _ in range(REWRITE_DIFFERENCES):
        positions = [[shape_rng.randrange(3) for _ in range(n)] for n in (2, 3)]
        names = [lab(x) for x in rng.sample(LABEL_POOL, 3)]
        words = [dot(*[names[i] for i in word]) for word in positions]
        items.append(Item("tree-set-operations",
                          minus(plus(alt(*names)), alt(*[plus(w) for w in words])),
                          "generated"))
    for pipeline in ("chain-projections", "tree-pi2"):
        for _ in range(REWRITE_NESTS):
            names = [lab(x) for x in rng.sample(LABEL_POOL, 4)]
            items.append(Item(pipeline, nested_projection(shape_rng, names, pipeline),
                              "generated"))
    return items


def negative_controls(seed: int):
    """Pairs that differ on small instances, so the oracle must report them
    inequivalent with a witness: (semantics, graph class, e1, e2)."""
    rng = random.Random(seed)
    x, y = (lab(n) for n in rng.sample(LABEL_POOL, 2))
    return [
        ("path", "labeled-tree", dot(x, plus(x)), plus(x)),
        ("path", "labeled-tree", minus(plus(alt(x, y)), plus(dot(x, y))), plus(alt(x, y))),
        ("boolean", "labeled-chain", dot(x, pi2(y)), dot(x, y)),
        ("boolean", "unlabeled-chain", pw(x, 3), pw(x, 2)),
    ]


@dataclass
class BigGraph:
    """A large graph as plain data; the library Graph is built in set-up."""
    name: str
    nodes: list
    labels: list
    edges: list
    chain: bool
    unlabeled: bool = False


def _chain(n, labels):
    nodes = [f"n{i}" for i in range(n)]
    return nodes, [(nodes[i], labels[i], nodes[i + 1]) for i in range(n - 1)]


# Node counts of the big graphs.  Closure on an 800-node chain alone takes
# 15 s in the evaluator's one-integer layout, so chains stay shorter than
# trees, whose relations are sparser.  The largest op (the rewrite of a
# three-label difference on the 400-node tree) takes about 0.35 s, so a run
# times every op at least eight times.
LABELED_CHAIN_SIZES = (200, 250)
TREE_SIZES = (200, 400)
UNLABELED_CHAIN_SIZES = (200, 300)


def big_graphs(seed: int) -> list[BigGraph]:
    """Labeled chains and random recursive labeled trees of 200-800 nodes,
    and unlabeled chains for the closed-form checks."""
    rng = random.Random(seed)
    sigma = ["a", "b", "c"]
    out = []
    for n in LABELED_CHAIN_SIZES:
        nodes, edges = _chain(n, [rng.choice(sigma) for _ in range(n - 1)])
        out.append(BigGraph(f"labeled-chain-{n}", nodes, sigma, edges, True))
    for n in TREE_SIZES:
        nodes = [f"n{i}" for i in range(n)]
        edges = [(nodes[rng.randrange(i)], rng.choice(sigma), nodes[i])
                 for i in range(1, n)]
        out.append(BigGraph(f"labeled-tree-{n}", nodes, sigma, edges, False))
    for n in UNLABELED_CHAIN_SIZES:
        nodes, edges = _chain(n, ["a"] * (n - 1))
        out.append(BigGraph(f"unlabeled-chain-{n}", nodes, ["a"], edges, True, True))
    return out


def eval_large_sources():
    """Fixed inputs whose original and rewritten forms are evaluated on the
    big labeled graphs (the same for every seed, so output sizes are fixed)."""
    a, b, c = lab("a"), lab("b"), lab("c")
    return [
        Item("tree-set-operations", minus(plus(alt(a, b)), plus(dot(a, b))), "hand"),
        Item("tree-set-operations", cap(plus(dot(a, b)), plus(alt(a, b))), "hand"),
        Item("tree-set-operations",
             minus(plus(alt(a, b, c)), alt(plus(dot(a, b)), plus(dot(c, a)))), "hand"),
        Item("chain-projections", pi1(dot(plus(a), pi1(plus(b)))), "hand"),
        Item("tree-pi2", dot(pi2(plus(a)), plus(b)), "hand"),
    ]


def closed_forms():
    """Unlabeled-chain inputs with hand-derived pair counts on n nodes."""
    a = lab("a")

    def distances(pred):
        return lambda n: sum(n - d for d in range(1, n) if pred(d))

    return [
        (pw(a, 3), lambda n: n - 3),
        (pw(a, 17), lambda n: n - 17),
        (plus(a), lambda n: n * (n - 1) // 2),
        (cap(plus(pw(a, 3)), plus(pw(a, 7))), distances(lambda d: d % 21 == 0)),
        # ROADMAP baseline: even distances that are not multiples of 3, and
        # pi1(a+ . pi2(a)) holds at every node but the last
        (alt(minus(plus(pw(a, 2)), plus(pw(a, 3))), pi1(dot(plus(a), pi2(a)))),
         lambda n: (n - 1) + sum(n - d for d in range(2, n, 2) if d % 3)),
    ]


def label_words(t) -> list[tuple[str, ...]]:
    """Every label of t alone, and the label sequence of every composition
    of labels in t, such as (a, b, c, d) for a . b . c . d: the paths the
    expression's closures and differences turn on."""
    word: dict[int, tuple | None] = {}
    out = set()
    for node in postorder(t):
        if node[0] == "lab":
            word[id(node)] = (node[1],)
        elif node[0] == "." and word[id(node[1])] and word[id(node[2])]:
            word[id(node)] = word[id(node[1])] + word[id(node[2])]
        else:
            word[id(node)] = None
        if word[id(node)]:
            out.add(word[id(node)])
    return sorted(out)


def word_instance(rng, words, chain: bool, max_nodes: int):
    """A random chain or tree of 2 to max_nodes nodes whose edges spell
    words drawn from `words`, each hung from the last node (a chain) or
    from a random node (a tree), so that the paths an expression's words
    describe occur in small instances."""
    target = rng.randint(2, max_nodes)
    nodes, edges = [0], []
    while len(nodes) < target:
        at = nodes[-1] if chain else rng.choice(nodes)
        for label in rng.choice(words)[:target - len(nodes)]:
            nodes.append(len(nodes))
            edges.append((at, label, nodes[-1]))
            at = nodes[-1]
    return nodes, edges
