"""Syntax layer: parsing, rendering, sugar, fragments, structural metrics."""

import copy
import dataclasses
import gc
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

import navex.expr

from navex.expr import (
    Compose, Converse, Coproj1, Coproj2, Difference, EdgeLabel,
    Empty, Fragment, FragmentError, Identity, Intersect, ParseError, Proj1,
    Proj2, TransClosure, Union,
    EMPTY, IDENTITY, Expr,
    condition_depth, is_condition, label_union, labels_used, operators_used,
    parse, power, render, size, star,
    _children, _distinct_nodes, _fold,
)

a, b, c, d = EdgeLabel("a"), EdgeLabel("b"), EdgeLabel("c"), EdgeLabel("d")


def _tree(e):
    """Every node of `e`, a shared subterm once per occurrence."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(_children(node))


# ---------------------------------------------------------------------------
# hash-consing: equal expressions are one object

def test_equality_is_structural():
    assert parse("a . b") == parse("a . b")
    assert parse("a . b") is parse("a . b")
    assert hash(parse("a . b")) == hash(parse("a . b"))
    assert parse("a . b") != parse("b . a")
    assert Proj1(a) != Proj2(a)
    assert EMPTY != IDENTITY


def test_expressions_usable_as_dict_keys():
    table = {parse("pi1(a)+"): 1, parse("pi2(a)+"): 2}
    assert table[TransClosure(Proj1(a))] == 1
    assert table[TransClosure(Proj2(a))] == 2


def test_hash_is_the_tuple_of_type_name_and_fields():
    # set and dict iteration order, and with it every rewrite output,
    # depends on this formula
    assert hash(a) == hash(("EdgeLabel", ("a",)))
    assert hash(Compose(a, b)) == hash(("Compose", (a, b)))
    assert hash(EMPTY) == hash(("Empty", ()))


def test_equality_compares_structure_under_equal_hashes():
    # labels of this test only, so the forced hash dies with its nodes
    p, q = Proj1(EdgeLabel("collision_p")), Proj1(EdgeLabel("collision_q"))
    q.__dict__["_h"] = hash(p)      # a collision, forced
    assert hash(Compose(a, p)) == hash(Compose(a, q))
    assert Compose(a, p) != Compose(a, q)
    assert power(p, 300) != power(q, 300)


def test_hash_and_equality_handle_deep_expressions():
    deep, again = power(a, 5000), power(EdgeLabel("a"), 5000)
    assert hash(deep) == hash(again)
    assert deep == again and deep in {again}
    assert deep != power(a, 4999)
    assert deep != Compose(a, power(b, 4999))
    assert hash(Proj1(again)) == hash(("Proj1", (again,)))


def test_equality_is_identity():
    assert "__eq__" not in vars(Expr)
    for text in ["(a . b) | (a . b)", "pi1(a+) & pi1(a+)", "a^3 . a^3"]:
        assert parse(text) is parse(text)
    shared = parse("(a . b) | (a . b)")
    assert shared.left is shared.right
    assert len(_distinct_nodes(shared)) == 4


def test_copies_and_pickles_are_the_interned_node():
    for e in [a, EMPTY, parse("pi1(a . b)+ \\ (a & c)"), power(a, 5000)]:
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e
        assert copy.deepcopy([e, (e,)])[1][0] is e
    e = parse("pi1(a . b)+ \\ (a & c)")
    assert pickle.loads(pickle.dumps(e)) is e


def test_deep_and_shared_expressions_pickle_flat():
    deep = power(a, 5000)
    assert pickle.loads(pickle.dumps(deep)) is deep
    shared = a
    for _ in range(60):
        shared = Compose(shared, shared)    # 2^60 occurrences, 61 objects
    data = pickle.dumps(shared)
    assert len(data) < 2000
    assert pickle.loads(data) is shared


def test_nodes_are_immutable_and_checked():
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.name = "b"
    with pytest.raises(TypeError):
        Compose(a)


def test_edge_labels_are_names_that_parse_back():
    for name in ("id", "E", "di", "A", "conv", "pi1", "pi2", "copi1", "copi2",
                 "a b", "1a", "", "a-b", "a.b", 3, None):
        with pytest.raises(ValueError, match="cannot be an edge label"):
            EdgeLabel(name)
    for name in ("a", "x_1", "_", "Id", "pi3", "dia"):
        assert parse(render(EdgeLabel(name))) is EdgeLabel(name)


def test_threads_building_the_same_expressions_get_one_object_each():
    def build(out):
        barrier.wait(timeout=30)
        out.extend(Compose(EdgeLabel(f"race_{i}"), TransClosure(EdgeLabel(f"race_{i % 7}")))
                   for i in range(1000))

    barrier = threading.Barrier(8)
    results: list[list] = [[] for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 1000 for out in results)
    for built in zip(*results):
        assert all(node is built[0] for node in built)


def test_the_table_drops_dead_nodes():
    gc.collect()
    before = len(navex.expr._TABLE)
    nodes = [Proj1(Compose(EdgeLabel(f"gone_{i}"), b)) for i in range(500)]
    assert len(navex.expr._TABLE) == before + 3 * 500
    del nodes
    gc.collect()
    assert len(navex.expr._TABLE) == before


# ---------------------------------------------------------------------------
# parsing

def test_parse_atoms():
    assert parse("0") == EMPTY
    assert parse("id") == IDENTITY
    assert parse("a") == a
    assert parse("idx") == EdgeLabel("idx")  # keywords only match whole names


def test_parse_functional_forms():
    assert parse("conv(a)") == Converse(a)
    assert parse("pi1(a)") == Proj1(a)
    assert parse("pi2(a)") == Proj2(a)
    assert parse("copi1(a)") == Coproj1(a)
    assert parse("copi2(a)") == Coproj2(a)


def test_parse_precedence():
    assert parse("a | b & c . d+") == Union(a, Intersect(b, Compose(c, TransClosure(d))))
    assert parse("a \\ b | c") == Union(Difference(a, b), c)
    # difference binds looser than intersection
    assert parse("a & b \\ c") == Difference(Intersect(a, b), c)
    assert parse("a \\ b & c") == Difference(a, Intersect(b, c))
    assert parse("a . b . c") == Compose(Compose(a, b), c)
    assert parse("a | b | c") == Union(Union(a, b), c)
    assert parse("(a | b) . c") == Compose(Union(a, b), c)


def test_parse_sugar_star_is_union_with_identity():
    assert parse("a*") == Union(IDENTITY, TransClosure(a))
    assert star(a) == Union(IDENTITY, TransClosure(a))


def test_parse_sugar_power_expands_right_nested():
    # a^3 unfolds by composing a onto a^2, grounding out at the identity
    expected = Compose(a, Compose(a, Compose(a, IDENTITY)))
    assert power(a, 3) == expected
    assert parse("a^3") == expected
    assert parse("a^1") == Compose(a, IDENTITY)
    assert parse("a^0") == IDENTITY
    assert parse("(a . b)^2") == Compose(Compose(a, b), Compose(Compose(a, b), IDENTITY))


def test_parse_big_union_requires_alphabet():
    assert parse("E", alphabet=["b", "a"]) == Union(a, b)
    assert parse("E", alphabet=["a"]) == a
    assert parse("E+", alphabet=[]) == TransClosure(EMPTY)
    with pytest.raises(ParseError):
        parse("E")
    assert label_union([]) == EMPTY
    assert label_union(["c", "a", "b"]) == Union(Union(a, b), c)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse("a |")
    assert exc.value.position == 3
    with pytest.raises(ParseError):
        parse("(a")
    with pytest.raises(ParseError):
        parse("pi1 a")       # functional keyword needs parentheses
    with pytest.raises(ParseError, match="needs a non-negative exponent") as exc:
        parse("a^-1")
    assert exc.value.position == 2
    with pytest.raises(ParseError, match="unexpected character '\\?'") as exc:
        parse("a ? b")
    assert exc.value.position == 1       # where the blank before it starts
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("a b")


def test_parse_skips_trailing_blanks():
    assert parse("a .\tb \n") == Compose(a, b)


def test_parse_rejects_diversity_and_its_sugar():
    # di and A = id | di are outside the downward fragments; they must not
    # silently parse as edge labels
    for text, position in (("di", 0), ("a | A", 4), ("(b . di)+", 5)):
        with pytest.raises(ParseError, match="outside the downward fragments") as exc:
            parse(text)
        assert exc.value.position == position
    assert parse("dia") == EdgeLabel("dia")     # only whole names are rejected


def test_render_round_trips_hand_picked():
    for text in [
        "a", "0", "id", "a . b | c", "(a | b) . c", "a+", "(a . b)+",
        "pi1(a . b) . copi2(a)", "a \\ (b & c)", "a \\ b & c", "conv(a)+",
        "a . (b . c)", "(a \\ b) \\ c", "a \\ (b \\ c)",
    ]:
        e = parse(text)
        assert parse(render(e)) == e


_atoms = st.sampled_from([EMPTY, IDENTITY, a, b, EdgeLabel("lbl_1")])
_exprs = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(Converse, inner),
        st.builds(TransClosure, inner),
        st.builds(Proj1, inner),
        st.builds(Proj2, inner),
        st.builds(Coproj1, inner),
        st.builds(Coproj2, inner),
        st.builds(Compose, inner, inner),
        st.builds(Union, inner, inner),
        st.builds(Intersect, inner, inner),
        st.builds(Difference, inner, inner),
    ),
    max_leaves=12,
)


@given(_exprs)
def test_render_parse_round_trip(e):
    assert parse(render(e)) == e


@given(_exprs, _exprs)
def test_equal_expressions_are_the_same_object(e1, e2):
    assert (e1 == e2) == (e1 is e2) == (render(e1) == render(e2))
    assert parse(render(e1)) is e1


@given(_exprs)
def test_size_counts_operator_applications(e):
    ops = sum(
        1 for s in _tree(e)
        if not isinstance(s, (Empty, Identity, EdgeLabel))
    )
    assert size(e) == ops


def test_distinct_walk_visits_each_object_once_children_first():
    x = Compose(a, b)
    for _ in range(100):
        x = Union(x, x)          # over 2^100 tree nodes, 103 objects
    nodes = _distinct_nodes(x, Proj1(x))
    assert len(nodes) == 104
    assert len({id(n) for n in nodes}) == len(nodes)
    position = {id(n): i for i, n in enumerate(nodes)}
    for n in nodes:
        for kid in (getattr(n, "child", None), getattr(n, "left", None),
                    getattr(n, "right", None)):
            if kid is not None:
                assert position[id(kid)] < position[id(n)]
    assert labels_used(x) == {"a", "b"}
    assert operators_used(x) == Fragment.of()


def test_fold_drops_each_value_after_its_last_parent():
    live = peak = 0

    class Value:
        def __init__(self):
            nonlocal live, peak
            live += 1
            peak = max(peak, live)

        def __del__(self):
            nonlocal live
            live -= 1

    _fold(power(a, 1000), lambda node, *kids: Value())
    assert peak == 3        # a, the last power and the one being built


def test_walks_handle_deep_expressions():
    deep = Proj1(power(TransClosure(a), 5000))
    assert labels_used(deep) == {"a"}
    assert operators_used(deep) == Fragment.of("tc", "pi1")
    assert sum(1 for _ in _tree(deep)) == 3 * 5000 + 2


def test_size_render_and_parse_handle_deep_input():
    deep = power(a, 5000)
    assert size(deep) == 5000
    text = render(deep)
    assert text == "a . (" * 4999 + "a . id" + ")" * 4999
    assert repr(deep) == f"<{text}>"
    assert parse(text) is deep
    assert parse("(" * 2000 + "a" + ")" * 2000) is EdgeLabel("a")


def test_size_and_labels():
    assert size(a) == 0
    assert size(parse("pi1(a . b)")) == 2
    assert size(parse("a | a")) == 1
    assert labels_used(parse("pi1(a . b) \\ c")) == {"a", "b", "c"}
    assert labels_used(parse("id | 0")) == set()


# ---------------------------------------------------------------------------
# fragments and closure

def test_fragment_construction():
    assert set(Fragment.of("tc", "pi1", "pi2")) == {"tc", "pi1", "pi2"}
    assert str(Fragment.of()) == "(basic)"
    assert Fragment.of("tc") <= Fragment.of("tc", "cap")
    with pytest.raises(FragmentError):
        Fragment.of("bogus")
    with pytest.raises(FragmentError):
        Fragment.of("di")       # diversity is outside the downward fragments


def test_operators_used():
    assert operators_used(parse("pi1(a) & b")) == Fragment.of("pi1", "cap")
    assert operators_used(parse("a . b")) == Fragment.of()
    assert operators_used(parse("conv(id)+")) == Fragment.of("conv", "tc")


# ---------------------------------------------------------------------------
# condition depth

def test_condition_depth():
    assert condition_depth(parse("id")) == 0
    assert condition_depth(parse("a . b")) == 0
    assert condition_depth(parse("pi1(a)")) == 1
    assert condition_depth(parse("pi1(pi2(a) . b)")) == 2
    assert condition_depth(parse("pi1(a) . pi2(b)")) == 1
    assert condition_depth(parse("(pi1(a . pi1(b)))+")) == 2


def test_condition_depth_handles_deep_expressions():
    deep = a
    for _ in range(5000):
        deep = Proj1(Compose(deep, b))
    assert condition_depth(deep) == 5000


def test_condition_depth_rejects_other_operators():
    for text in ["a & b", "a \\ b", "conv(a)", "copi1(a)"]:
        with pytest.raises(FragmentError):
            condition_depth(parse(text))


def test_is_condition():
    assert is_condition(parse("id"))
    assert is_condition(parse("0"))
    assert is_condition(parse("pi1(a . b+)"))
    assert is_condition(parse("copi2(a) . pi1(b)"))
    assert not is_condition(parse("a"))
    assert not is_condition(parse("pi1(a) | id"))
    assert not is_condition(parse("conv(pi1(a))"))
    deep = power(Proj1(a), 5000)
    assert is_condition(deep)
    assert not is_condition(Compose(deep, a))
    shared = Proj1(a)
    for _ in range(60):
        shared = Compose(shared, shared)    # 2^60 occurrences, 61 objects
    assert is_condition(shared)
    assert not is_condition(Compose(shared, a))
