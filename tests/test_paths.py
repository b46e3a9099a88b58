import hashlib
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemine import (MinerLimits, NO_TYPE, enumerate_paths, mine,
                      sample_contexts, split, split_subtokens)
from treemine import paths
from treemine.ast_builder import AstNode

from conftest import build, random_ast
from oracle_paths import oracle_enumerate, oracle_picks

WIDE_OPEN = MinerLimits(max_path_nodes=10_000, max_path_width=10_000,
                        max_contexts=10_000_000)


def leaf(node_type, token, resolved_type=None):
    return AstNode(node_type, token=token, resolved_type=resolved_type)


def node(node_type, *children):
    return AstNode(node_type, children=list(children))


def binary_tree():
    """Full binary tree with leaves a, b, c, d."""
    return node("FILE",
                node("CODE_BLOCK", leaf("IDENTIFIER", "a"),
                     leaf("IDENTIFIER", "b")),
                node("CODE_BLOCK", leaf("IDENTIFIER", "c"),
                     leaf("IDENTIFIER", "d")))


def flat_tree(n):
    return node("ARGUMENT_LIST",
                *[leaf("IDENTIFIER", f"v{i}") for i in range(n)])


@pytest.mark.parametrize("token,expected", [
    ("getItemsCount", ["get", "items", "count"]),
    ("snake_case_name", ["snake", "case", "name"]),
    ("X2", ["x2"]),
    ("___", ["_"]),
    ("", ["_"]),
    ("value2", ["value2"]),
    ("MAX_LIMIT", ["max", "limit"]),
    ("HTTPServer", ["httpserver"]),
    ("parseHTTPResponse", ["parse", "httpresponse"]),
    ("x$y", ["xy"]),
    ("grüße", ["gre"]),
    ("a_b_", ["a", "b"]),
    ("_leading", ["leading"]),
])
def test_split_subtokens(token, expected):
    assert split_subtokens(token) == expected


def reference_subtokens(token):
    """The rule of split_subtokens with no fast path: underscore chunks, then
    lower-to-upper boundaries, then all but ASCII letters and digits go."""
    parts = [re.sub(r"[^0-9A-Za-z]+", "", piece).lower()
             for chunk in token.split("_")
             for piece in re.split(r"(?<=[a-z])(?=[A-Z])", chunk)]
    return [part for part in parts if part] or ["_"]


@given(st.text(alphabet="aZ09xQ_$é中 ", max_size=12)
       | st.from_regex(r"[0-9A-Za-z]{0,12}", fullmatch=True))
@settings(max_examples=500)
def test_split_subtokens_fast_path_keeps_the_rule(token):
    assert split_subtokens(token) == reference_subtokens(token)


def test_single_leaf_no_contexts():
    assert enumerate_paths(leaf("IDENTIFIER", "x"), WIDE_OPEN) == []


def test_assignment_example():
    tree = node("ASSIGNMENT_EXPR",
                node("REFERENCE_EXPR", leaf("IDENTIFIER", "x")),
                leaf("LITERAL", "1"))
    contexts = enumerate_paths(tree, WIDE_OPEN)
    assert len(contexts) == 1
    ctx = contexts[0]
    assert ctx.start_token == "x"
    assert ctx.path == "IDENTIFIER|REFERENCE_EXPR|ASSIGNMENT_EXPR|LITERAL"
    assert ctx.end_token == "1"
    assert ctx.start_type == NO_TYPE
    assert ctx.end_type == NO_TYPE


def test_binary_tree_all_pairs():
    contexts = enumerate_paths(binary_tree(), WIDE_OPEN)
    assert len(contexts) == 6


def test_binary_tree_widths_all_within_one():
    # at every LCA of this tree the branch child indices are 0 and 1,
    # so a width cap of 1 keeps all six pairs
    limits = MinerLimits(max_path_nodes=10_000, max_path_width=1,
                         max_contexts=10_000_000)
    assert len(enumerate_paths(binary_tree(), limits)) == 6


def test_width_filters_on_flat_tree():
    tree = flat_tree(6)
    for cap, expected in ((0, 0), (1, 5), (2, 9), (5, 15), (10, 15)):
        limits = MinerLimits(max_path_nodes=10_000, max_path_width=cap,
                             max_contexts=10_000_000)
        assert len(enumerate_paths(tree, limits)) == expected, cap


def test_path_nodes_filter_on_binary_tree():
    # sibling pairs need 3 nodes, cross pairs 5
    for cap, expected in ((2, 0), (3, 2), (4, 2), (5, 6)):
        limits = MinerLimits(max_path_nodes=cap, max_path_width=10_000,
                             max_contexts=10_000_000)
        assert len(enumerate_paths(binary_tree(), limits)) == expected, cap


def test_path_shape_on_binary_tree():
    contexts = enumerate_paths(binary_tree(), WIDE_OPEN)
    sibling = contexts[0]  # (a, b)
    assert sibling.path == "IDENTIFIER|CODE_BLOCK|IDENTIFIER"
    cross = contexts[1]  # (a, c)
    assert cross.path == "IDENTIFIER|CODE_BLOCK|FILE|CODE_BLOCK|IDENTIFIER"


def test_contexts_ordered_by_leaf_indices():
    contexts = enumerate_paths(binary_tree(), WIDE_OPEN)
    pairs = [(c.start_token, c.end_token) for c in contexts]
    assert pairs == [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                     ("b", "d"), ("c", "d")]


def test_resolved_types_carried_through():
    tree = node("BINARY_EXPR:+",
                leaf("IDENTIFIER", "x", resolved_type="int"),
                leaf("LITERAL", "1.5", resolved_type="double"))
    ctx = enumerate_paths(tree, WIDE_OPEN)[0]
    assert ctx.start_type == "int"
    assert ctx.end_type == "double"


def test_tokens_are_subtokenized():
    tree = node("CODE_BLOCK",
                leaf("IDENTIFIER", "getItemsCount"),
                leaf("IDENTIFIER", "snake_case"))
    ctx = enumerate_paths(tree, WIDE_OPEN)[0]
    assert ctx.start_token == "get|items|count"
    assert ctx.end_token == "snake|case"


def test_matches_oracle_on_random_trees():
    rng = random.Random(20_250_817)
    for _ in range(40):
        tree = random_ast(rng)
        got = enumerate_paths(tree, WIDE_OPEN)
        want = oracle_enumerate(tree, 10_000, 10_000)
        assert got == want
        n_leaves = sum(1 for _ in tree.leaves())
        assert len(got) == n_leaves * (n_leaves - 1) // 2


def test_matches_oracle_with_bounds():
    rng = random.Random(404)
    limits = MinerLimits(max_path_nodes=7, max_path_width=1,
                         max_contexts=10_000_000)
    for _ in range(40):
        tree = random_ast(rng)
        got = enumerate_paths(tree, limits)
        want = oracle_enumerate(tree, 7, 1)
        assert got == want


# the shapes the leaf index treats apart: a later child that is a leaf (its
# reach entry is its own index), a later child that is internal (a reach
# list), and an ancestor whose only internal child is its first (no reach
# list below it)
INDEX_SHAPES = {
    "later_leaf": node(
        "CODE_BLOCK",
        node("IF_STMT", node("BINARY_EXPR:+", leaf("IDENTIFIER", "x"),
                             leaf("LITERAL", "1")),
             leaf("IDENTIFIER", "y")),
        leaf("IDENTIFIER", "z"), leaf("LITERAL", "2"),
        node("METHOD_CALL", leaf("IDENTIFIER", "f"), leaf("IDENTIFIER", "g"))),
    "later_internal": node(
        "CODE_BLOCK", leaf("IDENTIFIER", "a"),
        node("IF_STMT", leaf("IDENTIFIER", "b"),
             node("CODE_BLOCK", node(
                 "METHOD_CALL", leaf("IDENTIFIER", "c"),
                 node("BINARY_EXPR:+", leaf("IDENTIFIER", "d"),
                      node("METHOD_CALL", leaf("LITERAL", "e"))))),
             leaf("IDENTIFIER", "f")),
        node("METHOD_CALL", node("BINARY_EXPR:+", leaf("IDENTIFIER", "g"),
                                 leaf("LITERAL", "h")),
             leaf("IDENTIFIER", "i"))),
    "first_only_internal": node(
        "METHOD_CALL",
        node("CODE_BLOCK",
             node("IF_STMT", node("BINARY_EXPR:+", leaf("IDENTIFIER", "a"),
                                  leaf("LITERAL", "b")),
                  leaf("IDENTIFIER", "c")),
             leaf("IDENTIFIER", "d")),
        leaf("IDENTIFIER", "e"), leaf("LITERAL", "f"),
        leaf("IDENTIFIER", "g")),
}


@pytest.mark.parametrize("list_factor", [0, paths.LIST_FACTOR])
@pytest.mark.parametrize("shape", sorted(INDEX_SHAPES))
def test_index_shapes_match_oracle(shape, list_factor):
    tree = INDEX_SHAPES[shape]
    n_leaves = sum(1 for _ in tree.leaves())
    for width in range(4):
        for max_nodes in range(3, 10):
            want = oracle_enumerate(tree, max_nodes, width)
            for max_contexts in (3, 10_000):
                limits = MinerLimits(max_path_nodes=max_nodes,
                                     max_path_width=width,
                                     max_contexts=max_contexts)
                assert enumerate_paths(tree, limits) == want
                with pytest.MonkeyPatch.context() as patch:
                    # at 0 every bag is counted and located, not listed
                    patch.setattr(paths, "LIST_FACTOR", list_factor)
                    contexts = mine(tree, limits, shape)
                assert contexts == sample_contexts(
                    want, limits, tree_key=f"{shape}:{n_leaves}"), (
                    width, max_nodes, max_contexts)


def test_tightening_limits_never_adds_contexts():
    rng = random.Random(7)
    for _ in range(25):
        tree = random_ast(rng)
        loose = enumerate_paths(tree, WIDE_OPEN)
        tight = enumerate_paths(
            tree, MinerLimits(max_path_nodes=6, max_path_width=2,
                              max_contexts=10_000_000))
        loose_iter = iter(loose)
        # every tight context appears in loose, in the same relative order
        assert all(ctx in loose_iter for ctx in tight)


_INNER_TYPES = ["CODE_BLOCK", "IF_STMT", "METHOD_CALL", "BINARY_EXPR:+"]
_LEAF_TYPES = ["IDENTIFIER", "LITERAL"]
_TOKENS = ["x", "getCount", "snake_case", "42"]


@st.composite
def ast_trees(draw):
    """Trees of fan-out 0-5 and depth up to 8, at most about 60 nodes."""
    budget = draw(st.integers(min_value=1, max_value=60))

    def grow(depth):
        nonlocal budget
        budget -= 1
        most = 0 if depth >= 8 else max(0, min(5, budget))
        fan_out = draw(st.integers(min_value=0, max_value=most))
        if fan_out == 0:
            return AstNode(draw(st.sampled_from(_LEAF_TYPES)),
                           token=draw(st.sampled_from(_TOKENS)),
                           resolved_type=draw(st.sampled_from([None, "int"])))
        return AstNode(draw(st.sampled_from(_INNER_TYPES)),
                       children=[grow(depth + 1) for _ in range(fan_out)])

    return grow(0)


@given(ast_trees(), st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=4),
       st.integers(min_value=1, max_value=6), st.text(max_size=4))
@settings(max_examples=200, deadline=None)
def test_miner_matches_oracle_on_random_limits(tree, max_nodes, width,
                                               max_contexts, label):
    limits = MinerLimits(max_path_nodes=max_nodes, max_path_width=width,
                         max_contexts=max_contexts)
    contexts = enumerate_paths(tree, limits)
    assert contexts == oracle_enumerate(tree, max_nodes, width)
    n_leaves = sum(1 for _ in tree.leaves())
    assert mine(tree, limits, label) == sample_contexts(
        contexts, limits, tree_key=f"{label}:{n_leaves}")


def chain_tree(depth):
    """A chain of `depth` inner nodes, built without recursion.

    Side leaves flank the chain every 997 levels and on each of the last six
    levels, and three leaves hang from the bottom node.
    """
    root = inner = AstNode("FILE")
    for level in range(1, depth):
        below = AstNode(_INNER_TYPES[level % len(_INNER_TYPES)])
        if level % 997 == 0 or level >= depth - 6:
            inner.children = [leaf("IDENTIFIER", f"left{level}"), below,
                              leaf("LITERAL", f"right{level}")]
        else:
            inner.children = [below]
        inner = below
    inner.children = [leaf("IDENTIFIER", name) for name in ("a", "bC", "d_e")]
    return root


def test_deep_chain_mines_without_recursion():
    tree = chain_tree(5000)
    n_leaves = 2 * 11 + 3  # 11 flanked levels
    assert sum(1 for _ in tree.preorder()) == 5000 + n_leaves
    assert sum(1 for _ in tree.leaves()) == n_leaves
    limits = MinerLimits(max_contexts=5)
    contexts = enumerate_paths(tree, limits)
    assert contexts == oracle_enumerate(tree, limits.max_path_nodes,
                                        limits.max_path_width)
    assert len(contexts) > limits.max_contexts
    assert mine(tree, limits, "deep") == sample_contexts(
        contexts, limits, tree_key=f"deep:{n_leaves}")


@given(ast_trees(), st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=4),
       st.integers(min_value=1, max_value=6), st.text(max_size=4))
@settings(max_examples=200, deadline=None)
def test_counted_draw_matches_oracle(tree, max_nodes, width, max_contexts,
                                     label):
    limits = MinerLimits(max_path_nodes=max_nodes, max_path_width=width,
                         max_contexts=max_contexts)
    n_leaves = sum(1 for _ in tree.leaves())
    with pytest.MonkeyPatch.context() as patch:
        # with no pairs listed outright, every bag is counted and located
        patch.setattr(paths, "LIST_FACTOR", 0)
        contexts = mine(tree, limits, label)
    assert contexts == sample_contexts(
        oracle_enumerate(tree, max_nodes, width), limits,
        tree_key=f"{label}:{n_leaves}")


def else_if_probe(branches):
    """One method of `branches` if statements joined by else."""
    body = " else ".join(f"if (x == {i}) {{ y = {i}; }}"
                         for i in range(branches))
    source = (f"class Probe {{ int probe(int x) {{ int y = 0; {body} "
              "return y; } }")
    return split(build(source), "method")[0]


# SHA-256 of the repr lines of sample_contexts(enumerate_paths(...)) for the
# 1,000-branch probe at limits (60, 30), as the all-pairs miner drew them,
# with each context's strings joined as a code2seq line writes them
PROBE_60_30 = ("28177bd12e02dba8c02519352ff927f1"
               "4d17d0e486f9beb7ad6b23942a9c9b7f")


def test_miner_memory_does_not_grow_with_the_valid_pairs():
    # 4,008 leaves and 817,652 valid pairs: listing them all peaked at 82 MiB,
    # and counting them by bisection per ancestor at 11.9 MiB
    unit = else_if_probe(1000)
    limits = MinerLimits(max_path_nodes=60, max_path_width=30)
    tracemalloc.start()
    try:
        contexts = mine(unit, limits, "probe")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2**20
    assert len(contexts) == limits.max_contexts
    digest = hashlib.sha256(
        "\n".join(map(repr, contexts)).encode("utf-8")).hexdigest()
    assert digest == PROBE_60_30


def test_unbounded_path_length_allocates_nothing_per_limit(monkeypatch):
    limits = MinerLimits(max_path_nodes=10**9, max_path_width=3,
                         max_contexts=7)
    tree = binary_tree()
    tree.children.append(node("CODE_BLOCK", flat_tree(5)))
    want = oracle_enumerate(tree, limits.max_path_nodes,
                            limits.max_path_width)
    tracemalloc.start()
    try:
        assert enumerate_paths(tree, limits) == want
        monkeypatch.setattr(paths, "LIST_FACTOR", 0)
        contexts = mine(tree, limits, "wide")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert contexts == sample_contexts(want, limits, tree_key="wide:9")


def seed_sha256(message):
    """The digest of the SHA-256 that `paths` seeds its draws with."""
    return paths._load_sha256()(message).digest()


# the FIPS 180-4 examples: the empty message, "abc", and a 448-bit message
# whose padding takes a second block
@pytest.mark.parametrize("message,digest", [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc",
     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
])
def test_sha256_standard_vectors(message, digest):
    assert seed_sha256(message).hex() == digest


def test_sha256_matches_hashlib_across_padding_edges():
    # 55 bytes is the longest message whose length fits in its last block,
    # and 64 fills a block
    for size in range(201):
        message = bytes((7 * k + size) % 256 for k in range(size))
        assert seed_sha256(message) == hashlib.sha256(message).digest(), size


@pytest.mark.parametrize("key", ["0:é:3", "0:中:12", "7:\U0001d518:5",
                                 "-1:" + "é中\U0001d518" * 20 + ":9"])
def test_sha256_matches_hashlib_on_utf8_keys(key):
    message = key.encode("utf-8")
    assert seed_sha256(message) == hashlib.sha256(message).digest()


def test_draws_seed_from_cpythons_c_sha256():
    # `_sha2` from CPython 3.12 on, `_sha256` before
    assert paths._load_sha256().__module__ in ("_sha2", "_sha256")


def test_a_bag_within_the_cap_loads_no_sha256(monkeypatch):
    monkeypatch.setattr(paths, "_sha256", None)
    assert len(mine(binary_tree(), MinerLimits(max_contexts=6), "m")) == 6
    assert paths._sha256 is None
    assert len(mine(binary_tree(), MinerLimits(max_contexts=5), "m")) == 5
    assert paths._sha256 is not None


# tree keys of one and two blocks, ASCII or not: a seed's key is
# "rng_seed:label:leaf count", and 56 bytes or more take a second block
SAMPLER_KEYS = ["", "fib:12", "getName:7", "größe:4", "中文名:30",
                "\U0001d518:2", "x" * 51 + ":1", "x" * 52 + ":1",
                "getAVeryLongMethodNameThatFillsMoreThanOneBlock:1234",
                "名前" * 20 + ":64"]


def test_sampler_matches_hashlib_reference():
    indices = list(range(1000))
    for key in SAMPLER_KEYS:
        for n in (0, 1, 5, 6, 41, 1000):
            for seed in (0, 1, -7, 2**70):
                for cap in (1, 5, 40):
                    limits = MinerLimits(max_contexts=cap, rng_seed=seed)
                    assert sample_contexts(indices[:n], limits, key) == \
                        oracle_picks(n, cap, seed, key), (key, n, seed, cap)


def test_draws_fall_back_to_hashlib(monkeypatch):
    indices = list(range(1000))
    cases = [(key, n, seed, cap) for key in SAMPLER_KEYS
             for n in (6, 41, 1000) for seed in (0, -7, 2**70)
             for cap in (1, 5, 40)]

    def draws():
        return [sample_contexts(indices[:n], MinerLimits(
            max_contexts=cap, rng_seed=seed), key)
            for key, n, seed, cap in cases]

    want = draws()
    # a module that sys.modules maps to None fails to import
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setattr(paths, "_sha256", None)
    assert draws() == want
    assert paths._sha256 is hashlib.sha256


@given(st.integers(min_value=0, max_value=400),
       st.integers(min_value=1, max_value=40), st.integers(),
       st.text(max_size=40))
@settings(max_examples=300)
def test_sampler_matches_hashlib_reference_on_random_keys(n, cap, seed, key):
    limits = MinerLimits(max_contexts=cap, rng_seed=seed)
    assert sample_contexts(list(range(n)), limits, key) == \
        oracle_picks(n, cap, seed, key)


@given(ast_trees(), st.integers(min_value=1, max_value=6), st.integers(),
       st.sampled_from(["é", "中", "\U0001d518", "m" * 60, "中" * 20])
       | st.text(max_size=20), st.sampled_from([0, paths.LIST_FACTOR]))
@settings(max_examples=200, deadline=None)
def test_miner_draws_as_hashlib_reference(tree, max_contexts, seed, label,
                                          list_factor):
    limits = MinerLimits(max_contexts=max_contexts, rng_seed=seed)
    want = oracle_enumerate(tree, limits.max_path_nodes,
                            limits.max_path_width)
    n_leaves = sum(1 for _ in tree.leaves())
    with pytest.MonkeyPatch.context() as patch:
        # at 0 every bag is counted and located, not listed
        patch.setattr(paths, "LIST_FACTOR", list_factor)
        contexts = mine(tree, limits, label)
    assert contexts == [want[k] for k in oracle_picks(
        len(want), max_contexts, seed, f"{label}:{n_leaves}")]


def make_contexts(n):
    tree = flat_tree(n)
    return enumerate_paths(tree, WIDE_OPEN)


def test_sampling_under_limit_is_identity():
    contexts = make_contexts(5)  # 10 pairs
    limits = MinerLimits(max_contexts=200)
    assert sample_contexts(contexts, limits, tree_key="k") == contexts


def test_sampling_over_limit_size_and_subsequence():
    contexts = make_contexts(30)  # 435 pairs
    limits = MinerLimits(max_path_nodes=9, max_path_width=2, max_contexts=200)
    picked = sample_contexts(contexts, limits, tree_key="fib:12")
    assert len(picked) == 200
    pool = iter(contexts)
    assert all(ctx in pool for ctx in picked)


def test_sampling_deterministic():
    contexts = make_contexts(30)
    limits = MinerLimits(max_contexts=200)
    first = sample_contexts(contexts, limits, tree_key="fib:12")
    second = sample_contexts(contexts, limits, tree_key="fib:12")
    assert first == second


def test_sampling_depends_on_seed_and_key():
    contexts = make_contexts(30)
    base = sample_contexts(contexts, MinerLimits(max_contexts=200),
                           tree_key="fib:12")
    reseeded = sample_contexts(
        contexts, MinerLimits(max_contexts=200, rng_seed=1),
        tree_key="fib:12")
    rekeyed = sample_contexts(contexts, MinerLimits(max_contexts=200),
                              tree_key="other:3")
    assert base != reseeded
    assert base != rekeyed


def test_sampling_does_not_mutate_input():
    contexts = make_contexts(30)
    copy = list(contexts)
    sample_contexts(contexts, MinerLimits(max_contexts=10), tree_key="k")
    assert contexts == copy


@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=30))
@settings(max_examples=300)
def test_subtokens_always_normalized(token):
    parts = split_subtokens(token)
    assert parts
    for part in parts:
        assert part
        assert part == part.lower()
        assert part == "_" or part.isalnum()


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=40),
       st.integers(), st.text(max_size=10))
@settings(max_examples=120)
def test_sampling_properties(n, cap, seed, key):
    contexts = make_contexts(12)[:n]  # up to 60 distinct contexts
    limits = MinerLimits(max_contexts=cap, rng_seed=seed)
    picked = sample_contexts(contexts, limits, tree_key=key)
    assert len(picked) == min(len(contexts), cap)
    pool = iter(contexts)
    assert all(ctx in pool for ctx in picked)
