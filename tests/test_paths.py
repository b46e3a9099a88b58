import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemine import (MinerLimits, NO_TYPE, enumerate_paths, mine,
                      sample_contexts, split_subtokens)
from treemine.ast_builder import AstNode

from conftest import random_ast
from oracle_paths import oracle_enumerate

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


def test_single_leaf_no_contexts():
    assert enumerate_paths(leaf("IDENTIFIER", "x"), WIDE_OPEN) == []


def test_assignment_example():
    tree = node("ASSIGNMENT_EXPR",
                node("REFERENCE_EXPR", leaf("IDENTIFIER", "x")),
                leaf("LITERAL", "1"))
    contexts = enumerate_paths(tree, WIDE_OPEN)
    assert len(contexts) == 1
    ctx = contexts[0]
    assert ctx.start_token == ("x",)
    assert ctx.path == ("IDENTIFIER", "REFERENCE_EXPR", "ASSIGNMENT_EXPR",
                        "LITERAL")
    assert ctx.end_token == ("1",)
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
    assert sibling.path == ("IDENTIFIER", "CODE_BLOCK", "IDENTIFIER")
    cross = contexts[1]  # (a, c)
    assert cross.path == ("IDENTIFIER", "CODE_BLOCK", "FILE", "CODE_BLOCK",
                          "IDENTIFIER")


def test_contexts_ordered_by_leaf_indices():
    contexts = enumerate_paths(binary_tree(), WIDE_OPEN)
    pairs = [(c.start_token[0], c.end_token[0]) for c in contexts]
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
    assert ctx.start_token == ("get", "items", "count")
    assert ctx.end_token == ("snake", "case")


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
