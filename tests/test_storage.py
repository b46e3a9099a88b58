import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemine import (LabeledTree, MinerLimits, PathContext, RunStatistics,
                      StorageSpec, annotate_types, count_nodes,
                      enumerate_paths, extract_method_name, extract_none,
                      mine, split)
from treemine import paths
from treemine.ast_builder import AstNode
from treemine.errors import SourceError
from treemine.storage import (JSONL_BATCH, finalize, format_code2seq,
                              format_jsonl_tree, format_sample)

from conftest import CORPUS_DIR, FIXTURES, GOLDEN_DIR, build, random_ast
from oracle_paths import oracle_enumerate, oracle_line, oracle_picks
from oracle_storage import dumps_jsonl_tree


def ctx(start, path, end, start_type="NO_TYPE", end_type="NO_TYPE"):
    return PathContext(start_token="|".join(start), start_type=start_type,
                       path="|".join(path), end_token="|".join(end),
                       end_type=end_type)


SAMPLE = LabeledTree("getCount", AstNode("METHOD_DECL"))
ONE_CTX = [ctx(["x"], ["IDENTIFIER", "ASSIGNMENT_EXPR", "LITERAL"], ["1"],
               start_type="int", end_type="int")]


def test_output_path_extension():
    spec = StorageSpec("code2seq", Path("/out"), "data")
    assert spec.output_path("train") == Path("/out/data.train.c2s")
    spec = StorageSpec("code2seq_typed", Path("/out"), "data")
    assert spec.output_path("val") == Path("/out/data.val.c2s")
    spec = StorageSpec("jsonl_trees", Path("/out"), "mine")
    assert spec.output_path("test") == Path("/out/mine.test.jsonl")


def test_code2seq_untyped_line():
    line = format_code2seq(SAMPLE, ONE_CTX, typed=False)
    assert line == "get|count x,IDENTIFIER|ASSIGNMENT_EXPR|LITERAL,1\n"


def test_code2seq_typed_line():
    line = format_code2seq(SAMPLE, ONE_CTX, typed=True)
    assert line == ("get|count "
                    "x,int,IDENTIFIER|ASSIGNMENT_EXPR|LITERAL,1,int\n")


def test_zero_contexts_is_label_then_newline():
    assert format_code2seq(SAMPLE, [], typed=False) == "get|count\n"
    assert format_code2seq(SAMPLE, [], typed=True) == "get|count\n"


def test_label_is_subtokenized():
    sample = LabeledTree("NO_LABEL", AstNode("FILE"))
    assert format_code2seq(sample, [], typed=False) == "no|label\n"


def test_multi_subtoken_endpoints():
    contexts = [ctx(["get", "items"], ["IDENTIFIER", "CODE_BLOCK",
                                       "IDENTIFIER"], ["item", "count"])]
    line = format_code2seq(SAMPLE, contexts, typed=False)
    assert line == ("get|count "
                    "get|items,IDENTIFIER|CODE_BLOCK|IDENTIFIER,item|count\n")


def test_generic_type_sanitized():
    # the miner writes a type as the line holds it
    tree = AstNode("CODE_BLOCK", children=[
        AstNode("IDENTIFIER", token="m",
                resolved_type="Map<String, List<Integer>>"),
        AstNode("IDENTIFIER", token="n", resolved_type="int[]")])
    contexts = enumerate_paths(tree, MinerLimits())
    line = format_code2seq(SAMPLE, contexts, typed=True)
    field = line.rstrip("\n").split(" ")[1]
    parts = field.split(",")
    assert parts == ["m", "Map<String;List<Integer>>",
                     "IDENTIFIER|CODE_BLOCK|IDENTIFIER", "n", "int[]"]


def test_line_field_grammar():
    contexts = [ctx(["a"], ["IDENTIFIER", "FILE", "IDENTIFIER"], ["b"]),
                ctx(["c"], ["IDENTIFIER", "FILE", "IDENTIFIER"], ["d"])]
    for typed, n_parts in ((False, 3), (True, 5)):
        line = format_code2seq(SAMPLE, contexts, typed=typed)
        assert line.endswith("\n")
        fields = line.rstrip("\n").split(" ")
        assert len(fields) == 3
        assert all(fields)
        for field in fields[1:]:
            assert len(field.split(",")) == n_parts


def test_operator_suffix_path_labels_pass_through():
    tree = AstNode("BINARY_EXPR:+", children=[
        AstNode("IDENTIFIER", token="x"),
        AstNode("LITERAL", token="1")])
    contexts = enumerate_paths(tree, MinerLimits(max_path_nodes=100))
    line = format_code2seq(LabeledTree("f", tree), contexts, typed=False)
    assert "IDENTIFIER|BINARY_EXPR:+|LITERAL" in line


# -- the text path: mined contexts to a code2seq line -------------------------

# types a line must rewrite: commas, and whitespace of every kind
AWKWARD_TYPES = ["Map<String, List<Integer>>", "Map<K,V>", " int ",
                 "Pair<A,\tB>\n", "int[]", "NO_TYPE", None]
# tokens that split to "_"
UNDERSCORE_TOKENS = ["_", "___", "$", ""]


def reference_line(sample, limits):
    """The line of sample, drawn from the reference contexts and joined by
    the reference's rules."""
    want = oracle_enumerate(sample.tree, limits.max_path_nodes,
                            limits.max_path_width)
    n_leaves = sum(1 for _ in sample.tree.leaves())
    picks = oracle_picks(len(want), limits.max_contexts, limits.rng_seed,
                         f"{sample.label}:{n_leaves}")
    return [oracle_line(sample.label, [want[k] for k in picks], typed)
            for typed in (False, True)]


def mined_line(sample, limits):
    contexts = mine(sample.tree, limits, sample.label)
    return [format_sample(sample, contexts, storage_format)
            for storage_format in ("code2seq", "code2seq_typed")]


@pytest.fixture
def located(monkeypatch):
    """The number of units whose drawn contexts mine counted, then located."""
    calls = [0]
    locate = paths._LeafIndex.locate

    def counting(self, counts, picks):
        calls[0] += 1
        return locate(self, counts, picks)

    monkeypatch.setattr(paths._LeafIndex, "locate", counting)
    return calls


def test_code2seq_lines_match_reference_on_random_trees(located):
    rng = random.Random(25)
    for case in range(300):
        tree = random_ast(rng, max_leaves=40)
        for leaf in tree.leaves():
            if rng.random() < 0.3:
                leaf.resolved_type = rng.choice(AWKWARD_TYPES)
            if rng.random() < 0.1:
                leaf.token = rng.choice(UNDERSCORE_TOKENS)
        sample = LabeledTree(rng.choice(["getCount", "_", "NO_LABEL"]), tree)
        limits = MinerLimits(max_path_nodes=rng.randint(3, 9),
                             max_path_width=rng.randint(1, 3),
                             max_contexts=rng.choice([1, 3, 200]),
                             rng_seed=rng.randint(0, 9))
        assert mined_line(sample, limits) == reference_line(sample, limits), \
            case
    # a unit of more than LIST_FACTOR * max_contexts leaf pairs is counted,
    # then its drawn pairs located
    assert located[0] > 30


@pytest.mark.parametrize("max_contexts", [200, 2])
def test_code2seq_lines_match_reference_on_corpus(located, max_contexts):
    limits = MinerLimits(max_contexts=max_contexts)
    n_units = 0
    awkward = False
    for path in sorted(CORPUS_DIR.glob("*.java")):
        tree = annotate_types(build(path.read_text(encoding="utf-8")))
        for unit in split(tree, "method"):
            sample = extract_method_name(unit)
            got = mined_line(sample, limits)
            assert got == reference_line(sample, limits), path.name
            awkward |= ";" in got[1]
            n_units += 1
    assert n_units > 50
    assert awkward  # some type held a comma
    if max_contexts == 2:
        assert located[0] > 10


def test_jsonl_single_leaf_exact_bytes():
    sample = LabeledTree("NO_LABEL", AstNode("IDENTIFIER", token="x"))
    assert format_jsonl_tree(sample) == \
        '[{"type":"IDENTIFIER","value":"x","label":"NO_LABEL"}]\n'


def test_jsonl_nested_tree():
    tree = AstNode("FILE", children=[
        AstNode("CLASS_DECL", children=[
            AstNode("IDENTIFIER", token="A", resolved_type="A")])])
    line = format_jsonl_tree(LabeledTree("NO_LABEL", tree))
    assert line == ('[{"type":"FILE","children":[1],"label":"NO_LABEL"},'
                    '{"type":"CLASS_DECL","children":[2]},'
                    '{"type":"IDENTIFIER","value":"A","token_type":"A"}]\n')


def test_jsonl_preorder_numbering():
    tree = AstNode("FILE", children=[
        AstNode("CLASS_DECL", children=[
            AstNode("IDENTIFIER", token="A"),
            AstNode("METHOD_DECL", children=[
                AstNode("IDENTIFIER", token="f")])]),
        AstNode("LINE_COMMENT", token="// x")])
    nodes = json.loads(format_jsonl_tree(LabeledTree("l", tree)))
    assert [n["type"] for n in nodes] == [
        "FILE", "CLASS_DECL", "IDENTIFIER", "METHOD_DECL", "IDENTIFIER",
        "LINE_COMMENT"]
    assert nodes[0]["children"] == [1, 5]
    assert nodes[1]["children"] == [2, 3]
    assert nodes[3]["children"] == [4]


def test_jsonl_key_order():
    tree = AstNode("FILE", children=[
        AstNode("IDENTIFIER", token="x", resolved_type="int")])
    nodes = json.loads(format_jsonl_tree(LabeledTree("l", tree)),
                       object_pairs_hook=list)
    root_keys = [k for k, _ in nodes[0]]
    leaf_keys = [k for k, _ in nodes[1]]
    assert root_keys == ["type", "children", "label"]
    assert leaf_keys == ["type", "value", "token_type"]


def test_jsonl_label_only_on_root():
    tree = AstNode("FILE", children=[AstNode("IDENTIFIER", token="x")])
    nodes = json.loads(format_jsonl_tree(LabeledTree("mark", tree)))
    assert nodes[0]["label"] == "mark"
    assert "label" not in nodes[1]


def test_jsonl_round_trips_to_equal_tree():
    tree = AstNode("FILE", children=[
        AstNode("METHOD_DECL", children=[
            AstNode("IDENTIFIER", token="f", resolved_type="void"),
            AstNode("CODE_BLOCK", children=[
                AstNode("LITERAL", token="1", resolved_type="int")])])])
    nodes = json.loads(format_jsonl_tree(LabeledTree("f", tree)))

    def rebuild(index):
        raw = nodes[index]
        node = AstNode(raw["type"], token=raw.get("value"),
                       resolved_type=raw.get("token_type"))
        if "children" in raw:
            node.children = [rebuild(c) for c in raw["children"]]
        return node

    assert rebuild(0) == tree



# every control character, quote, backslash, DEL, Latin, CJK and an astral
# character, which json escapes as a surrogate pair
AWKWARD = "".join(map(chr, range(32))) + '"\\/\x7fé中😀'


@pytest.mark.parametrize("text", [
    AWKWARD, "", '"', "\\", "\n\t", "\x00", "\x7f", "é", "中", "😀",
    "a\u2028b", "\ud800",
], ids=repr)
def test_jsonl_matches_json_dumps_on_awkward_text(text):
    tree = AstNode("BINARY_EXPR:||", children=[
        AstNode("LITERAL", token=text, resolved_type=text),
        AstNode(text, children=[AstNode("IDENTIFIER", token="x")])])
    for sample in (LabeledTree(text, tree),
                   LabeledTree("NO_LABEL", AstNode("LITERAL", token=text))):
        assert format_jsonl_tree(sample) == dumps_jsonl_tree(sample)


_TEXTS = st.text(alphabet=st.characters(codec="utf-8"), max_size=6)


@st.composite
def jsonl_trees(draw):
    """Trees of fan-out 0-4 and at most about 40 nodes with any text."""
    budget = draw(st.integers(min_value=1, max_value=40))

    def grow():
        nonlocal budget
        budget -= 1
        fan_out = draw(st.integers(min_value=0,
                                     max_value=max(0, min(4, budget))))
        node_type = draw(st.sampled_from(
            ["FILE", "BINARY_EXPR:||", "IDENTIFIER", "LITERAL"]))
        if fan_out == 0:
            return AstNode(node_type, token=draw(st.none() | _TEXTS),
                           resolved_type=draw(st.none() | _TEXTS))
        return AstNode(node_type, children=[grow() for _ in range(fan_out)])

    return LabeledTree(draw(_TEXTS), grow())


@given(jsonl_trees())
@settings(max_examples=200)
def test_jsonl_matches_json_dumps_on_random_trees(sample):
    assert format_jsonl_tree(sample) == dumps_jsonl_tree(sample)


def test_jsonl_matches_json_dumps_on_non_ascii_source():
    path = GOLDEN_DIR / "input" / "train" / "libA" / "util" / "Strings.java"
    text = path.read_text(encoding="utf-8")
    assert not text.isascii()
    tree = build(text)
    annotate_types(tree)
    sample = LabeledTree("NO_LABEL", tree)
    assert format_jsonl_tree(sample) == dumps_jsonl_tree(sample)


def wide_tree(n):
    """A tree of n nodes: a root over nodes of one leaf each, and a last
    leaf of its own where n is even."""
    if n == 1:
        return AstNode("IDENTIFIER", token="x")
    children = [AstNode("UNARY_EXPR:-", children=[
        AstNode("IDENTIFIER", token=f"v{i % 7}", resolved_type="int")])
        for i in range((n - 1) // 2)]
    if n % 2 == 0:
        children.append(AstNode("LITERAL", token="1", resolved_type="int"))
    return AstNode("FILE", children=children)


def deep_tree(n):
    """A chain of n nodes, each the one child of the one before."""
    tree = AstNode("LITERAL", token="0")
    for _ in range(n - 1):
        tree = AstNode("PAREN_EXPR", children=[tree])
    return tree


B = JSONL_BATCH


@pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B, 2 * B + 1])
@pytest.mark.parametrize("shape", [wide_tree, deep_tree])
def test_jsonl_matches_json_dumps_at_batch_boundaries(shape, n):
    sample = LabeledTree("lab\u00e9l", shape(n))
    assert count_nodes(sample.tree) == n
    line = format_jsonl_tree(sample)
    assert line == dumps_jsonl_tree(sample)
    assert len(json.loads(line)) == n


# every file of the fixtures and golden inputs, each written as one tree
SOURCE_FILES = sorted(FIXTURES.rglob("*.java")) + sorted(
    (GOLDEN_DIR / "input").rglob("*.java"))


def test_jsonl_matches_json_dumps_on_every_source_file():
    written = 0
    for path in SOURCE_FILES:
        try:
            tree = build(path.read_text(encoding="utf-8"))
        except SourceError:
            continue
        annotate_types(tree)
        [unit] = split(tree, "file")
        sample = extract_none(unit)
        assert format_jsonl_tree(sample) == dumps_jsonl_tree(sample), path
        written += 1
    assert written > 70


def test_format_sample_dispatch():
    sample = LabeledTree("f", AstNode("IDENTIFIER", token="x"))
    assert format_sample(sample, [], "code2seq") == "f\n"
    assert format_sample(sample, ONE_CTX, "code2seq_typed").count(",") == 4
    assert format_sample(sample, [], "jsonl_trees").startswith("[{")
    with pytest.raises(ValueError):
        format_sample(sample, [], "parquet")


def test_statistics_recording():
    stats = RunStatistics()
    assert stats.contexts_mean == 0.0
    stats.record_sample(10)
    stats.record_sample(2)
    stats.record_sample(6)
    assert stats.samples_written == 3
    assert stats.contexts_min == 2
    assert stats.contexts_max == 10
    assert stats.contexts_mean == 6.0
    stats.record_rejection("tree_size")
    stats.record_rejection("tree_size")
    stats.record_rejection("constructor")
    assert stats.filter_rejections == {"tree_size": 2, "constructor": 1}


def test_statistics_first_sample_sets_min():
    stats = RunStatistics()
    stats.record_sample(5)
    assert stats.contexts_min == 5
    assert stats.contexts_max == 5


def test_to_dict_sorts_rejections():
    stats = RunStatistics()
    stats.record_rejection("tree_size")
    stats.record_rejection("abstract_method")
    assert list(stats.to_dict()["filter_rejections"]) == [
        "abstract_method", "tree_size"]


def test_to_dict_keys_follow_the_fields():
    assert list(RunStatistics().to_dict()) == [
        "files_seen", "files_parsed", "parse_failures",
        "trees_before_filters", "trees_after_filters", "samples_written",
        "filter_rejections", "contexts_min", "contexts_max", "contexts_mean"]


def test_finalize_writes_summary_and_stats_file(tmp_path):
    stats = RunStatistics(files_seen=3, files_parsed=2, parse_failures=1)
    stats.record_sample(4)
    stats.record_rejection("tree_size")
    sink = io.StringIO()
    finalize(stats, sink, tmp_path, [])
    text = sink.getvalue()
    assert text.startswith("run statistics:\n")
    assert "files seen:           3" in text
    assert "rejected by tree_size: 1" in text
    on_disk = json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))
    assert list(on_disk.items()) == list(stats.to_dict().items())
    raw = (tmp_path / "stats.json").read_text(encoding="utf-8")
    assert raw.endswith("\n")
    assert raw.startswith("{\n  ")


def test_finalize_prints_every_counter(tmp_path):
    stats = RunStatistics(files_seen=5, files_parsed=4, parse_failures=1,
                          trees_before_filters=6, trees_after_filters=3)
    for n in (2, 7, 3):
        stats.record_sample(n)
    stats.record_rejection("tree_size")
    stats.record_rejection("constructor")
    stats.record_rejection("tree_size")
    sink = io.StringIO()
    finalize(stats, sink, tmp_path, [])
    assert sink.getvalue() == (
        "run statistics:\n"
        "  files seen:           5\n"
        "  files parsed:         4\n"
        "  parse failures:       1\n"
        "  trees before filters: 6\n"
        "  trees after filters:  3\n"
        "  samples written:      3\n"
        "  contexts per sample:  min 2 / mean 4.00 / max 7\n"
        "  rejected by constructor: 1\n"
        "  rejected by tree_size: 2\n")


def test_finalize_prints_empty_statistics(tmp_path):
    sink = io.StringIO()
    finalize(RunStatistics(), sink, tmp_path, [])
    assert sink.getvalue() == (
        "run statistics:\n"
        "  files seen:           0\n"
        "  files parsed:         0\n"
        "  parse failures:       0\n"
        "  trees before filters: 0\n"
        "  trees after filters:  0\n"
        "  samples written:      0\n"
        "  contexts per sample:  min 0 / mean 0.00 / max 0\n")
