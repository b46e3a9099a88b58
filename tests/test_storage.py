import io
import json
from pathlib import Path

import pytest

from treemine import (LabeledTree, MinerLimits, PathContext, RunStatistics,
                      StorageSpec, enumerate_paths)
from treemine.ast_builder import AstNode
from treemine.storage import (finalize, format_code2seq, format_jsonl_tree,
                              format_sample)


def ctx(start, path, end, start_type="NO_TYPE", end_type="NO_TYPE"):
    return PathContext(start_token=tuple(start), start_type=start_type,
                       path=tuple(path), end_token=tuple(end),
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
    contexts = [ctx(["m"], ["IDENTIFIER"], ["n"],
                    start_type="Map<String, List<Integer>>",
                    end_type="int[]")]
    line = format_code2seq(SAMPLE, contexts, typed=True)
    field = line.rstrip("\n").split(" ")[1]
    parts = field.split(",")
    assert parts == ["m", "Map<String;List<Integer>>", "IDENTIFIER", "n",
                     "int[]"]


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
        return AstNode(raw["type"], token=raw.get("value"),
                       resolved_type=raw.get("token_type"),
                       children=[rebuild(c) for c in raw.get("children", [])])

    assert rebuild(0) == tree


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
    assert on_disk == stats.to_dict()
    raw = (tmp_path / "stats.json").read_text(encoding="utf-8")
    assert raw.endswith("\n")
    assert raw.startswith("{\n  ")
