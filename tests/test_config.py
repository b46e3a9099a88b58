import json
import os

import pytest

from treemine import ConfigError, load_config, validate_config
from treemine import config as config_module
from treemine.cst import CstKind

from conftest import base_config, write_config


def valid(**overrides):
    return base_config("/tmp/in", "/tmp/out", **overrides)


def problems_of(cfg):
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    return info.value.problems


def test_minimal_config_defaults():
    config = validate_config({"input_dir": "in", "output_dir": "out",
                              "granularity": "file",
                              "storage": {"format": "code2seq"}})
    assert config.dataset_name == "dataset"
    assert config.source_extensions == (".java",)
    assert config.ignore == frozenset(
        {CstKind.KEYWORD, CstKind.PUNCTUATION, CstKind.OPERATOR})
    assert config.filters == ()
    assert config.extractor_name == "none"
    assert config.name_token == "METHOD_NAME"
    assert config.recursion_token == "SELF"
    assert config.miner.max_path_nodes == 9
    assert config.miner.max_path_width == 2
    assert config.miner.max_contexts == 200
    assert config.miner.rng_seed == 0
    assert config.storage_format == "code2seq"
    assert config.parallelism == 1


def test_full_config_round_trip():
    config = validate_config(valid(
        dataset_name="corpus",
        source_extensions=[".java", ".jav"],
        ignore_node_kinds=["KEYWORD", "PUNCTUATION", "OPERATOR",
                           "LINE_COMMENT"],
        filters=[{"name": "tree_size",
                  "parameters": {"max_nodes": 300, "min_nodes": 5}},
                 {"name": "constructor"}],
        label_extractor={"name": "method_name", "name_token": "NAME",
                         "recursion_token": "REC"},
        miner={"max_path_nodes": 7, "max_path_width": 3,
               "max_contexts": 100, "rng_seed": 9},
        parallelism=4,
    ))
    assert config.dataset_name == "corpus"
    assert config.source_extensions == (".java", ".jav")
    assert CstKind.LINE_COMMENT in config.ignore
    assert [f.name for f in config.filters] == ["tree_size", "constructor"]
    assert config.filters[0].max_nodes == 300
    assert config.filters[0].min_nodes == 5
    assert config.name_token == "NAME"
    assert config.recursion_token == "REC"
    assert config.miner.max_path_nodes == 7
    assert config.miner.rng_seed == 9
    assert config.parallelism == 4


def test_storage_spec_paths():
    config = validate_config(valid(dataset_name="mine"))
    spec = config.storage_spec()
    assert spec.output_path("train").name == "mine.train.c2s"


def test_root_must_be_object():
    with pytest.raises(ConfigError):
        validate_config(["not", "an", "object"])


def test_all_missing_keys_reported_at_once():
    problems = problems_of({})
    text = "\n".join(problems)
    assert "missing required key: input_dir" in text
    assert "missing required key: output_dir" in text
    assert "granularity" in text
    assert "missing required key: storage" in text
    assert len(problems) >= 4


def test_unknown_top_level_key():
    problems = problems_of(valid(fiters=[]))
    assert any("unknown configuration keys: fiters" in p for p in problems)


def test_non_string_paths():
    problems = problems_of({**valid(), "input_dir": 4, "output_dir": ""})
    assert any("input_dir must be a nonempty string" in p for p in problems)
    assert any("output_dir must be a nonempty string" in p for p in problems)


@pytest.mark.parametrize("bad", [[], ["java"], [".x", 3], "java", [""]])
def test_bad_source_extensions(bad):
    problems = problems_of(valid(source_extensions=bad))
    assert any("source_extensions" in p for p in problems)


def test_ignore_rejects_file_kind():
    problems = problems_of(valid(ignore_node_kinds=["FILE", "KEYWORD"]))
    assert any("FILE cannot be ignored" in p for p in problems)


def test_ignore_rejects_unknown_kind():
    problems = problems_of(valid(ignore_node_kinds=["KEYWORD", "NOISE"]))
    assert any("NOISE" in p for p in problems)


def test_empty_ignore_list_is_valid():
    config = validate_config(valid(ignore_node_kinds=[]))
    assert config.ignore == frozenset()


def test_bad_granularity():
    problems = problems_of(
        {**valid(), "granularity": "token", "label_extractor": {"name": "none"}})
    assert any("granularity must be one of file, class, method" in p
               for p in problems)


def test_filters_must_be_list():
    problems = problems_of(valid(filters={"name": "tree_size"}))
    assert any("filters must be a list" in p for p in problems)


def test_filter_entry_problems_are_indexed():
    problems = problems_of(valid(filters=[
        "nope",
        {"name": "bogus"},
        {"name": "tree_size", "parameters": {"max_nodes": 10},
         "extra": True},
        {"name": "code_lines", "parameters": {"max_nodes": 5}},
    ]))
    text = "\n".join(problems)
    assert "filters[0] must be an object" in text
    assert "filters[1]: name must be one of" in text
    assert "filters[2]: unknown keys: extra" in text
    assert "filters[3]: unknown parameters for code_lines: max_nodes" in text


def test_tree_size_needs_positive_max():
    problems = problems_of(valid(filters=[{"name": "tree_size"}]))
    assert any("tree_size needs positive max_nodes" in p for p in problems)
    problems = problems_of(valid(
        filters=[{"name": "tree_size", "parameters": {"max_nodes": 0}}]))
    assert any("positive max_nodes" in p for p in problems)


def test_tree_size_min_checks():
    problems = problems_of(valid(filters=[
        {"name": "tree_size", "parameters": {"max_nodes": 5,
                                             "min_nodes": 10}}]))
    assert any("min_nodes exceeds max_nodes" in p for p in problems)


def test_method_only_filters_need_method_granularity():
    problems = problems_of({
        **valid(),
        "granularity": "class",
        "label_extractor": {"name": "none"},
        "filters": [{"name": "abstract_method"}, {"name": "constructor"}],
    })
    assert any("filters requiring method granularity" in p for p in problems)


def test_method_name_extractor_needs_method_granularity():
    problems = problems_of({
        **valid(),
        "granularity": "file",
    })
    assert any("requires" in p and "method" in p for p in problems)


# Ignore lists under which a method's first IDENTIFIER leaf child is not its
# name: none at all, a return type's name, or an annotation's name.
@pytest.mark.parametrize("ignored, problem", [
    (["IDENTIFIER"], "ignoring IDENTIFIER leaves a method no name leaf"),
    (["TYPE_REF"], "ignoring TYPE_REF can label a method by its return type"),
    (["MODIFIER_LIST", "ANNOTATION"], "ignoring MODIFIER_LIST and ANNOTATION "
     "can label a method by its annotation"),
], ids=["identifier", "type_ref", "modifier_list_and_annotation"])
def test_method_name_extractor_rejects_ignore_lists_that_hide_the_name(
        ignored, problem):
    problems = problems_of(valid(ignore_node_kinds=["KEYWORD", *ignored]))
    assert problems == ["label_extractor method_name: " + problem]
    # without the extractor the same ignore list is valid
    validate_config(valid(ignore_node_kinds=["KEYWORD", *ignored],
                          label_extractor={"name": "none"}))


# With both kinds ignored, an annotation's name is the first IDENTIFIER child
# of its declaration, so the type walk would bind it in place of the
# declaration's name: `@Deprecated int f()` would type `Deprecated` as int.
@pytest.mark.parametrize("storage", ["code2seq_typed", "jsonl_trees"])
def test_typed_formats_reject_ignore_lists_that_hide_the_name(storage):
    def config(**overrides):
        return valid(label_extractor={"name": "none"},
                     storage={"format": storage}, **overrides)

    ignored = ["KEYWORD", "MODIFIER_LIST", "ANNOTATION"]
    assert problems_of(config(ignore_node_kinds=ignored)) == [
        f"storage {storage}: ignoring MODIFIER_LIST and ANNOTATION can type "
        "a declaration's annotation in place of its name"]
    # either kind alone is valid, and so are both for untyped code2seq
    assert validate_config(config(ignore_node_kinds=ignored[:2]))
    assert validate_config(config(ignore_node_kinds=ignored[::2]))
    assert validate_config(valid(label_extractor={"name": "none"},
                                 ignore_node_kinds=ignored))


@pytest.mark.parametrize("kind", ["MODIFIER_LIST", "ANNOTATION"])
def test_method_name_extractor_accepts_either_modifier_kind_alone(kind):
    assert validate_config(valid(ignore_node_kinds=["KEYWORD", kind]))


# Ignore lists under which a filter cannot see what it looks for: with
# ANNOTATION or IDENTIFIER ignored no method carries @Override, and with
# CODE_BLOCK ignored no method has a body, so every method looks abstract.
# The method_name extractor rejects IDENTIFIER itself, so that case runs
# with the none extractor.
@pytest.mark.parametrize("name, kind, extractor, problem", [
    ("override_method", "ANNOTATION", "method_name",
     "filter override_method: ignoring ANNOTATION keeps every @Override "
     "method"),
    ("override_method", "IDENTIFIER", "none",
     "filter override_method: ignoring IDENTIFIER keeps every @Override "
     "method"),
    ("abstract_method", "CODE_BLOCK", "method_name",
     "filter abstract_method: ignoring CODE_BLOCK rejects every method "
     "as abstract"),
], ids=["override_annotation", "override_identifier", "abstract_code_block"])
def test_filters_reject_ignore_lists_that_defeat_them(name, kind, extractor,
                                                      problem):
    def config(**overrides):
        return valid(label_extractor={"name": extractor}, **overrides)

    ignored = ["KEYWORD", "PUNCTUATION", "OPERATOR", kind]
    problems = problems_of(config(ignore_node_kinds=ignored,
                                  filters=[{"name": name}]))
    assert problems == [problem]
    # the filter without the kind, and the kind without the filter, are valid
    assert validate_config(config(filters=[{"name": name}]))
    assert validate_config(config(ignore_node_kinds=ignored))
    assert validate_config(config(ignore_node_kinds=ignored,
                                  filters=[{"name": "constructor"}]))


# Ignore lists that remove the units of the granularity: with CLASS_DECL
# ignored a file has no class units, and with METHOD_DECL ignored only the
# constructors are left as method units.
@pytest.mark.parametrize("granularity, kind, problem", [
    ("class", "CLASS_DECL",
     "granularity class: ignoring CLASS_DECL leaves no class units"),
    ("method", "METHOD_DECL",
     "granularity method: ignoring METHOD_DECL leaves only constructors "
     "as method units"),
], ids=["class_decl", "method_decl"])
def test_granularities_reject_ignore_lists_that_remove_their_units(
        granularity, kind, problem):
    def config(**overrides):
        return valid(granularity=granularity,
                     label_extractor={"name": "none"}, **overrides)

    ignored = ["KEYWORD", "PUNCTUATION", "OPERATOR", kind]
    assert problems_of(config(ignore_node_kinds=ignored)) == [problem]
    # the granularity without the kind, and the kind at file granularity,
    # are valid
    assert validate_config(config())
    assert validate_config(valid(granularity="file", ignore_node_kinds=ignored,
                                 label_extractor={"name": "none"}))


def test_extractor_unknown_name():
    problems = problems_of(valid(label_extractor={"name": "tfidf"}))
    assert any("label_extractor.name must be one of none, method_name" in p
               for p in problems)


def test_extractor_tokens_only_for_method_name():
    problems = problems_of({
        **valid(),
        "granularity": "file",
        "label_extractor": {"name": "none", "name_token": "X"},
    })
    assert any("name_token only applies" in p for p in problems)


def test_extractor_tokens_must_be_nonempty():
    problems = problems_of(valid(
        label_extractor={"name": "method_name", "recursion_token": ""}))
    assert any("recursion_token must be a nonempty string" in p
               for p in problems)


def test_miner_validation():
    problems = problems_of(valid(miner={
        "max_path_nodes": 0, "max_path_width": -1, "max_contexts": 0,
        "rng_seed": "zero", "bogus": 1}))
    text = "\n".join(problems)
    assert "miner.max_path_nodes must be an integer >= 1" in text
    assert "miner.max_path_width must be an integer >= 0" in text
    assert "miner.max_contexts must be an integer >= 1" in text
    assert "miner.rng_seed must be an integer" in text
    assert "miner: unknown keys: bogus" in text


def test_miner_width_zero_is_valid():
    config = validate_config(valid(miner={"max_path_width": 0}))
    assert config.miner.max_path_width == 0


def test_booleans_are_not_integers():
    problems = problems_of(valid(miner={"rng_seed": True}))
    assert any("rng_seed" in p for p in problems)
    problems = problems_of(valid(parallelism=True))
    assert any("parallelism" in p for p in problems)


@pytest.mark.parametrize("bad", [0, -2, "4", 1.5])
def test_bad_parallelism(bad):
    problems = problems_of(valid(parallelism=bad))
    assert any("parallelism must be a positive integer" in p
               for p in problems)


def test_storage_validation():
    problems = problems_of({**valid(), "storage": {"format": "csv"}})
    assert any("storage.format must be one of code2seq, code2seq_typed, "
               "jsonl_trees" in p for p in problems)
    problems = problems_of({**valid(), "storage": {"format": "code2seq",
                                                   "path": "x"}})
    assert any("storage: unknown keys: path" in p for p in problems)


def test_error_message_joins_problems():
    with pytest.raises(ConfigError) as info:
        validate_config({})
    assert "; " in str(info.value)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(tmp_path / "absent.json")
    assert "cannot read configuration file" in str(info.value)


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert "configuration is not valid JSON" in str(info.value)


def test_load_config_valid_file(tmp_path):
    path = write_config(tmp_path, valid())
    config = load_config(path)
    assert config.granularity == "method"
    assert config.extractor_name == "method_name"


def _count_reads(monkeypatch):
    """Count the bytes load_config reads; the counter is a one-item list."""
    read = [0]

    class Counting:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def read(self, size):
            data = self.handle.read(size)
            read[0] += len(data)
            return data

    monkeypatch.setattr(config_module, "open",
                        lambda *args: Counting(open(*args)), raising=False)
    return read


def test_load_config_file_at_and_over_the_size_bound(tmp_path, monkeypatch):
    bound = config_module.MAX_CONFIG_BYTES
    read = _count_reads(monkeypatch)
    at_bound = tmp_path / "at.json"
    text = json.dumps(valid())
    at_bound.write_text(text + " " * (bound - len(text)), encoding="utf-8")
    assert at_bound.stat().st_size == bound
    assert load_config(at_bound).granularity == "method"
    over = tmp_path / "over.json"
    over.write_text(text + " " * (bound + 1 - len(text)), encoding="utf-8")
    read[0] = 0
    with pytest.raises(ConfigError) as info:
        load_config(over)
    assert str(info.value) == (f"configuration file is larger than the "
                               f"{bound}-byte bound")
    assert read[0] == bound + 1


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_load_config_reads_an_endless_file_only_to_the_bound(monkeypatch):
    read = _count_reads(monkeypatch)
    with pytest.raises(ConfigError) as info:
        load_config("/dev/zero")
    assert "larger than the" in str(info.value)
    assert read[0] == config_module.MAX_CONFIG_BYTES + 1


_FILTER_NAMES = ("tree_size, code_lines, abstract_method, override_method, "
                 "constructor")
_NO_STORAGE = {k: v for k, v in valid().items() if k != "storage"}


# Complete problem lists, order included: validation reports every problem,
# in the order of the keys it checks, then the cross-key conflicts.
@pytest.mark.parametrize("cfg, expected", [
    ({}, [
        "missing required key: input_dir",
        "missing required key: output_dir",
        "granularity must be one of file, class, method",
        "missing required key: storage",
    ]),
    (valid(filters=["x", 3, None], label_extractor=[], miner=3,
           storage="code2seq"), [
        "filters[0] must be an object",
        "filters[1] must be an object",
        "filters[2] must be an object",
        "label_extractor must be an object",
        "miner must be an object",
        "storage must be an object",
    ]),
    (valid(filters={"name": "tree_size"}), ["filters must be a list"]),
    (valid(label_extractor=None), ["label_extractor must be an object"]),
    (valid(miner=None), ["miner must be an object"]),
    (_NO_STORAGE, ["missing required key: storage"]),
    (valid(storage=None), ["missing required key: storage"]),
    (valid(storage={}), [
        "storage.format must be one of code2seq, code2seq_typed, jsonl_trees",
    ]),
    (valid(fiters=[], zeta=1,
           filters=[{"name": "tree_size", "extra": True,
                     "parameters": {"max_nodes": 5, "maxnodes": 3}},
                    {"name": "constructor", "parameters": {"x": 1}}],
           label_extractor={"name": "method_name", "nme": "x"},
           miner={"seed": 1, "bogus": 2},
           storage={"format": "code2seq", "path": "x"}), [
        "unknown configuration keys: fiters, zeta",
        "filters[0]: unknown keys: extra",
        "filters[0]: unknown parameters for tree_size: maxnodes",
        "filters[1]: unknown parameters for constructor: x",
        "label_extractor: unknown keys: nme",
        "miner: unknown keys: bogus, seed",
        "storage: unknown keys: path",
    ]),
    ({"input_dir": 4, "output_dir": "", "dataset_name": "",
      "source_extensions": ["java"], "ignore_node_kinds": "KEYWORD",
      "granularity": "token", "label_extractor": {"name": "none"},
      "storage": {"format": "csv"}, "parallelism": 0}, [
        "input_dir must be a nonempty string",
        "output_dir must be a nonempty string",
        "dataset_name must be a nonempty string",
        "source_extensions must be a nonempty list of extensions "
        "starting with '.'",
        "ignore_node_kinds must be a list of node kind names",
        "granularity must be one of file, class, method",
        "storage.format must be one of code2seq, code2seq_typed, jsonl_trees",
        "parallelism must be a positive integer",
    ]),
    (valid(ignore_node_kinds=["FILE", "NOISE", "KEYWORD", "BOGUS"]), [
        "FILE cannot be ignored: it is the tree root",
        "unknown node kinds in ignore list: BOGUS, NOISE",
    ]),
    (valid(filters=[
        {"name": "bogus"},
        {},
        {"name": "tree_size", "parameters": []},
        {"name": "tree_size"},
        {"name": "tree_size", "parameters": {"max_nodes": 0, "min_nodes": 0}},
        {"name": "tree_size", "parameters": {"max_nodes": 5, "min_nodes": 10}},
        {"name": "tree_size", "parameters": {"max_nodes": True}},
        {"name": "code_lines"},
        {"name": "code_lines", "parameters": {"max_lines": -1}},
        {"name": "code_lines", "parameters": {"max_nodes": 5}},
        {"name": "abstract_method", "parameters": {"max_lines": 3}},
    ]), [
        "filters[0]: name must be one of " + _FILTER_NAMES,
        "filters[1]: name must be one of " + _FILTER_NAMES,
        "filters[2]: parameters must be an object",
        "filters[3]: tree_size needs positive max_nodes",
        "filters[4]: tree_size needs positive max_nodes",
        "filters[4]: min_nodes must be positive",
        "filters[5]: min_nodes exceeds max_nodes",
        "filters[6]: tree_size needs positive max_nodes",
        "filters[7]: code_lines needs positive max_lines",
        "filters[8]: code_lines needs positive max_lines",
        "filters[9]: unknown parameters for code_lines: max_nodes",
        "filters[10]: unknown parameters for abstract_method: max_lines",
    ]),
    (valid(label_extractor={"name": "tfidf", "name_token": "X"}), [
        "label_extractor.name must be one of none, method_name",
        "label_extractor.name_token only applies to the method_name extractor",
    ]),
    (valid(granularity="file",
           label_extractor={"name": "none", "name_token": "X",
                            "recursion_token": ""}), [
        "label_extractor.name_token only applies to the method_name extractor",
        "label_extractor.recursion_token only applies to the method_name "
        "extractor",
    ]),
    (valid(label_extractor={"name": "method_name", "name_token": "",
                            "recursion_token": 5}), [
        "label_extractor.name_token must be a nonempty string",
        "label_extractor.recursion_token must be a nonempty string",
    ]),
    (valid(miner={"max_path_nodes": 0, "max_path_width": -1,
                  "max_contexts": 1.5, "rng_seed": True}), [
        "miner.max_path_nodes must be an integer >= 1",
        "miner.max_path_width must be an integer >= 0",
        "miner.max_contexts must be an integer >= 1",
        "miner.rng_seed must be an integer",
    ]),
    (valid(parallelism="4"), ["parallelism must be a positive integer"]),
    (valid(granularity="file", filters=[{"name": "override_method"},
                                        {"name": "abstract_method"},
                                        {"name": "override_method"}]), [
        "label_extractor method_name requires granularity \"method\"",
        "filters requiring method granularity: abstract_method, "
        "override_method",
    ]),
    (valid(granularity="class",
           ignore_node_kinds=["IDENTIFIER", "TYPE_REF", "MODIFIER_LIST",
                              "ANNOTATION", "CODE_BLOCK"],
           filters=[{"name": "override_method"},
                    {"name": "abstract_method"}]), [
        "label_extractor method_name requires granularity \"method\"",
        "label_extractor method_name: ignoring IDENTIFIER leaves a method "
        "no name leaf",
        "label_extractor method_name: ignoring TYPE_REF can label a method "
        "by its return type",
        "label_extractor method_name: ignoring MODIFIER_LIST and ANNOTATION "
        "can label a method by its annotation",
        "filter override_method: ignoring ANNOTATION keeps every @Override "
        "method",
        "filter override_method: ignoring IDENTIFIER keeps every @Override "
        "method",
        "filter abstract_method: ignoring CODE_BLOCK rejects every method "
        "as abstract",
        "filters requiring method granularity: abstract_method, "
        "override_method",
    ]),
    (valid(dataset_name="../escaped"),
     ["dataset_name must be a file name, not a path"]),
    (valid(dataset_name="sub/x"),
     ["dataset_name must be a file name, not a path"]),
    # the operating system takes a path as UTF-8 ended by NUL
    ({**valid(), "input_dir": "in\0", "output_dir": "/tmp/\0out",
      "dataset_name": "d\0"}, [
        "input_dir must not hold NUL or text UTF-8 cannot encode",
        "output_dir must not hold NUL or text UTF-8 cannot encode",
        "dataset_name must not hold NUL or text UTF-8 cannot encode",
    ]),
    ({**valid(), "input_dir": "in\ud800", "output_dir": "/tmp/\udcffout",
      "dataset_name": "a\udfff"}, [
        "input_dir must not hold NUL or text UTF-8 cannot encode",
        "output_dir must not hold NUL or text UTF-8 cannot encode",
        "dataset_name must not hold NUL or text UTF-8 cannot encode",
    ]),
], ids=["empty", "sections_not_objects", "filters_not_list",
        "label_extractor_null", "miner_null", "storage_missing",
        "storage_null", "storage_empty", "unknown_keys_everywhere",
        "bad_top_values", "bad_ignore_kinds", "bad_filter_entries",
        "bad_extractor_name", "extractor_tokens_under_none",
        "extractor_tokens_under_method_name", "bad_miner_values",
        "bad_parallelism", "method_only_on_file", "ignore_conflicts",
        "dataset_name_in_parent", "dataset_name_in_subdirectory",
        "paths_holding_nul", "paths_holding_lone_surrogates"])
def test_complete_problem_lists(cfg, expected):
    assert problems_of(cfg) == expected
