import importlib.util
import io
import json
import logging
from pathlib import Path

import pytest

from treemine import (ConfigError, CstNode, parse_file, pipeline, run,
                      validate_config)
from treemine.pipeline import (LOOSE_PROJECT, SPLIT_NAMES, discover_projects,
                               discover_splits, process_file)

from conftest import FIXTURES, GOLDEN_DIR, base_config, write_files

ROOT = Path(__file__).resolve().parent.parent

RECURSIVE = """class A {
    int fib(int n) {
        if (n < 2) {
            return n;
        }
        return fib(n - 1) + fib(n - 2);
    }

    void plain() {
        x = 2;
    }
}
"""

CTOR = """class B {
    int v;

    B() {
        v = 0;
    }

    int value() {
        return v;
    }
}
"""

ABSTRACT = "abstract class C {\n    abstract int size();\n}\n"
LOOSE = "class Z {\n    void zTop() {\n        a = 1;\n    }\n}\n"
BROKEN = "class Broken {\n    int\n}\n"


def small_corpus(root):
    write_files(root, {
        "loose_z.java": LOOSE,
        "p_alpha/A.java": RECURSIVE,
        "p_alpha/sub/B.java": CTOR,
        "p_beta/C.java": ABSTRACT,
        "p_beta/bad.java": BROKEN,
    })


def run_config(tmp_path, **overrides):
    in_dir = tmp_path / "in"
    out_dir = tmp_path / "out"
    in_dir.mkdir(exist_ok=True)
    small_corpus(in_dir)
    config = validate_config(base_config(in_dir, out_dir, **overrides))
    stats = run(config, summary_sink=io.StringIO())
    return stats, out_dir


def labels_in(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(" ")[0] for line in lines]


def test_split_names_order():
    assert SPLIT_NAMES == ("train", "val", "test")


def test_discover_splits_prefers_named_dirs(tmp_path):
    for name in ("train", "test", "extra"):
        (tmp_path / name).mkdir()
    found = discover_splits(tmp_path)
    assert found == [("train", tmp_path / "train"),
                     ("test", tmp_path / "test")]


def test_discover_splits_falls_back_to_data(tmp_path):
    (tmp_path / "proj").mkdir()
    assert discover_splits(tmp_path) == [("data", tmp_path)]


def test_discover_projects_order(tmp_path):
    write_files(tmp_path, {
        "zz.java": "class A { }",
        "aa.java": "class B { }",
        "beta/x.java": "class C { }",
        "alpha/deep/y.java": "class D { }",
        "alpha/a.java": "class E { }",
        "notes.txt": "skip me",
    })
    projects = discover_projects(tmp_path, (".java",))
    assert [name for name, _ in projects] == [LOOSE_PROJECT, "alpha", "beta"]
    loose_files = [p.name for p in projects[0][1]]
    assert loose_files == ["aa.java", "zz.java"]
    alpha_files = [p.relative_to(tmp_path).as_posix()
                   for p in projects[1][1]]
    assert alpha_files == ["alpha/a.java", "alpha/deep/y.java"]


def test_discover_projects_extension_filter(tmp_path):
    write_files(tmp_path, {"a.java": "x", "b.jav": "y", "c.txt": "z"})
    projects = discover_projects(tmp_path, (".jav",))
    names = [p.name for p in projects[0][1]]
    # endswith matching means .java also ends with .jav? it does not
    assert names == ["b.jav"]


def test_process_file_happy(tmp_path):
    path = tmp_path / "A.java"
    path.write_text(RECURSIVE, encoding="utf-8")
    config = validate_config(base_config(tmp_path, tmp_path / "out"))
    result = process_file(path, "A.java", config)
    assert result.error is None
    assert result.relpath == "A.java"
    assert len(result.units) == 2
    assert all(u.rejected_by is None for u in result.units)
    assert result.units[0].line.startswith("fib ")


def test_process_file_parse_error(tmp_path):
    path = tmp_path / "bad.java"
    path.write_text(BROKEN, encoding="utf-8")
    config = validate_config(base_config(tmp_path, tmp_path / "out"))
    result = process_file(path, "bad.java", config)
    assert result.error is not None
    assert "line" in result.error
    assert result.units == []


def test_process_file_invalid_utf8(tmp_path):
    path = tmp_path / "latin.java"
    path.write_bytes(b"class A { // caf\xe9\n }")
    config = validate_config(base_config(tmp_path, tmp_path / "out"))
    result = process_file(path, "latin.java", config)
    assert result.error is not None
    assert "UTF-8" in result.error


def test_run_end_to_end_counts(tmp_path):
    stats, out_dir = run_config(tmp_path)
    assert stats.files_seen == 5
    assert stats.files_parsed == 4
    assert stats.parse_failures == 1
    assert stats.trees_before_filters == 6
    assert stats.trees_after_filters == 6
    assert stats.samples_written == 6
    out = out_dir / "dataset.data.c2s"
    assert labels_in(out) == ["z|top", "fib", "plain", "b", "value", "size"]


def test_run_writes_stats_json(tmp_path):
    stats, out_dir = run_config(tmp_path)
    on_disk = json.loads((out_dir / "stats.json").read_text(encoding="utf-8"))
    assert on_disk == stats.to_dict()


def test_run_summary_sink(tmp_path):
    in_dir = tmp_path / "in"
    small_corpus(in_dir)
    config = validate_config(base_config(in_dir, tmp_path / "out"))
    sink = io.StringIO()
    run(config, summary_sink=sink)
    assert sink.getvalue().startswith("run statistics:")


def test_run_filters_and_rejections(tmp_path):
    stats, out_dir = run_config(
        tmp_path,
        filters=[{"name": "constructor"}, {"name": "abstract_method"}])
    assert stats.trees_after_filters == 4
    assert stats.filter_rejections == {"constructor": 1,
                                       "abstract_method": 1}
    assert labels_in(out_dir / "dataset.data.c2s") == [
        "z|top", "fib", "plain", "value"]


def test_run_counts_rejection_against_first_filter_only(tmp_path):
    # every unit fails tree_size, and the abstract one fails abstract_method
    # first; it counts against that filter alone, as README says
    stats, _ = run_config(
        tmp_path,
        filters=[{"name": "abstract_method"},
                 {"name": "tree_size", "parameters": {"max_nodes": 4}}])
    assert stats.filter_rejections == {"abstract_method": 1, "tree_size": 5}
    assert stats.trees_after_filters == 0


def test_run_jsonl_format(tmp_path):
    stats, out_dir = run_config(tmp_path,
                                storage={"format": "jsonl_trees"})
    out = out_dir / "dataset.data.jsonl"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert first[0]["label"] == "zTop"
    assert first[0]["type"] == "METHOD_DECL"
    # no contexts are mined for tree output
    assert stats.contexts_max == 0


def test_run_typed_format(tmp_path):
    _, out_dir = run_config(tmp_path, storage={"format": "code2seq_typed"})
    line = (out_dir / "dataset.data.c2s").read_text(
        encoding="utf-8").splitlines()[0]
    first_ctx = line.split(" ")[1]
    assert len(first_ctx.split(",")) == 5


def test_run_with_named_splits(tmp_path):
    in_dir = tmp_path / "in"
    write_files(in_dir, {
        "train/p/A.java": RECURSIVE,
        "val/B.java": CTOR,
        "test/C.java": ABSTRACT,
    })
    config = validate_config(base_config(in_dir, tmp_path / "out"))
    stats = run(config, summary_sink=io.StringIO())
    out = tmp_path / "out"
    assert labels_in(out / "dataset.train.c2s") == ["fib", "plain"]
    assert labels_in(out / "dataset.val.c2s") == ["b", "value"]
    assert labels_in(out / "dataset.test.c2s") == ["size"]
    assert stats.samples_written == 5


@pytest.mark.parametrize("parallelism", [1, 4])
def test_interrupted_run_leaves_the_previous_dataset(tmp_path, monkeypatch,
                                                      parallelism):
    in_dir = tmp_path / "in"
    out_dir = tmp_path / "out"
    write_files(in_dir, {
        "train/p/A.java": RECURSIVE,
        "val/B.java": CTOR,
        "val/D.java": LOOSE,
        "test/C.java": ABSTRACT,
    })
    config = validate_config(base_config(in_dir, out_dir,
                                         parallelism=parallelism))
    run(config, summary_sink=io.StringIO())
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert sorted(before) == ["dataset.test.c2s", "dataset.train.c2s",
                              "dataset.val.c2s", "stats.json"]

    # a second run would change every file, but stops in its second split
    write_files(in_dir, {"train/p/E.java": LOOSE, "test/F.java": CTOR})
    real_process_file = pipeline.process_file

    def process_file(path, relpath, config):
        if relpath == "D.java":
            raise KeyboardInterrupt
        return real_process_file(path, relpath, config)

    monkeypatch.setattr(pipeline, "process_file", process_file)
    with pytest.raises(KeyboardInterrupt):
        run(config, summary_sink=io.StringIO())
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_run_missing_input_dir(tmp_path):
    config = validate_config(base_config(tmp_path / "absent",
                                         tmp_path / "out"))
    with pytest.raises(ConfigError):
        run(config, summary_sink=io.StringIO())


def test_run_creates_nested_output_dir(tmp_path):
    in_dir = tmp_path / "in"
    write_files(in_dir, {"A.java": LOOSE})
    out_dir = tmp_path / "deep" / "er" / "out"
    config = validate_config(base_config(in_dir, out_dir))
    run(config, summary_sink=io.StringIO())
    assert (out_dir / "dataset.data.c2s").is_file()


def test_run_empty_input_writes_empty_dataset(tmp_path):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    config = validate_config(base_config(in_dir, tmp_path / "out"))
    stats = run(config, summary_sink=io.StringIO())
    assert stats.files_seen == 0
    assert (tmp_path / "out" / "dataset.data.c2s").read_text(
        encoding="utf-8") == ""


def test_run_logs_skipped_files(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="treemine"):
        run_config(tmp_path)
    assert any("bad.java" in message for message in caplog.messages)


def test_parallel_output_identical(tmp_path):
    in_dir = tmp_path / "in"
    small_corpus(in_dir)
    write_files(in_dir, {
        f"p_many/F{i}.java":
        f"class F{i} {{ int get{i}(int v) {{ return v + {i}; }} }}\n"
        for i in range(12)
    })
    outputs = {}
    for workers in (1, 4):
        out_dir = tmp_path / f"out{workers}"
        config = validate_config(base_config(in_dir, out_dir,
                                             parallelism=workers))
        run(config, summary_sink=io.StringIO())
        outputs[workers] = (out_dir / "dataset.data.c2s").read_bytes()
    assert outputs[1] == outputs[4]
    assert outputs[1]


def test_rejected_units_have_no_line(tmp_path):
    path = tmp_path / "C.java"
    path.write_text(ABSTRACT, encoding="utf-8")
    config = validate_config(base_config(
        tmp_path, tmp_path / "out",
        filters=[{"name": "abstract_method"}]))
    result = process_file(path, "C.java", config)
    unit = result.units[0]
    assert unit.rejected_by == "abstract_method"
    assert unit.line is None


# -- the per-file guard and the marker-based front end --------------------------

FORMATS = ("code2seq", "code2seq_typed", "jsonl_trees")


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_counts_a_file_whose_stage_raises(tmp_path, monkeypatch, caplog,
                                              parallelism):
    real_mine = pipeline.mine

    def mine(tree, limits, label):
        if label == "fib":
            raise RuntimeError("boom")
        return real_mine(tree, limits, label)

    monkeypatch.setattr(pipeline, "mine", mine)
    with caplog.at_level(logging.WARNING, logger="treemine"):
        stats, _ = run_config(tmp_path, parallelism=parallelism)
    assert stats.files_parsed + stats.parse_failures == stats.files_seen
    assert (stats.files_seen, stats.parse_failures) == (5, 2)
    assert any("A.java: internal: RuntimeError: boom" in message
               for message in caplog.messages)


def _reference_files(directory):
    """Every fixture, golden input and bench probe file, written or found
    under `directory`."""
    spec = importlib.util.spec_from_file_location(
        "replay", ROOT / "bench" / "replay.py")
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    for name, data in replay.adversarial_files().items():
        (directory / name).write_bytes(data)
    return (sorted(FIXTURES.rglob("*.java"))
            + sorted((GOLDEN_DIR / "input").rglob("*.java"))
            + sorted(directory.iterdir()))


@pytest.mark.parametrize("storage, granularity, extractor", [
    ("code2seq", "method", "method_name"),
    ("code2seq_typed", "method", "method_name"),
    ("jsonl_trees", "file", "none"),
])
def test_no_reference_file_reaches_the_guard(tmp_path, storage, granularity,
                                             extractor):
    probe_dir = tmp_path / "probe"
    probe_dir.mkdir()
    config = validate_config(base_config(
        tmp_path, tmp_path / "out", storage={"format": storage},
        granularity=granularity, label_extractor={"name": extractor}))
    for path in _reference_files(probe_dir):
        # the stage chain without the guard: nothing may escape it
        pipeline._process(path, path.name, config)


@pytest.mark.parametrize("storage", FORMATS)
def test_process_file_builds_no_cst(tmp_path, monkeypatch, storage):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a CST node was built")

    monkeypatch.setattr(CstNode, "__init__", refuse)
    with pytest.raises(AssertionError):
        parse_file(RECURSIVE)
    path = tmp_path / "A.java"
    path.write_text(RECURSIVE, encoding="utf-8")
    config = validate_config(base_config(tmp_path, tmp_path / "out",
                                         storage={"format": storage}))
    result = process_file(path, "A.java", config)
    assert result.error is None
    assert [unit.line is not None for unit in result.units] == [True, True]


@pytest.mark.parametrize("storage", FORMATS)
def test_only_typed_formats_annotate_types(tmp_path, monkeypatch, storage):
    path = tmp_path / "A.java"
    path.write_text(RECURSIVE, encoding="utf-8")
    config = validate_config(base_config(tmp_path, tmp_path / "out",
                                         storage={"format": storage}))
    expected = process_file(path, "A.java", config)

    def refuse(tree):
        raise RuntimeError("types annotated")

    monkeypatch.setattr(pipeline, "annotate_types", refuse)
    result = process_file(path, "A.java", config)
    if storage == "code2seq":
        assert result == expected
    else:
        assert result.error == "internal: RuntimeError: types annotated"
        assert result.units == []
