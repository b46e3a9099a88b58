import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treemine import pipeline
from treemine.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, console_entry, main

from conftest import base_config, write_config, write_files

SOURCE = "class A {\n    int get(int v) {\n        return v;\n    }\n}\n"


def setup_run(tmp_path, **overrides):
    in_dir = tmp_path / "in"
    write_files(in_dir, {"A.java": SOURCE})
    cfg = base_config(in_dir, tmp_path / "out", **overrides)
    return write_config(tmp_path, cfg)


def test_successful_run(tmp_path, capsys):
    config_path = setup_run(tmp_path)
    assert main(["--config", str(config_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "run statistics:" in out
    assert (tmp_path / "out" / "dataset.data.c2s").is_file()
    assert (tmp_path / "out" / "stats.json").is_file()


def test_dry_run_writes_nothing(tmp_path, capsys):
    config_path = setup_run(tmp_path)
    assert main(["--config", str(config_path), "--dry-run"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dry run: configuration valid" in out
    assert "split data: 1 project(s), 1 file(s)" in out
    assert not (tmp_path / "out").exists()


def test_parallelism_override(tmp_path):
    config_path = setup_run(tmp_path)
    assert main(["--config", str(config_path), "--parallelism", "3"]) \
        == EXIT_OK


def test_bad_parallelism_override(tmp_path, capsys):
    config_path = setup_run(tmp_path)
    code = main(["--config", str(config_path), "--parallelism", "0"])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_parallelism_override_is_checked_with_the_file(tmp_path, capsys):
    # a bad configured value is reported even when the flag replaces it
    config_path = setup_run(tmp_path, parallelism=0)
    code = main(["--config", str(config_path), "--parallelism", "3"])
    assert code == EXIT_CONFIG
    assert "parallelism must be a positive integer" in capsys.readouterr().err
    config_path = setup_run(tmp_path)
    assert main(["--config", str(config_path), "--parallelism", "3",
                 "--dry-run"]) == EXIT_OK
    assert "parallelism 3" in capsys.readouterr().out


def test_missing_config_file(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "none.json")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error: cannot read configuration file" in err


def test_invalid_config_lists_problems(tmp_path, capsys):
    path = write_config(tmp_path, {"granularity": "atom"})
    assert main(["--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "missing required key: input_dir" in err
    assert "granularity must be one of" in err


def test_missing_input_dir_is_config_error(tmp_path, capsys):
    cfg = base_config(tmp_path / "absent", tmp_path / "out")
    path = write_config(tmp_path, cfg)
    assert main(["--config", str(path)]) == EXIT_CONFIG
    assert "input_dir does not exist" in capsys.readouterr().err


def test_dry_run_with_missing_input_dir_prints_no_plan(tmp_path, capsys):
    cfg = base_config(tmp_path / "absent", tmp_path / "out")
    path = write_config(tmp_path, cfg)
    assert main(["--config", str(path), "--dry-run"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "input_dir does not exist" in captured.err
    assert captured.out == ""


def test_ignore_list_hiding_method_names_exits_before_any_output(
        tmp_path, capsys):
    # labeling would fail on the first method, partway through the run
    config_path = setup_run(tmp_path, ignore_node_kinds=["IDENTIFIER"])
    assert main(["--config", str(config_path)]) == EXIT_CONFIG
    assert "ignoring IDENTIFIER" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize("name, kind", [
    ("override_method", "ANNOTATION"), ("abstract_method", "CODE_BLOCK"),
])
def test_ignore_list_defeating_a_filter_exits_before_any_output(
        tmp_path, capsys, name, kind):
    config_path = setup_run(tmp_path, filters=[{"name": name}],
                            ignore_node_kinds=["KEYWORD", kind])
    assert main(["--config", str(config_path)]) == EXIT_CONFIG
    assert f"filter {name}: ignoring {kind}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("storage", ["code2seq_typed", "jsonl_trees"])
def test_ignore_list_typing_annotations_exits_before_any_output(
        tmp_path, capsys, storage):
    # both would type `Deprecated` as the member and leave `f` and `n` untyped
    in_dir = tmp_path / "in"
    write_files(in_dir, {
        "A.java": "class A { @Deprecated int f() { return f(); } }\n",
        "B.java": "class B { @Deprecated int n; int g() { return n; } }\n"})
    config_path = write_config(tmp_path, base_config(
        in_dir, tmp_path / "out", label_extractor={"name": "none"},
        storage={"format": storage},
        ignore_node_kinds=["KEYWORD", "MODIFIER_LIST", "ANNOTATION"]))
    assert main(["--config", str(config_path)]) == EXIT_CONFIG
    assert (f"storage {storage}: ignoring MODIFIER_LIST and ANNOTATION"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("granularity, kind", [
    ("class", "CLASS_DECL"), ("method", "METHOD_DECL"),
])
def test_ignore_list_removing_every_unit_exits_before_any_output(
        tmp_path, capsys, granularity, kind):
    # an empty dataset, or one of constructors only, would look complete
    config_path = setup_run(tmp_path, granularity=granularity,
                            label_extractor={"name": "none"},
                            ignore_node_kinds=["KEYWORD", kind])
    assert main(["--config", str(config_path)]) == EXIT_CONFIG
    assert (f"granularity {granularity}: ignoring {kind}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["../escaped", "sub/x"])
def test_dataset_name_that_is_a_path_exits_before_any_output(
        tmp_path, capsys, name):
    # output files are named after it, so a path would put them outside
    # output_dir, or in a directory that does not exist
    config_path = setup_run(tmp_path, dataset_name=name)
    before = sorted(tmp_path.rglob("*"))
    assert main(["--config", str(config_path)]) == EXIT_CONFIG
    assert ("dataset_name must be a file name, not a path"
            in capsys.readouterr().err)
    assert sorted(tmp_path.rglob("*")) == before


# the operating system takes a path as UTF-8 ended by NUL, so no run can
# create or open a path that holds one of these
_UNHOLDABLE_PATHS = [("output_dir", "out\0"), ("output_dir", "out\ud800"),
                     ("dataset_name", "data\0set"), ("dataset_name", "a\ud800"),
                     ("input_dir", "in\0"), ("input_dir", "in\ud800")]


@pytest.mark.parametrize("key, value", _UNHOLDABLE_PATHS)
def test_path_the_os_cannot_hold_exits_before_any_output(
        tmp_path, capsys, key, value):
    write_files(tmp_path / "in", {"A.java": SOURCE})
    cfg = {**base_config(tmp_path / "in", tmp_path / "out"), key: value}
    config_path = write_config(tmp_path, cfg)
    before = sorted(tmp_path.rglob("*"))
    assert main(["--config", str(config_path)]) == EXIT_CONFIG
    assert (f"{key} must not hold NUL or text UTF-8 cannot encode"
            in capsys.readouterr().err)
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("key, value", _UNHOLDABLE_PATHS)
def test_dry_run_with_a_path_the_os_cannot_hold_prints_no_plan(
        tmp_path, capsys, key, value):
    write_files(tmp_path / "in", {"A.java": SOURCE})
    cfg = {**base_config(tmp_path / "in", tmp_path / "out"), key: value}
    config_path = write_config(tmp_path, cfg)
    assert main(["--config", str(config_path), "--dry-run"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{key} must not hold NUL" in captured.err
    assert captured.out == ""


def test_dry_run_escapes_an_undecodable_project_name(tmp_path, capsys):
    # capsys's stdout is strict UTF-8, as under a UTF-8 locale; the name's
    # byte 0xff decodes to the surrogate escape U+DCFF
    config_path = setup_run(tmp_path)
    try:
        project = os.path.join(os.fsencode(tmp_path / "in"), b"\xffproj")
        os.mkdir(project)
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a name that is not UTF-8")
    with open(os.path.join(project, b"B.java"), "w", encoding="utf-8") as f:
        f.write(SOURCE)
    assert main(["--config", str(config_path), "--dry-run"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "split data: 2 project(s), 2 file(s)" in out
    assert "  project \\udcffproj: 1 file(s)\n" in out


def test_io_error_exit_code(tmp_path, capsys):
    in_dir = tmp_path / "in"
    write_files(in_dir, {"A.java": SOURCE})
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    cfg = base_config(in_dir, blocker / "out")
    path = write_config(tmp_path, cfg)
    assert main(["--config", str(path)]) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_dry_run_with_splits(tmp_path, capsys):
    in_dir = tmp_path / "in"
    write_files(in_dir, {
        "train/p/A.java": SOURCE,
        "train/p/B.java": SOURCE,
        "val/C.java": SOURCE,
    })
    path = write_config(tmp_path, base_config(in_dir, tmp_path / "out"))
    assert main(["--config", str(path), "--dry-run"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "split train: 1 project(s), 2 file(s)" in out
    assert "split val: 1 project(s), 1 file(s)" in out
    assert "dataset.train.c2s" in out


def test_non_ascii_digit_file_is_a_parse_failure(tmp_path, capsys):
    # a digit str.isdigit() accepts but no number literal may hold
    in_dir = tmp_path / "in"
    write_files(in_dir, {"A.java": SOURCE,
                         "Digit.java": "class D {\n    int x = \u0663;\n}\n"})
    path = write_config(tmp_path, base_config(in_dir, tmp_path / "out"))
    assert main(["--config", str(path)]) == EXIT_OK
    stats = json.loads((tmp_path / "out" / "stats.json").read_text(
        encoding="utf-8"))
    assert (stats["files_seen"], stats["files_parsed"],
            stats["parse_failures"]) == (2, 1, 1)


def test_file_over_the_size_bound_is_a_counted_failure(tmp_path, monkeypatch,
                                                       caplog):
    in_dir = tmp_path / "in"
    write_files(in_dir, {"A.java": SOURCE, "Big.java": SOURCE + "\n"})
    # the bound counts bytes on disk: A.java is at it, Big.java one over
    monkeypatch.setattr(pipeline, "MAX_FILE_BYTES",
                        (in_dir / "A.java").stat().st_size)
    path = write_config(tmp_path, base_config(in_dir, tmp_path / "out"))
    with caplog.at_level(logging.WARNING, logger="treemine"):
        assert main(["--config", str(path)]) == EXIT_OK
    stats = json.loads((tmp_path / "out" / "stats.json").read_text(
        encoding="utf-8"))
    assert (stats["files_seen"], stats["files_parsed"],
            stats["parse_failures"], stats["samples_written"]) == (2, 1, 1, 1)
    assert [m for m in caplog.messages if m.startswith("skipping")] == [
        f"skipping Big.java: too large: {len(SOURCE) + 1} bytes, over the "
        f"{len(SOURCE)}-byte bound"]


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", ["treemine", "treemine.cli"])
def test_python_m_runs_the_cli(tmp_path, module):
    config_path = setup_run(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(*args):
        return subprocess.run([sys.executable, "-m", module, *args],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path)

    done = run("--config", str(config_path), "--dry-run")
    assert done.returncode == EXIT_OK, done.stderr
    assert "dry run: configuration valid" in done.stdout
    assert not (tmp_path / "out").exists()
    done = run("--config", str(tmp_path / "missing.json"))
    assert done.returncode == EXIT_CONFIG
    assert "configuration error" in done.stderr


@pytest.mark.parametrize("content", [
    b'{"input_dir": "\xff"}', b"[" * 100_000, b"1" * 5000,
], ids=["not_utf8", "nested_100000", "int_5000_digits"])
def test_unreadable_config_file_exits_2_without_a_traceback(tmp_path,
                                                             content):
    config_path = tmp_path / "treemine.json"
    config_path.write_bytes(content)
    done = subprocess.run(
        [sys.executable, "-m", "treemine", "--config", str(config_path)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == EXIT_CONFIG
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("configuration error: ")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_config_file_exits_2_without_a_traceback(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "treemine", "--config", "/dev/zero"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == EXIT_CONFIG
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("configuration error: configuration file is "
                           "larger than the ")


def test_missing_config_flag_exits():
    with pytest.raises(SystemExit):
        main([])


def test_console_entry_raises_system_exit(tmp_path):
    config_path = setup_run(tmp_path)
    import sys
    argv = sys.argv
    sys.argv = ["treemine", "--config", str(config_path), "--dry-run"]
    try:
        with pytest.raises(SystemExit) as info:
            console_entry()
        assert info.value.code == EXIT_OK
    finally:
        sys.argv = argv


def test_output_matches_direct_library_use(tmp_path):
    config_path = setup_run(tmp_path)
    assert main(["--config", str(config_path)]) == EXIT_OK
    from treemine import load_config
    config = load_config(config_path)
    line = (tmp_path / "out" / "dataset.data.c2s").read_text(
        encoding="utf-8")
    assert line.startswith("get ")
    stats = json.loads((tmp_path / "out" / "stats.json").read_text(
        encoding="utf-8"))
    assert stats["samples_written"] == 1
    assert config.parallelism == 1
