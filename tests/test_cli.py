import json
import os
import shutil
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
                                                       capsys):
    in_dir = tmp_path / "in"
    write_files(in_dir, {"A.java": SOURCE, "Big.java": SOURCE + "\n"})
    # the bound counts bytes on disk: A.java is at it, Big.java one over
    monkeypatch.setattr(pipeline, "MAX_FILE_BYTES",
                        (in_dir / "A.java").stat().st_size)
    path = write_config(tmp_path, base_config(in_dir, tmp_path / "out"))
    assert main(["--config", str(path)]) == EXIT_OK
    stats = json.loads((tmp_path / "out" / "stats.json").read_text(
        encoding="utf-8"))
    assert (stats["files_seen"], stats["files_parsed"],
            stats["parse_failures"], stats["samples_written"]) == (2, 1, 1, 1)
    assert capsys.readouterr().err == (
        f"WARNING skipping Big.java: too large: {len(SOURCE) + 1} bytes, "
        f"over the {len(SOURCE)}-byte bound\n")


def test_a_strict_stderr_gets_an_undecodable_name_escaped(tmp_path, capsys):
    # capsys's stderr is strict UTF-8, which refuses the surrogate escape
    # U+DCFF of the name's byte 0xff: the line escapes it with a backslash,
    # as Python's own stderr does
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    try:
        with open(os.path.join(os.fsencode(in_dir), b"\xffname.java"), "w",
                  encoding="utf-8") as handle:
            handle.write("class N {\n    int\n}\n")
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a name that is not UTF-8")
    path = write_config(tmp_path, base_config(in_dir, tmp_path / "out"))
    assert main(["--config", str(path)]) == EXIT_OK
    assert capsys.readouterr().err == (
        "WARNING skipping \\udcffname.java: line 3, column 1: "
        "expected identifier, found '}'\n")


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


# -- stderr, and std streams that are closed or cannot be written ---------------

# the CLI in a fresh process, whose miner fails on a method named `boom` as a
# stage with a bug would
_CLI = """
import sys
sys.path.insert(0, sys.argv[1])
from treemine import pipeline
from treemine.cli import console_entry
real_mine = pipeline.mine


def mine(tree, limits, label):
    if label == "boom":
        raise RuntimeError("injected")
    return real_mine(tree, limits, label)


pipeline.mine = mine
sys.argv[:2] = ["treemine"]
console_entry()
"""


def cli(config_path, *args, redirect="", buffered=False, **kwargs):
    """Run `_CLI` on `config_path` through the shell, its std streams
    redirected by `redirect` (`2>&-` closes stderr), with stdout and stderr
    buffered as Python buffers them by default, or not at all."""
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        ["sh", "-c", f'"$0" "$@" {redirect}', sys.executable, "-c", _CLI,
         str(SRC), "--config", str(config_path), *args],
        env=env, **kwargs)


def failing_corpus(tmp_path):
    """A config over one good file and one that fails in each way, and
    whether the file system took the last one, whose name is not UTF-8."""
    in_dir = tmp_path / "in"
    write_files(in_dir, {
        "Boom.java": SOURCE.replace("get", "boom"),
        "Broken.java": "class Broken {\n    int\n}\n",
        "Lex.java": "class L { int x = 1 # 2; }\n",
        "Ok.java": SOURCE,
    })
    (in_dir / "Utf8.java").write_bytes(b"class U {\n    int x\xff;\n}\n")
    with open(in_dir / "Over.java", "wb") as handle:
        handle.truncate(pipeline.MAX_FILE_BYTES + 1)
    config_path = write_config(tmp_path, base_config(in_dir, tmp_path / "out"))
    try:
        with open(os.path.join(os.fsencode(in_dir), b"\xffname.java"),
                  "w", encoding="utf-8") as handle:
            handle.write("class N {\n    int\n}\n")
    except (OSError, UnicodeError):
        return config_path, False
    return config_path, True


def test_stderr_holds_one_report_per_failed_file(tmp_path):
    config_path, odd_name = failing_corpus(tmp_path)
    done = cli(config_path, capture_output=True)
    assert done.returncode == EXIT_OK, done.stderr
    err = done.stderr.decode("utf-8")
    head, raised, tail = err.partition("RuntimeError: injected\n")
    # a stage that fails in a way it does not expect: its traceback, framed
    # as logging's `exc_info` framed it
    first, *frames = head.splitlines(keepends=True)
    assert first == "ERROR internal error in Boom.java\n"
    assert frames[0] == "Traceback (most recent call last):\n"
    assert len(frames) > 3
    assert all(line.startswith("  ") for line in frames[1:])
    assert raised
    expected = (
        "WARNING skipping Boom.java: internal: RuntimeError: injected\n"
        "WARNING skipping Broken.java: line 3, column 1: "
        "expected identifier, found '}'\n"
        "WARNING skipping Lex.java: line 1, column 21: "
        "unexpected character '#'\n"
        "WARNING skipping Over.java: too large: 4194305 bytes, over the "
        "4194304-byte bound\n"
        "WARNING skipping Utf8.java: line 2, column 10: "
        "not valid UTF-8: invalid start byte\n")
    if odd_name:
        # stderr escapes the name's surrogate U+DCFF with a backslash
        expected += ("WARNING skipping \\udcffname.java: line 3, column 1: "
                     "expected identifier, found '}'\n")
    assert tail == expected
    assert done.stdout.decode("utf-8").startswith("run statistics:\n")


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"],
                         ids=["closed", "read_only"])
def test_an_unwritable_stderr_loses_only_the_report(tmp_path, redirect,
                                                    buffered):
    config_path, _ = failing_corpus(tmp_path)
    done = cli(config_path, capture_output=True)
    assert done.returncode == EXIT_OK
    written = files_in(tmp_path / "out")
    shutil.rmtree(tmp_path / "out")
    quiet = cli(config_path, redirect=redirect, buffered=buffered,
                stdout=subprocess.PIPE)
    assert quiet.returncode == EXIT_OK
    assert quiet.stdout == done.stdout
    assert files_in(tmp_path / "out") == written


def files_in(directory):
    """Each file's name, hidden ones too, and bytes."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("redirect", [">&-", "2>&-", "2</dev/null"],
                         ids=["stdout_closed", "stderr_closed",
                              "stderr_read_only"])
@pytest.mark.parametrize("case, code", [
    ("run", EXIT_OK), ("dry_run", EXIT_OK), ("config_error", EXIT_CONFIG),
    ("io_error", EXIT_IO)])
def test_an_unwritable_std_stream_keeps_the_exit_codes(tmp_path, redirect,
                                                       case, code):
    config_path = setup_run(tmp_path)
    args = ()
    if case == "dry_run":
        args = ("--dry-run",)
    elif case == "config_error":
        config_path.write_bytes(b'{"input_dir": "\xff"}\n')
    elif case == "io_error":
        # output_dir lies under a plain file
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        config_path = write_config(tmp_path, base_config(tmp_path / "in",
                                                         blocker / "out"))
    done = cli(config_path, *args, redirect=redirect, buffered=True,
               capture_output=True)
    assert done.returncode == code, done.stderr
    assert b"Traceback" not in done.stdout + done.stderr
    assert (tmp_path / "out" / "dataset.data.c2s").is_file() == (
        case == "run")


def cli_on_a_broken_pipe(config_path, *args, buffered):
    """Run `cli` with stdout on a pipe whose reader is gone."""
    reader, writer = os.pipe()
    os.close(reader)
    try:
        return cli(config_path, *args, buffered=buffered, stdout=writer,
                   stderr=subprocess.PIPE)
    finally:
        os.close(writer)


BROKEN_PIPE = b"i/o error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["unbuffered", "buffered"])
def test_a_summary_that_cannot_be_written_commits_nothing(tmp_path,
                                                          buffered):
    config_path = setup_run(tmp_path)
    assert cli(config_path, stdout=subprocess.DEVNULL).returncode == EXIT_OK
    before = files_in(tmp_path / "out")
    write_files(tmp_path / "in", {"B.java": SOURCE.replace("get", "put")})
    done = cli_on_a_broken_pipe(config_path, buffered=buffered)
    assert (done.returncode, done.stderr) == (EXIT_IO, BROKEN_PIPE)
    assert files_in(tmp_path / "out") == before


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["unbuffered", "buffered"])
def test_a_plan_that_cannot_be_written_fails_the_dry_run(tmp_path,
                                                         buffered):
    done = cli_on_a_broken_pipe(setup_run(tmp_path), "--dry-run",
                                buffered=buffered)
    assert (done.returncode, done.stderr) == (EXIT_IO, BROKEN_PIPE)
