import json

import pytest

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
