"""What a run holds: a bounded front end and writer per source byte, a
bounded miner per leaf, and neither OpenSSL nor `logging`.

The front end's peak and the tree it leaves are bounded per byte of a
generated source file, under `tracemalloc`: tokens carry no lines, equal
token texts are one string, markers are one flat list, and leaves carry no
span and share one empty `children`. So is what the JSONL writer adds to
the tree of a whole file: it writes each node's string once, in reverse
preorder, and holds the strings of at most one batch of nodes apart from
the pieces of the line. The miner's peak is bounded per leaf of a long
method: its leaf index keeps one frame per internal node and a reach entry
only for a child after the first.

`hashlib` maps libcrypto, a few MB of a run's peak RSS, as it is imported.
The one SHA-256 a run needs, the seed of each drawn sample, comes from
CPython's own C module (`_sha2`, or `_sha256` before 3.12). So no module of
the package imports `hashlib` but as the fallback for an interpreter without
that module, and no run loads `_hashlib`, whether it draws samples, writes
trees or is a dry run. Nor does a run import `logging`, whose import
brings `traceback`, `string` and `textwrap` too: a run writes its stderr
lines itself, and imports `traceback` only for a stage that fails in a way
it does not expect. Each run happens in a fresh `python -S` process, so no
test or plugin can have loaded a module first.
"""

import ast
import gc
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from treemine.ast_builder import DEFAULT_IGNORE_NAMES, build
from treemine.granularity import split
from treemine.labels import extract_none
from treemine.lexer import scan
from treemine.parser import parse
from treemine.paths import MinerLimits, mine
from treemine.storage import format_jsonl_tree
from treemine.type_resolver import annotate_types

from conftest import GOLDEN_DIR, write_config

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "treemine").glob("*.py"))

_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from treemine.cli import main
code = main(sys.argv[2:])
print(code, json.dumps(sorted(sys.modules)))
"""


def loaded_modules(tmp_path, storage_format, max_contexts, *extra,
                   input_dir=GOLDEN_DIR / "input"):
    """The modules that a CLI run of the golden configuration, over
    `input_dir`, had loaded when it returned."""
    config = write_config(tmp_path, {
        "input_dir": str(input_dir),
        "output_dir": str(tmp_path / "out"),
        "dataset_name": "golden",
        "granularity": "method",
        "label_extractor": {"name": "method_name"},
        "miner": {"max_contexts": max_contexts},
        "storage": {"format": storage_format},
    })
    done = subprocess.run(
        [sys.executable, "-S", "-c", _RUN, str(SRC), "--config", str(config),
         *extra], capture_output=True, text=True, check=True)
    code, loaded = done.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0", done.stderr
    return set(json.loads(loaded))


def test_jsonl_trees_run_does_not_load_openssl(tmp_path):
    assert "_hashlib" not in loaded_modules(tmp_path, "jsonl_trees", 40)
    assert (tmp_path / "out" / "golden.train.jsonl").is_file()


def test_dry_run_does_not_load_openssl(tmp_path):
    assert "_hashlib" not in loaded_modules(tmp_path, "code2seq", 1,
                                            "--dry-run")
    assert not (tmp_path / "out").exists()


REPORT_MODULES = {"logging", "traceback"}


def test_a_run_that_skips_a_file_does_not_load_logging(tmp_path):
    input_dir = tmp_path / "in"
    shutil.copytree(GOLDEN_DIR / "input", input_dir)
    (input_dir / "train" / "Broken.java").write_text(
        "class Broken {\n    int\n}\n", encoding="utf-8")
    assert not REPORT_MODULES & loaded_modules(tmp_path, "code2seq", 40,
                                               input_dir=input_dir)
    stats = json.loads((tmp_path / "out" / "stats.json").read_text(
        encoding="utf-8"))
    assert stats["parse_failures"] == 1


def test_dry_run_does_not_load_logging(tmp_path):
    assert not REPORT_MODULES & loaded_modules(tmp_path, "code2seq", 40,
                                               "--dry-run")


def test_a_run_that_draws_does_not_load_openssl(tmp_path):
    for storage_format in ("code2seq", "code2seq_typed"):
        run_dir = tmp_path / storage_format
        run_dir.mkdir()
        assert "_hashlib" not in loaded_modules(run_dir, storage_format, 1)
        # every golden unit holds at least three contexts, so one context
        # per line means that a sample was drawn from every bag
        for split in ("train", "val", "test"):
            name = f"golden.{split}.c2s"
            written = (run_dir / "out" / name).read_text().splitlines()
            golden = (GOLDEN_DIR / "expected" / storage_format / name
                      ).read_text().splitlines()
            assert len(written) == len(golden) > 0
            assert all(len(line.split(" ")) >= 4 for line in golden)
            assert all(len(line.split(" ")) == 2 for line in written)


def imported_names(source):
    """The modules that `source` imports, at any depth, absolute only."""
    return [name for node in ast.walk(ast.parse(source))
            for name in _imported(node)]


def _imported(node):
    """The modules that the statement `node` imports, absolute only."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module]
    return []


def test_import_finder_sees_nested_imports():
    source = ("import os\nfrom hashlib import sha256\n"
              "def f():\n    import _hashlib\n")
    assert imported_names(source) == ["os", "hashlib", "_hashlib"]


C_SHA256 = ("_sha2", "_sha256")


def hashlib_imports(source):
    """The lines of `source` that import `hashlib` or `_hashlib`, but for a
    plain `from hashlib import sha256` in the `except ImportError:` of a
    `try` that imports a C SHA-256 module."""
    nodes = list(ast.walk(ast.parse(source)))
    fallbacks = set()
    for node in nodes:
        if isinstance(node, ast.Try) and any(
                isinstance(statement, ast.ImportFrom)
                and statement.module in C_SHA256 for statement in node.body):
            fallbacks.update(
                id(statement) for handler in node.handlers
                if isinstance(handler.type, ast.Name)
                and handler.type.id == "ImportError"
                for statement in handler.body
                if isinstance(statement, ast.ImportFrom)
                and statement.module == "hashlib" and not statement.level
                and [(a.name, a.asname) for a in statement.names]
                == [("sha256", None)])
    return [node.lineno for node in nodes if id(node) not in fallbacks
            and any(name.partition(".")[0] in ("hashlib", "_hashlib")
                    for name in _imported(node))]


def test_hashlib_finder_passes_only_the_c_sha256_fallback():
    fallback = ("try:\n    from _sha2 import sha256\n"
                "except ImportError:\n    from hashlib import sha256\n")
    assert hashlib_imports(fallback) == []
    assert hashlib_imports("def f():\n" + "".join(
        "    " + line + "\n" for line in fallback.splitlines())) == []
    for source in (
            fallback.replace("_sha2", "_random"),
            fallback.replace("ImportError", "Exception"),
            fallback.replace("import sha256", "import sha512"),
            fallback.replace("from hashlib import sha256", "import hashlib"),
            fallback.replace("from hashlib", "from _hashlib"),
            fallback + "import hashlib\n"):
        assert hashlib_imports(source), source


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_hashlib(path):
    assert hashlib_imports(path.read_text(encoding="utf-8")) == []


def generated_source(methods):
    """A class of `methods` short methods, about 76 bytes each."""
    return "class Gen {\n" + "".join(
        f"    int m{i}(int x) {{ int y = x + {i}; if (y > 3) {{ y = y * 2; }}"
        " return y; }\n" for i in range(methods)) + "}\n"


def test_front_end_memory_per_source_byte():
    # bytes traced per source byte on CPython 3.10.13 to 3.13.0: a
    # front-end peak of 94.5 to 94.7 and a tree of 52.4 to 53.5 (100 to 102
    # and 56 to 58 with a string per token text, 124 to 126 with a line per
    # token and a tuple per marker as well)
    source = generated_source(330)
    size = len(source.encode("utf-8"))
    assert 24_000 < size < 26_000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tokens = scan(source)
        markers = parse(tokens)
        tree = build(tokens, markers, frozenset(DEFAULT_IGNORE_NAMES))
        peak = tracemalloc.get_traced_memory()[1] - before
        del tokens, markers
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tree.children
    assert peak / size < 100
    assert kept / size < 56


def test_jsonl_writer_memory_per_source_byte():
    # bytes traced per source byte above the tree, on CPython 3.10.13 to
    # 3.13.0: 39.6 to 39.7, the line and its pieces (79 to 83 with a string
    # per node alive until the line is joined, 133 to 137 with a tuple and a
    # child-id list per internal node, and a second string for each)
    source = generated_source(330)
    size = len(source.encode("utf-8"))
    tokens = scan(source)
    tree = build(tokens, parse(tokens), frozenset(DEFAULT_IGNORE_NAMES))
    del tokens
    annotate_types(tree)
    [unit] = split(tree, "file")
    sample = extract_none(unit)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        line = format_jsonl_tree(sample)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert line.startswith('[{"type":"FILE","children":[1],"label":')
    assert peak / size < 50


def long_method(statements):
    """One method of `statements` declarations, branches, loops and calls,
    about six leaves each, as the benchmark's long methods hold."""
    lines = []
    for i in range(statements):
        lines.append((
            f"int v{i} = x + {i} * y;",
            f"if (v{i - 1} > {i}) {{ y = y - v{i - 1}; }} "
            "else { x = x + 1; }",
            f"while (x < {i}) {{ x = x + count(x, y); }}",
            f'y = sum(x, v{i - 3}, "s{i}");')[i % 4])
    return ("class Long { int run(int x, int y) {\n" + "\n".join(lines)
            + "\nreturn y; } }\n")


def test_miner_memory_per_leaf():
    # bytes traced per leaf while a 757-leaf method is mined at the default
    # limits, on CPython 3.10.13 to 3.13.0: 641 to 664 (1,005 to 1,029 with
    # a chain and a branch list per leaf and a reach list per node)
    tokens = scan(long_method(120))
    [unit] = split(build(tokens, parse(tokens),
                         frozenset(DEFAULT_IGNORE_NAMES)), "method")
    del tokens
    leaves = sum(1 for _ in unit.leaves())
    assert leaves >= 700
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        contexts = mine(unit, MinerLimits(), "run")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(contexts) == MinerLimits().max_contexts
    assert peak / leaves < 850
