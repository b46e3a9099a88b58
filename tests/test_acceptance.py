"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import io
import random
import time
from pathlib import Path

from treemine import (MinerLimits, NO_TYPE, annotate_types,
                      build_ast, enumerate_paths, extract_method_name,
                      parse_file, run, split, split_subtokens, validate_config)
from treemine.ast_builder import DEFAULT_IGNORE_NAMES

from conftest import (CORPUS_DIR, GOLDEN_DIR, RECURSIVE_DIR, cst_text,
                      random_ast, write_files)
from oracle_paths import oracle_enumerate

PACKAGE_ROOT = Path(__file__).parent.parent


def _finish(number, title, problems):
    verdict = "PASS" if not problems else "FAIL"
    print(f"\nACCEPTANCE {number} {verdict} - {title}")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


def _guard(fn):
    try:
        return fn()
    except Exception as exc:  # report instead of blowing past the verdict
        return [f"raised {type(exc).__name__}: {exc}"]


# -- 1: parser losslessness ---------------------------------------------------

def test_criterion_1_parser_losslessness():
    def body():
        problems = []
        fixtures = sorted(CORPUS_DIR.glob("*.java"))
        if len(fixtures) < 50:
            problems.append(f"only {len(fixtures)} fixtures, need 50")
        started = time.perf_counter()
        for path in fixtures:
            text = path.read_text(encoding="utf-8")
            if cst_text(parse_file(text, str(path))) != text:
                problems.append(f"round trip failed: {path.name}")
        elapsed = time.perf_counter() - started
        if elapsed >= 5.0:
            problems.append(f"took {elapsed:.2f}s, limit 5s")
        return problems

    _finish(1, "lossless parsing over the fixture corpus", _guard(body))


# -- 2: simplified-tree hygiene -----------------------------------------------

def test_criterion_2_ast_hygiene():
    def body():
        problems = []
        banned = {"KEYWORD", "PUNCTUATION", "OPERATOR", "WHITE_SPACE"}
        for path in sorted(CORPUS_DIR.glob("*.java")):
            tree = build_ast(parse_file(path.read_text(encoding="utf-8")),
                             frozenset(DEFAULT_IGNORE_NAMES))
            if tree.node_type != "FILE":
                problems.append(f"{path.name}: root is {tree.node_type}")
            for node in tree.preorder():
                base = node.node_type.split(":")[0]
                if base in banned:
                    problems.append(f"{path.name}: kept ignored {base}")
                if node.is_leaf() and node.token is None and node is not tree:
                    problems.append(f"{path.name}: empty internal node "
                                    f"{node.node_type}")
        return problems

    _finish(2, "simplified trees contain no ignored or empty nodes",
            _guard(body))


# -- 3: hand-annotated type resolution ----------------------------------------

SOURCE_A = """
class Ledger {
    int balance;
    String owner;

    Ledger(String owner) {
        this.owner = owner;
        balance = 0;
    }

    int deposit(int amount) {
        balance = balance + amount;
        return balance;
    }

    double ratio(double unit) {
        double r = balance / unit;
        return r;
    }
}
"""

SOURCE_B = """
class Mixer {
    int seed;

    int next() {
        return mix(seed, step());
    }

    int step() {
        int seed = 7;
        return seed;
    }

    int mix(int a, int b) {
        return a + b;
    }
}
"""

SOURCE_C = """
class Client {
    Helper helper;

    void go() {
        String s = "on";
        helper.run(s, 2.5);
        missing = helper.size;
        use(Helper.NAME);
    }
}

class Helper { }
"""

# (token, occurrence index among that token's leaves, expected type),
# derived by hand from the scoping rules before running the resolver
ANNOTATIONS = [
    (SOURCE_A, [
        ("Ledger", 0, "Ledger"), ("Ledger", 1, "Ledger"),
        ("balance", 0, "int"), ("String", 0, NO_TYPE),
        ("owner", 0, "String"), ("String", 1, NO_TYPE),
        ("owner", 1, "String"), ("this", 0, NO_TYPE),
        ("owner", 2, NO_TYPE), ("owner", 3, "String"),
        ("balance", 1, "int"), ("0", 0, "int"),
        ("deposit", 0, "int"), ("amount", 0, "int"),
        ("balance", 2, "int"), ("balance", 3, "int"),
        ("amount", 1, "int"), ("balance", 4, "int"),
        ("ratio", 0, "double"), ("unit", 0, "double"),
        ("r", 0, "double"), ("balance", 5, "int"),
        ("unit", 1, "double"), ("r", 1, "double"),
    ]),
    (SOURCE_B, [
        ("Mixer", 0, "Mixer"), ("seed", 0, "int"),
        ("next", 0, "int"), ("mix", 0, "int"),
        ("seed", 1, "int"), ("step", 0, "int"),
        ("step", 1, "int"), ("seed", 2, "int"),
        ("7", 0, "int"), ("seed", 3, "int"),
        ("mix", 1, "int"), ("a", 0, "int"),
        ("b", 0, "int"), ("a", 1, "int"), ("b", 1, "int"),
    ]),
    (SOURCE_C, [
        ("Client", 0, "Client"), ("Helper", 0, "Helper"),
        ("helper", 0, "Helper"), ("go", 0, "void"),
        ("String", 0, NO_TYPE), ("s", 0, "String"),
        ('"on"', 0, "String"), ("helper", 1, "Helper"),
        ("run", 0, NO_TYPE), ("s", 1, "String"),
        ("2.5", 0, "double"), ("missing", 0, NO_TYPE),
        ("helper", 2, "Helper"), ("size", 0, NO_TYPE),
        ("use", 0, NO_TYPE), ("Helper", 1, "Helper"),
        ("NAME", 0, NO_TYPE),
        ("Helper", 2, "Helper"),
    ]),
]


def test_criterion_3_hand_annotated_types():
    def body():
        problems = []
        total = 0
        for source, table in ANNOTATIONS:
            tree = annotate_types(build_ast(
                parse_file(source),
                frozenset(DEFAULT_IGNORE_NAMES)))
            occurrences: dict[str, list] = {}
            for leaf in tree.leaves():
                if leaf.node_type.split(":")[0] in ("IDENTIFIER", "LITERAL"):
                    occurrences.setdefault(leaf.token, []).append(leaf)
            for token, index, expected in table:
                total += 1
                hits = occurrences.get(token, [])
                if index >= len(hits):
                    problems.append(f"{token}[{index}]: only {len(hits)} "
                                    "occurrences found")
                    continue
                got = hits[index].resolved_type
                if got != expected:
                    problems.append(
                        f"{token}[{index}]: expected {expected}, got {got}")
        if total < 30:
            problems.append(f"only {total} annotated occurrences, need 30")
        return problems

    _finish(3, "resolved types match hand annotations", _guard(body))


# -- 4: path mining vs independent oracle -------------------------------------

def test_criterion_4_oracle_equivalence():
    def body():
        problems = []
        rng = random.Random(1_234_567)
        bounded = MinerLimits(max_path_nodes=8, max_path_width=2,
                              max_contexts=10_000_000)
        started = time.perf_counter()
        for case in range(200):
            tree = random_ast(rng, max_leaves=12)
            n_leaves = sum(1 for _ in tree.leaves())
            unlimited = enumerate_paths(
                tree, MinerLimits(max_path_nodes=10_000,
                                  max_path_width=10_000,
                                  max_contexts=10_000_000))
            want = oracle_enumerate(tree, 10_000, 10_000)
            if unlimited != want:
                problems.append(f"case {case}: unlimited mismatch")
            if len(unlimited) != n_leaves * (n_leaves - 1) // 2:
                problems.append(f"case {case}: expected C(L,2) contexts")
            got = enumerate_paths(tree, bounded)
            if got != oracle_enumerate(tree, 8, 2):
                problems.append(f"case {case}: bounded mismatch")
        elapsed = time.perf_counter() - started
        if elapsed >= 10.0:
            problems.append(f"took {elapsed:.2f}s, limit 10s")
        return problems

    _finish(4, "path mining equals the parent-chain oracle on 200 trees",
            _guard(body))


# -- 5: label leak freedom ----------------------------------------------------

# recursive call sites counted by hand in each fixture
EXPECTED_SELF = {
    "ackermann.java": 3,
    "countdown.java": 1,
    "fact.java": 1,
    "fib.java": 2,
    "gcd.java": 1,
    "sum_digits.java": 1,
}


def test_criterion_5_label_leak_freedom():
    def body():
        problems = []
        fixtures = sorted(RECURSIVE_DIR.glob("*.java"))
        if len(fixtures) < 5:
            problems.append(f"only {len(fixtures)} recursive fixtures")
        generous = MinerLimits(max_path_nodes=1_000, max_path_width=1_000,
                               max_contexts=10_000_000)
        for path in fixtures:
            tree = annotate_types(build_ast(
                parse_file(path.read_text(encoding="utf-8"), str(path)),
                frozenset(DEFAULT_IGNORE_NAMES)))
            for unit in split(tree, "method"):
                sample = extract_method_name(unit)
                label = sample.label
                tokens = [l.token for l in sample.tree.leaves()]
                if label in tokens:
                    problems.append(f"{path.name}: label survives as a token")
                n_self = tokens.count("SELF")
                expected = EXPECTED_SELF[path.name]
                if n_self != expected:
                    problems.append(f"{path.name}: {n_self} SELF tokens, "
                                    f"hand count says {expected}")
                if tokens.count("METHOD_NAME") != 1:
                    problems.append(f"{path.name}: declaration not hidden")
                joined_label = "|".join(split_subtokens(label))
                for ctx in enumerate_paths(sample.tree, generous):
                    for end in (ctx.start_token, ctx.end_token):
                        if end in (label, joined_label):
                            problems.append(
                                f"{path.name}: context token leaks the label")
        return problems

    _finish(5, "extracted labels never leak into their own samples",
            _guard(body))


# -- 6: byte-stable outputs across parallelism --------------------------------

def test_criterion_6_deterministic_outputs(tmp_path):
    def body():
        problems = []
        for fmt in ("code2seq", "code2seq_typed", "jsonl_trees"):
            expected_dir = GOLDEN_DIR / "expected" / fmt
            for workers in (1, 4):
                out_dir = tmp_path / f"{fmt}-{workers}"
                config = validate_config({
                    "input_dir": str(GOLDEN_DIR / "input"),
                    "output_dir": str(out_dir),
                    "dataset_name": "golden",
                    "granularity": "method",
                    "label_extractor": {"name": "method_name"},
                    "miner": {"max_contexts": 40},
                    "storage": {"format": fmt},
                    "parallelism": workers,
                })
                run(config, summary_sink=io.StringIO())
                for want in sorted(expected_dir.iterdir()):
                    got = out_dir / want.name
                    if not got.is_file():
                        problems.append(f"{fmt}@{workers}: missing "
                                        f"{want.name}")
                    elif got.read_bytes() != want.read_bytes():
                        problems.append(f"{fmt}@{workers}: {want.name} "
                                        "differs from golden bytes")
        return problems

    _finish(6, "outputs are byte-identical to goldens at parallelism 1 and 4",
            _guard(body))


# -- 7: end-to-end corpus run -------------------------------------------------

SIMPLE_TPL = """class Simple%(i)d {
    int first%(i)d(int v) {
        return v + %(i)d;
    }

    int second%(i)d(int v) {
        return v * 2;
    }
}
"""

RECUR_TPL = """class Recur%(i)d {
    int down%(i)d(int n) {
        if (n <= 0) {
            return 0;
        }
        return down%(i)d(n - 1);
    }
}
"""

CTOR_TPL = """class Holder%(i)d {
    int v;

    Holder%(i)d(int v) {
        this.v = v;
    }

    int get%(i)d() {
        return v;
    }
}
"""

ABSTRACT_TPL = """abstract class Base%(i)d {
    abstract int area%(i)d();

    int side%(i)d() {
        return %(i)d;
    }
}
"""

BAD_TPL = "class Broken%(i)d {\n    int\n}\n"

# methods (units) contributed by each parseable template file
UNITS_PER_FILE = {"simple": 2, "recur": 1, "ctor": 2, "abstract": 2}
# per split: (simple, recur, ctor, abstract, bad) file counts
SPLIT_PLAN = {
    "train": (60, 40, 30, 20, 10),
    "val": (20, 15, 10, 5, 5),
    "test": (30, 25, 15, 10, 5),
}


def _generate_corpus(root):
    serial = 0
    for split_name, (n_simple, n_recur, n_ctor, n_abstract, n_bad) \
            in SPLIT_PLAN.items():
        plan = [("simple", SIMPLE_TPL, n_simple),
                ("recur", RECUR_TPL, n_recur),
                ("ctor", CTOR_TPL, n_ctor),
                ("abstract", ABSTRACT_TPL, n_abstract),
                ("bad", BAD_TPL, n_bad)]
        files = {}
        for kind, template, count in plan:
            for _ in range(count):
                serial += 1
                project = f"proj{serial % 7}"
                files[f"{split_name}/{project}/{kind}{serial}.java"] = \
                    template % {"i": serial}
        write_files(root, files)


def test_criterion_7_end_to_end_run(tmp_path):
    def body():
        problems = []
        in_dir = tmp_path / "corpus"
        _generate_corpus(in_dir)
        out_dir = tmp_path / "out"
        config = validate_config({
            "input_dir": str(in_dir),
            "output_dir": str(out_dir),
            "dataset_name": "big",
            "granularity": "method",
            "filters": [{"name": "constructor"},
                        {"name": "abstract_method"}],
            "label_extractor": {"name": "method_name"},
            "storage": {"format": "code2seq"},
            "parallelism": 4,
        })
        started = time.perf_counter()
        stats = run(config, summary_sink=io.StringIO())
        elapsed = time.perf_counter() - started

        totals = [sum(counts[i] for counts in SPLIT_PLAN.values())
                  for i in range(5)]
        n_simple, n_recur, n_ctor, n_abstract, n_bad = totals
        expected_files = sum(totals)
        expected_units = (n_simple * UNITS_PER_FILE["simple"]
                          + n_recur * UNITS_PER_FILE["recur"]
                          + n_ctor * UNITS_PER_FILE["ctor"]
                          + n_abstract * UNITS_PER_FILE["abstract"])
        expected_kept = expected_units - n_ctor - n_abstract

        checks = [
            ("files_seen", stats.files_seen, expected_files),
            ("parse_failures", stats.parse_failures, n_bad),
            ("files_parsed", stats.files_parsed, expected_files - n_bad),
            ("trees_before_filters", stats.trees_before_filters,
             expected_units),
            ("trees_after_filters", stats.trees_after_filters,
             expected_kept),
            ("samples_written", stats.samples_written, expected_kept),
            ("constructor rejections",
             stats.filter_rejections.get("constructor"), n_ctor),
            ("abstract rejections",
             stats.filter_rejections.get("abstract_method"), n_abstract),
        ]
        for name, got, want in checks:
            if got != want:
                problems.append(f"{name}: got {got}, expected {want}")

        if not (stats.files_parsed + stats.parse_failures
                == stats.files_seen):
            problems.append("parsed + failures != seen")
        if stats.trees_after_filters > stats.trees_before_filters:
            problems.append("filters added trees")
        if not (stats.contexts_min <= stats.contexts_mean
                <= stats.contexts_max):
            problems.append("context min/mean/max out of order")

        written = 0
        for split_name, counts in SPLIT_PLAN.items():
            path = out_dir / f"big.{split_name}.c2s"
            if not path.is_file():
                problems.append(f"missing output for {split_name}")
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            written += len(lines)
            split_units = (counts[0] * 2 + counts[1] + counts[2] * 2
                           + counts[3] * 2)
            split_kept = split_units - counts[2] - counts[3]
            if len(lines) != split_kept:
                problems.append(f"{split_name}: {len(lines)} lines, "
                                f"expected {split_kept}")
        if written != stats.samples_written:
            problems.append("line count disagrees with samples_written")
        if elapsed >= 60.0:
            problems.append(f"took {elapsed:.2f}s, limit 60s")
        return problems

    _finish(7, "300-file corpus run matches hand-computed statistics",
            _guard(body))


# -- 8: dataset producer only -------------------------------------------------

def test_criterion_8_no_model_training(tmp_path):
    def body():
        problems = []
        readme = PACKAGE_ROOT / "README.md"
        if not readme.is_file():
            return ["README.md missing"]
        text = readme.read_text(encoding="utf-8")
        flat = " ".join(text.split())
        if "## Scope" not in text:
            problems.append("README lacks a Scope section")
        if "does not train or evaluate any model" not in flat:
            problems.append("README does not state the no-training scope")
        module_names = {p.name for p in
                        (PACKAGE_ROOT / "src" / "treemine").glob("*.py")}
        for banned in ("train.py", "model.py", "evaluate.py", "metrics.py"):
            if banned in module_names:
                problems.append(f"unexpected module {banned}")
        # the deliverable of a run is dataset files plus statistics, nothing
        # resembling a trained artifact or a score report
        in_dir = tmp_path / "in"
        write_files(in_dir, {"A.java":
                             "class A { int f(int v) { return v; } }"})
        out_dir = tmp_path / "out"
        config = validate_config({
            "input_dir": str(in_dir),
            "output_dir": str(out_dir),
            "granularity": "method",
            "label_extractor": {"name": "method_name"},
            "storage": {"format": "code2seq_typed"},
        })
        run(config, summary_sink=io.StringIO())
        produced = sorted(p.name for p in out_dir.iterdir())
        if produced != ["dataset.data.c2s", "stats.json"]:
            problems.append(f"unexpected outputs: {produced}")
        return problems

    _finish(8, "artifact is a dataset producer, not a model trainer",
            _guard(body))
