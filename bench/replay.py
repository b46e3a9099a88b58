"""Traced, in-process replay of a treemine run, and a robustness probe.

`replay` walks the corpus the way `pipeline.run` does at parallelism 1 and
calls each module's public functions in the order `pipeline.process_file`
uses them, recording a span around every call. Its output files must match
the CLI's byte for byte; otherwise the replay no longer mirrors the program
and its per-layer numbers are not to be trusted.

`probe` feeds `pipeline.process_file` a fixed set of adversarial files and
names those whose call raises instead of returning a `FileResult`.
"""

import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from treemine.ast_builder import build_ast
from treemine.config import PipelineConfig
from treemine.errors import LexError, ParseError
from treemine.filters import accept
from treemine.granularity import split as split_units
from treemine.labels import NO_LABEL, extract_method_name, extract_none
from treemine.lexer import tokenize
from treemine.parser import parse_file
from treemine.paths import enumerate_paths, sample_contexts
from treemine.pipeline import discover_projects, discover_splits, process_file
from treemine.storage import format_sample
from treemine.type_resolver import NO_TYPE, annotate_types

clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span, None for a file span
    request: str  # the file the span belongs to

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Keeps spans in memory; `dump` writes them out once the run is over."""
    spans: list[Span] = field(default_factory=list)

    def open(self, name: str, request: str) -> int:
        self.spans.append(Span(name, clock(), 0.0, None, request))
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index].end = clock()

    def call(self, name: str, parent: int, fn, *args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            self.spans.append(Span(name, start, end, parent,
                                   self.spans[parent].request))

    def busy(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        return totals

    def file_seconds(self) -> list[float]:
        return [s.seconds for s in self.spans if s.parent is None]

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                handle.write(f"{s.name}\t{s.start:.9f}\t{s.end:.9f}\t"
                             f"{parent}\t{s.request}\n")


@dataclass
class Counts:
    """Work done per layer, counted outside the spans."""
    tokens: int = 0
    cst_nodes: int = 0
    parse_failures: int = 0
    ast_nodes: int = 0
    leaves: int = 0
    typed_leaves: int = 0
    units: int = 0
    kept: int = 0
    label_nodes: int = 0
    leaf_pairs: int = 0
    contexts_mined: int = 0
    contexts_kept: int = 0
    bytes_out: int = 0


def replay(config: PipelineConfig, out_dir: Path,
           tracer: Tracer) -> Counts:
    """Write the dataset files of `config` to `out_dir`, tracing each call."""
    config = replace(config, output_dir=out_dir, parallelism=1)
    out_dir.mkdir(parents=True, exist_ok=True)
    storage = config.storage_spec()
    counts = Counts()
    for split_name, split_root in discover_splits(config.input_dir):
        with open(storage.output_path(split_name), "w", encoding="utf-8",
                  newline="") as sink:
            for _, files in discover_projects(split_root,
                                              config.source_extensions):
                for path in files:
                    relpath = path.relative_to(split_root).as_posix()
                    span = tracer.open("pipeline.process_file", relpath)
                    _replay_file(path, relpath, config, sink, tracer, span,
                                 counts)
                    tracer.close(span)
    return counts


def _replay_file(path, relpath, config, sink, tracer, span, counts) -> None:
    call = tracer.call
    try:
        text = call("pipeline.read", span, path.read_text, encoding="utf-8")
    except UnicodeDecodeError:
        counts.parse_failures += 1
        return
    try:
        counts.tokens += len(call("lexer.tokenize", span, tokenize, text))
    except LexError:
        pass  # parse_file below meets the same error
    try:
        cst = call("parser.parse_file", span, parse_file, text, relpath)
    except (LexError, ParseError):
        counts.parse_failures += 1
        return
    counts.cst_nodes += _size(cst)
    ast = call("ast_builder.build_ast", span, build_ast, cst, config.ignore)
    counts.ast_nodes += _size(ast)
    tree = call("type_resolver.annotate_types", span, annotate_types, ast)
    for leaf in tree.leaves():
        counts.leaves += 1
        if leaf.resolved_type not in (None, NO_TYPE):
            counts.typed_leaves += 1
    units = call("granularity.split", span, split_units, tree,
                 config.granularity)
    for unit in units:
        counts.units += 1
        rejected = call("filters.accept", span, lambda: tuple(
            spec.name for spec in config.filters
            if not accept(unit, unit.span, spec)))
        if rejected:
            continue
        counts.kept += 1
        if config.extractor_name == "method_name":
            sample = call("labels.extract", span, extract_method_name, unit,
                          config.name_token, config.recursion_token)
        else:
            sample = call("labels.extract", span, extract_none, unit)
        if sample.label != NO_LABEL:
            counts.label_nodes += _size(sample.tree)
        if config.storage_format == "jsonl_trees":
            contexts = []
        else:
            mined = call("paths.enumerate_paths", span, enumerate_paths,
                         sample.tree, config.miner)
            leaf_count, contexts = call("paths.sample_contexts", span,
                                        _sample, sample, mined, config)
            counts.leaf_pairs += leaf_count * (leaf_count - 1) // 2
            counts.contexts_mined += len(mined)
            counts.contexts_kept += len(contexts)
        line = call("storage.format_sample", span, format_sample, sample,
                    contexts, config.storage_format)
        counts.bytes_out += len(line.encode("utf-8"))
        call("storage.write", span, sink.write, line)


def _sample(sample, mined, config):
    leaf_count = sum(1 for _ in sample.tree.leaves())
    return leaf_count, sample_contexts(mined, config.miner,
                                       tree_key=f"{sample.label}:{leaf_count}")


def _size(root) -> int:
    """Node count of a CST or AST, without recursion."""
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


# -- robustness probe ------------------------------------------------------------

def _method(body: str) -> str:
    return ("class Probe {\n    int probe(int x) {\n        int y = 0;\n"
            f"        {body}\n        return y;\n    }}\n}}\n")


def adversarial_files() -> dict[str, bytes]:
    """Small inputs that stress recursion depth; each fits code_lines."""
    branches = " else ".join(f"if (x == {i}) {{ y = {i}; }}"
                             for i in range(300))
    noise = random.Random(7)
    return {
        "nested_parens_100.java":
            _method("y = " + "(" * 100 + "x" + ")" * 100 + ";").encode(),
        "else_if_chain_300.java": _method(branches).encode(),
        "binary_chain_2000.java":
            _method("y = " + " + ".join(["x"] * 2000) + ";").encode(),
        "call_chain_500.java":
            _method("y = x" + ".next()" * 500 + ";").encode(),
        "nested_blocks_150.java":
            _method("{ " * 150 + "y = 1;" + " }" * 150).encode(),
        "random_bytes.java": bytes(noise.randrange(256) for _ in range(4096)),
        "empty.java": b"",
    }


def probe(config: PipelineConfig, directory: Path) -> list[str]:
    """Names of the adversarial files whose `process_file` call raised."""
    directory.mkdir(parents=True, exist_ok=True)
    escaped = []
    for name, data in adversarial_files().items():
        path = directory / name
        path.write_bytes(data)
        try:
            process_file(path, name, config)
        except Exception:  # counting escapes is the point of the probe
            escaped.append(name)
    return escaped
