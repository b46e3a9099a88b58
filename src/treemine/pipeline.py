"""End-to-end orchestration.

Discovers inputs split by split, processes one project at a time (first-level
subdirectories, plus loose files under the split root), runs the full stage
chain per file, and writes outputs in a fixed order so results are
byte-identical at any parallelism level. Outputs are written under staging
names and moved into place together once the run has finished, so a run that
fails or is interrupted leaves the previous dataset as it was.
"""

import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from itertools import repeat
from pathlib import Path
from typing import NamedTuple, TextIO

from .ast_builder import build
from .config import PipelineConfig
from .errors import ConfigError, LexError, ParseError
from .filters import accept
from .granularity import split as split_units
from .labels import extract_method_name, extract_none
from .lexer import scan
from .parser import parse
from .paths import mine
from .storage import (STATS_FILE, RunStatistics, finalize, format_sample,
                      staging_path)
from .type_resolver import annotate_types

logger = logging.getLogger("treemine")

SPLIT_NAMES = ("train", "val", "test")

# label for the pseudo-project made of files sitting directly in a split root
LOOSE_PROJECT = "."


class UnitResult(NamedTuple):
    rejected_by: str | None  # None when the unit is kept
    n_contexts: int
    line: str | None


class FileResult(NamedTuple):
    relpath: str
    error: str | None
    units: list[UnitResult]


def discover_splits(input_dir: Path) -> list[tuple[str, Path]]:
    named = [(name, input_dir / name) for name in SPLIT_NAMES
             if (input_dir / name).is_dir()]
    if named:
        return named
    return [("data", input_dir)]


def discover_projects(split_root: Path,
                      extensions: tuple[str, ...]) -> list[tuple[str, list[Path]]]:
    """Ordered (project label, sorted files) pairs; loose files come first."""
    projects = []
    loose = sorted(
        (p for p in split_root.iterdir()
         if p.is_file() and _matches(p, extensions)),
        key=lambda p: p.name)
    if loose:
        projects.append((LOOSE_PROJECT, loose))
    for sub in sorted((d for d in split_root.iterdir() if d.is_dir()),
                      key=lambda d: d.name):
        files = sorted(
            (p for p in sub.rglob("*") if p.is_file() and _matches(p, extensions)),
            key=lambda p: p.relative_to(split_root).as_posix())
        projects.append((sub.name, files))
    return projects


def _matches(path: Path, extensions: tuple[str, ...]) -> bool:
    return any(path.name.endswith(ext) for ext in extensions)


def process_file(path: Path, relpath: str, config: PipelineConfig) -> FileResult:
    """Run parse through serialization for one file. Pure; no shared state.

    Never raises for a bad file: an exception the stages do not expect
    comes back as a failed result with stage `internal`.
    """
    try:
        return _process(path, relpath, config)
    except Exception as exc:  # no single file may end the run
        logger.error("internal error in %s", relpath, exc_info=True)
        return FileResult(
            relpath, f"internal: {type(exc).__name__}: {exc}", [])


def _process(path: Path, relpath: str, config: PipelineConfig) -> FileResult:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return FileResult(relpath, f"not valid UTF-8: {exc}", [])
    try:
        tokens = scan(text)
        markers = parse(tokens)
    except (LexError, ParseError) as exc:
        return FileResult(relpath, str(exc), [])
    tree = build(tokens, markers, config.ignore)
    if config.storage_format != "code2seq":
        # plain code2seq lines carry no types, and no stage reads them
        annotate_types(tree)
    units = []
    for unit in split_units(tree, config.granularity):
        # a unit counts against the first filter that rejects it only
        rejected_by = next((spec.name for spec in config.filters
                            if not accept(unit, unit.span, spec)), None)
        if rejected_by is not None:
            units.append(UnitResult(rejected_by, 0, None))
            continue
        if config.extractor_name == "method_name":
            sample = extract_method_name(unit, config.name_token,
                                         config.recursion_token)
        else:
            sample = extract_none(unit)
        if config.storage_format == "jsonl_trees":
            contexts = []
        else:
            contexts = mine(sample.tree, config.miner, sample.label)
        line = format_sample(sample, contexts, config.storage_format)
        units.append(UnitResult(None, len(contexts), line))
    return FileResult(relpath, None, units)


def run(config: PipelineConfig, summary_sink: TextIO | None = None) -> RunStatistics:
    """Execute the whole pipeline; returns the collected statistics.

    Per-file lex/parse failures are recorded and skipped; configuration and
    I/O problems raise. A run that raises, or is interrupted, changes no
    file of `output_dir` and leaves no staging file behind.
    """
    if not config.input_dir.is_dir():
        raise ConfigError(f"input_dir does not exist: {config.input_dir}")
    config.output_dir.mkdir(parents=True, exist_ok=True)
    storage_spec = config.storage_spec()
    stats = RunStatistics()
    staged: list[Path] = []
    try:
        # one pool for the whole run; its map yields results in submission
        # order, keeping output deterministic
        with (ThreadPoolExecutor(max_workers=config.parallelism)
              if config.parallelism > 1 else nullcontext()) as pool:
            map_files = pool.map if pool else map
            for split_name, split_root in discover_splits(config.input_dir):
                out_path = storage_spec.output_path(split_name)
                staged.append(out_path)
                with open(staging_path(out_path), "w", encoding="utf-8",
                          newline="") as sink:
                    for _, files in discover_projects(split_root,
                                                      config.source_extensions):
                        relpaths = [p.relative_to(split_root).as_posix()
                                    for p in files]
                        for result in map_files(process_file, files, relpaths,
                                                repeat(config)):
                            _consume(result, stats, sink)
        finalize(stats, summary_sink or sys.stdout, config.output_dir, staged)
    finally:
        # only a run that stopped before finalize moved them leaves any
        for path in (*staged, config.output_dir / STATS_FILE):
            staging_path(path).unlink(missing_ok=True)
    return stats


def _consume(result: FileResult, stats: RunStatistics, sink: TextIO) -> None:
    stats.files_seen += 1
    if result.error is not None:
        stats.parse_failures += 1
        logger.warning("skipping %s: %s", result.relpath, result.error)
        return
    stats.files_parsed += 1
    for unit in result.units:
        stats.trees_before_filters += 1
        if unit.rejected_by is not None:
            stats.record_rejection(unit.rejected_by)
            continue
        stats.trees_after_filters += 1
        if unit.line is not None:
            sink.write(unit.line)
        stats.record_sample(unit.n_contexts)
