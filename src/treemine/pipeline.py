"""End-to-end orchestration.

Discovers inputs split by split, processes one project at a time (first-level
subdirectories, plus loose files under the split root), and runs the full
stage chain per file on the calling thread, in discovery order, so output is
the same at any `parallelism`, which starts no worker. The chain is read,
scan, parse, build, split, filter, type, label, mine and format: types are
given only to the units that every filter keeps, and only for the formats
that write them. A file's source text,
its token arrays (kinds and texts, with no line per token) and its flat
marker list are freed once its tree is built, so the later stages run beside
one file's tree and lines, and a file larger than `MAX_FILE_BYTES` is
counted as a failure without being read. A file that is not UTF-8 fails at
the line and column of its first bad byte. Outputs are written under staging
names and moved into place together once the run has finished, so a run
that fails or is interrupted leaves the previous dataset as it was; the
staging files of a run that was killed outright are removed by the next run
of the same dataset name and format. A file that fails is reported on
stderr, as a `WARNING` line, or as an `ERROR` line and its traceback when a
stage fails in a way it does not expect; a stderr that cannot be written
loses these lines but never stops the run.
"""

import sys
from pathlib import Path
from typing import NamedTuple, TextIO

from .ast_builder import build
from .config import PipelineConfig
from .errors import ConfigError, SourceError, position
from .filters import accept
from .granularity import split as split_units
from .labels import extract_method_name, extract_none
from .lexer import scan
from .parser import parse
from .paths import mine
from .storage import (CONTEXT_FORMATS, STATS_FILE, TYPED_FORMATS,
                      RunStatistics, finalize, format_sample, staging_path)
from .type_resolver import annotate_types

SPLIT_NAMES = ("train", "val", "test")

# the one split of an input directory that has none of SPLIT_NAMES
WHOLE_SPLIT = "data"

# label for the pseudo-project made of files sitting directly in a split root
LOOSE_PROJECT = "."

# The largest file a run reads, in bytes on disk. A run's peak RSS grows by
# about 100 bytes per byte of its largest file when it writes whole-file
# JSONL trees, and by about 130 when it mines methods. Just under this bound
# a generated file of short methods peaks at 423 MiB as one JSONL tree and
# 536 MiB when mined, and one of a single long method at up to 456 MiB and
# 545 MiB. So this bounds a run's peak RSS near 550 MiB.
MAX_FILE_BYTES = 4 * 2**20


class UnitResult(NamedTuple):
    rejected_by: str | None  # None when the unit is kept
    n_contexts: int
    line: str | None


class FileResult(NamedTuple):
    relpath: str
    error: str | None
    units: list[UnitResult]


def discover_splits(input_dir: Path) -> list[tuple[str, Path]]:
    if not input_dir.is_dir():
        raise ConfigError(f"input_dir does not exist: {input_dir}")
    named = [(name, input_dir / name) for name in SPLIT_NAMES
             if (input_dir / name).is_dir()]
    if named:
        return named
    return [(WHOLE_SPLIT, input_dir)]


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
    comes back as a failed result with stage `internal`, and its traceback
    goes to stderr under an `ERROR` line.
    """
    try:
        return _process(path, relpath, config)
    except Exception as exc:  # no single file may end the run
        import traceback  # only a run that meets a bug pays for it
        to_stderr(f"ERROR internal error in {relpath}\n"
                  + traceback.format_exc())
        return FileResult(
            relpath, f"internal: {type(exc).__name__}: {exc}", [])


def _process(path: Path, relpath: str, config: PipelineConfig) -> FileResult:
    try:
        size = path.stat().st_size
        if size > MAX_FILE_BYTES:
            return FileResult(relpath, f"too large: {size} bytes, over the "
                                       f"{MAX_FILE_BYTES}-byte bound", [])
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; their lines end as
        # universal newlines read them
        before = exc.object[:exc.start].decode("utf-8")
        error = SourceError(*position(
            before.replace("\r\n", "\n").replace("\r", "\n")),
            f"not valid UTF-8: {exc.reason}")
        return FileResult(relpath, str(error), [])
    except OSError as exc:
        return FileResult(relpath, f"cannot read: {exc}", [])
    try:
        tokens = scan(text)
        markers = parse(tokens)
    except SourceError as exc:
        return FileResult(relpath, str(exc), [])
    tree = build(tokens, markers, config.ignore)
    # the tree holds all that the later stages read: free the source and the
    # front end's arrays before they run
    del text, tokens, markers
    units = split_units(tree, config.granularity)
    # a unit counts against the first filter that rejects it only
    rejected_by = [next((spec.name for spec in config.filters
                         if not accept(unit, unit.span, spec)), None)
                   for unit in units]
    rejected = {id(unit) for unit, name in zip(units, rejected_by) if name}
    if config.storage_format in TYPED_FORMATS and len(rejected) < len(units):
        # no output holds a rejected unit
        annotate_types(tree, rejected)
    results = []
    for unit, name in zip(units, rejected_by):
        if name:
            results.append(UnitResult(name, 0, None))
            continue
        if config.extractor_name == "method_name":
            sample = extract_method_name(unit, config.name_token,
                                         config.recursion_token)
        else:
            sample = extract_none(unit)
        contexts = (mine(sample.tree, config.miner, sample.label)
                    if config.storage_format in CONTEXT_FORMATS else [])
        line = format_sample(sample, contexts, config.storage_format)
        results.append(UnitResult(None, len(contexts), line))
    return FileResult(relpath, None, results)


def run(config: PipelineConfig, summary_sink: TextIO | None = None) -> RunStatistics:
    """Execute the whole pipeline; returns the collected statistics.

    Per-file lex/parse failures are recorded and skipped; configuration and
    I/O problems raise. A run that raises, or is interrupted, changes no
    file of `output_dir` and leaves no staging file behind. A run that is
    killed outright runs no cleanup, so a run first removes the staging
    files of its own dataset name and format, for every split a run can
    have, and of stats.json; it touches no other file.
    """
    splits = discover_splits(config.input_dir)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    storage_spec = config.storage_spec()
    own_staging = [staging_path(path) for path in (
        *map(storage_spec.output_path, (*SPLIT_NAMES, WHOLE_SPLIT)),
        config.output_dir / STATS_FILE)]
    for path in own_staging:
        path.unlink(missing_ok=True)
    stats = RunStatistics()
    staged: list[Path] = []
    try:
        for split_name, split_root in splits:
            out_path = storage_spec.output_path(split_name)
            staged.append(out_path)
            with open(staging_path(out_path), "w", encoding="utf-8",
                      newline="") as sink:
                for _, files in discover_projects(split_root,
                                                  config.source_extensions):
                    for path in files:
                        relpath = path.relative_to(split_root).as_posix()
                        _consume(process_file(path, relpath, config), stats,
                                 sink)
        finalize(stats, summary_sink, config.output_dir, staged)
    finally:
        # only a run that stopped before finalize moved them leaves any
        for path in own_staging:
            path.unlink(missing_ok=True)
    return stats


def _consume(result: FileResult, stats: RunStatistics, sink: TextIO) -> None:
    stats.files_seen += 1
    if result.error is not None:
        stats.parse_failures += 1
        to_stderr(f"WARNING skipping {result.relpath}: {result.error}\n")
        return
    stats.files_parsed += 1
    for unit in result.units:
        stats.trees_before_filters += 1
        if unit.rejected_by is not None:
            stats.record_rejection(unit.rejected_by)
            continue
        stats.trees_after_filters += 1
        sink.write(unit.line)
        stats.record_sample(unit.n_contexts)


def to_stderr(text: str) -> None:
    """Write `text` to stderr at once, with a file name's undecodable bytes
    (surrogate escapes) as backslash escapes, which a strict stderr would
    refuse. A stderr that is missing (None), closed or broken loses the
    text: a run goes on without its report."""
    stream = sys.stderr
    if stream is None:  # the process started with fd 2 closed
        return
    try:
        stream.write(text.encode("utf-8", "backslashreplace").decode("utf-8"))
        stream.flush()
    except (OSError, ValueError):  # broken, closed, or cannot encode it
        pass
