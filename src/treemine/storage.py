"""Dataset serialization and run statistics.

Two output families: code2seq bag-of-paths lines (untyped or typed) and
JSONL trees with preorder-numbered node arrays. Formatting is bit-exact:
the same samples always produce the same bytes.
"""

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, TextIO

from .ast_builder import AstNode
from .labels import LabeledTree
from .paths import PathContext, split_subtokens

FORMATS = ("code2seq", "code2seq_typed", "jsonl_trees")
STATS_FILE = "stats.json"


@dataclass(frozen=True)
class StorageSpec:
    format: str
    output_dir: Path
    dataset_name: str

    def output_path(self, split: str) -> Path:
        ext = ".jsonl" if self.format == "jsonl_trees" else ".c2s"
        return self.output_dir / f"{self.dataset_name}.{split}{ext}"


@dataclass
class RunStatistics:
    files_seen: int = 0
    files_parsed: int = 0
    parse_failures: int = 0
    trees_before_filters: int = 0
    trees_after_filters: int = 0
    samples_written: int = 0
    filter_rejections: dict[str, int] = field(default_factory=dict)
    contexts_min: int = 0
    contexts_max: int = 0
    context_total: int = 0

    def record_rejection(self, filter_name: str) -> None:
        self.filter_rejections[filter_name] = \
            self.filter_rejections.get(filter_name, 0) + 1

    def record_sample(self, n_contexts: int) -> None:
        if self.samples_written == 0:
            self.contexts_min = n_contexts
            self.contexts_max = n_contexts
        else:
            self.contexts_min = min(self.contexts_min, n_contexts)
            self.contexts_max = max(self.contexts_max, n_contexts)
        self.context_total += n_contexts
        self.samples_written += 1

    @property
    def contexts_mean(self) -> float:
        if self.samples_written == 0:
            return 0.0
        return self.context_total / self.samples_written

    def to_dict(self) -> dict:
        return {
            "files_seen": self.files_seen,
            "files_parsed": self.files_parsed,
            "parse_failures": self.parse_failures,
            "trees_before_filters": self.trees_before_filters,
            "trees_after_filters": self.trees_after_filters,
            "samples_written": self.samples_written,
            "filter_rejections": dict(sorted(self.filter_rejections.items())),
            "contexts_min": self.contexts_min,
            "contexts_max": self.contexts_max,
            "contexts_mean": self.contexts_mean,
        }


# -- code2seq format ----------------------------------------------------------

def format_code2seq(sample: LabeledTree, contexts: list[PathContext],
                    typed: bool) -> str:
    label = "|".join(split_subtokens(sample.label))
    fields = [label]
    for ctx in contexts:
        start = "|".join(ctx.start_token)
        path = "|".join(ctx.path)  # node types hold no comma or whitespace
        end = "|".join(ctx.end_token)
        if typed:
            parts = (start, _sanitize_type(ctx.start_type), path,
                     end, _sanitize_type(ctx.end_type))
        else:
            parts = (start, path, end)
        fields.append(",".join(parts))
    return " ".join(fields) + "\n"


def _sanitize_type(text: str) -> str:
    # keep the comma-separated context grammar unambiguous
    return "".join(text.split()).replace(",", ";")


# -- JSONL tree format --------------------------------------------------------

def format_jsonl_tree(sample: LabeledTree) -> str:
    objects: list[dict] = []
    # (node, the id list of its parent's children); children are pushed in
    # reverse so that they are numbered, and listed, in preorder
    stack: list[tuple[AstNode, list[int] | None]] = [(sample.tree, None)]
    while stack:
        node, sibling_ids = stack.pop()
        if sibling_ids is not None:
            sibling_ids.append(len(objects))
        obj: dict = {"type": node.node_type}
        if node.token is not None:
            obj["value"] = node.token
        if node.resolved_type is not None:
            obj["token_type"] = node.resolved_type
        if node.children:
            child_ids: list[int] = []
            obj["children"] = child_ids
            stack.extend((child, child_ids) for child in reversed(node.children))
        objects.append(obj)
    objects[0]["label"] = sample.label
    return json.dumps(objects, separators=(",", ":")) + "\n"


def format_sample(sample: LabeledTree, contexts: list[PathContext],
                  storage_format: str) -> str:
    if storage_format == "code2seq":
        return format_code2seq(sample, contexts, typed=False)
    if storage_format == "code2seq_typed":
        return format_code2seq(sample, contexts, typed=True)
    if storage_format == "jsonl_trees":
        return format_jsonl_tree(sample)
    raise ValueError(f"unknown storage format: {storage_format!r}")


# -- statistics ---------------------------------------------------------------

def staging_path(path: Path) -> Path:
    """Where an output file is written until its run moves it into place."""
    return path.with_name(f".{path.name}.partial")


def finalize(stats: RunStatistics, sink: TextIO, output_dir: Path,
             staged: Sequence[Path]) -> None:
    """Commit a finished run: move its files into place, then summarize.

    Writes stats.json at its staging path, then replaces stats.json and each
    of `staged`, whose bytes sit at their staging paths, one after another
    with no work in between. The human-readable summary goes to sink last.
    """
    data = stats.to_dict()
    stats_path = output_dir / STATS_FILE
    with open(staging_path(stats_path), "w", encoding="utf-8",
              newline="") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")
    for path in (*staged, stats_path):
        os.replace(staging_path(path), path)
    lines = [
        "run statistics:",
        f"  files seen:           {data['files_seen']}",
        f"  files parsed:         {data['files_parsed']}",
        f"  parse failures:       {data['parse_failures']}",
        f"  trees before filters: {data['trees_before_filters']}",
        f"  trees after filters:  {data['trees_after_filters']}",
        f"  samples written:      {data['samples_written']}",
        f"  contexts per sample:  min {data['contexts_min']}"
        f" / mean {data['contexts_mean']:.2f} / max {data['contexts_max']}",
    ]
    for name, count in data["filter_rejections"].items():
        lines.append(f"  rejected by {name}: {count}")
    sink.write("\n".join(lines) + "\n")
