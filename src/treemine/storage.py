"""Dataset serialization and run statistics.

Two output families: code2seq bag-of-paths lines (untyped or typed) and
JSONL trees with preorder-numbered node arrays. This is where each format's
contexts and types are named: the formats of CONTEXT_FORMATS write mined
path-contexts, and those of TYPED_FORMATS write types; no other module of
the package compares a format name. Formatting is bit-exact: the same
samples always produce the same bytes. A code2seq line is the label's
subtokens, then each context's strings, which the miner made as the line
writes them (see `paths.PathContext`): only the label is split here. A JSONL
line holds the bytes `json.dumps` gives without building a dict per node:
each node's string is made once, escaped by json's own string encoder, and
the strings are joined a bounded batch at a time into pieces of the line.
So writing a whole file's tree holds the line and its pieces, not a string
per node beside them.
"""

import json
import json.encoder
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence, TextIO

from .labels import LabeledTree
from .paths import PathContext, split_subtokens

# the string encoder of json.dumps with ensure_ascii: quotes, and escapes
# control and non-ASCII characters
_quote = json.encoder.encode_basestring_ascii

FORMATS = ("code2seq", "code2seq_typed", "jsonl_trees")
CONTEXT_FORMATS = ("code2seq", "code2seq_typed")
TYPED_FORMATS = ("code2seq_typed", "jsonl_trees")
STATS_FILE = "stats.json"


class StorageSpec(NamedTuple):
    format: str
    output_dir: Path
    dataset_name: str

    def output_path(self, split: str) -> Path:
        ext = ".c2s" if self.format in CONTEXT_FORMATS else ".jsonl"
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
        """The fields in order, rejections sorted, and the mean in place of
        the running total, which is last."""
        data = asdict(self)
        data["filter_rejections"] = dict(sorted(self.filter_rejections.items()))
        del data["context_total"]
        data["contexts_mean"] = self.contexts_mean
        return data


# -- code2seq format ----------------------------------------------------------

def format_code2seq(sample: LabeledTree, contexts: list[PathContext],
                    typed: bool) -> str:
    """The label's subtokens, then one field per context, space-separated.

    Each string of a field was made by the miner as it is written here.
    """
    label = "|".join(split_subtokens(sample.label))
    if typed:
        fields = [f"{c.start_token},{c.start_type},{c.path},{c.end_token},"
                  f"{c.end_type}" for c in contexts]
    else:
        fields = [f"{c.start_token},{c.path},{c.end_token}" for c in contexts]
    fields.insert(0, label)
    return " ".join(fields) + "\n"


# -- JSONL tree format --------------------------------------------------------

# how many node strings the JSONL writer joins into one piece of its line,
# which bounds how many of them are alive at once
JSONL_BATCH = 256


class _Fields(dict):
    """One JSON field per distinct text: its key, then the text quoted."""

    def __init__(self, key: str):
        super().__init__()
        self.key = key

    def __missing__(self, text: str) -> str:
        field = self[text] = self.key + _quote(text)
        return field


def format_jsonl_tree(sample: LabeledTree) -> str:
    """The JSON array of the tree's nodes in preorder, as one line.

    The bytes are those of `json.dumps(nodes, separators=(",", ":"))` over
    one dict per node: "type", then "value", "token_type" and "children"
    where present, and "label" on the root. The nodes are listed in preorder
    and then written from the end of that list, each node after its
    children, right to left. A node's id is then the length of the list
    once it is taken off, so its children's ids are known when its string
    is made, and each distinct type, token and resolved type is quoted once.
    The strings are joined JSONL_BATCH at a time into pieces of the line,
    and the pieces once into the line. The first string written ends the
    line and the root's begins it, so the joined line is not copied again.
    """
    order = list(sample.tree.preorder())
    types = _Fields('{"type":')
    values = _Fields(',"value":')
    token_types = _Fields(',"token_type":')
    # the node strings not yet joined, and the pieces of the line, each
    # list from the end of the line
    batch: list[str] = []
    pieces: list[str] = []
    # the ids of the written nodes whose parent is not written yet: a
    # node's children are the last of them, its leftmost child last of all
    ids: list[int] = []
    end = "}]\n"
    while order:
        node = order.pop()
        string = types[node.node_type]
        if node.token is not None:
            string += values[node.token]
        if node.resolved_type is not None:
            string += token_types[node.resolved_type]
        if node.children:
            n = len(node.children)
            string += (',"children":['
                       + ",".join(map(str, reversed(ids[-n:]))) + "]")
            del ids[-n:]
        ids.append(len(order))
        if not order:
            string = "[" + string + ',"label":' + _quote(sample.label)
        batch.append(string + end)
        end = ""
        if len(batch) == JSONL_BATCH or not order:
            batch.reverse()
            pieces.append("},".join(batch))
            batch.clear()
    # the quoted fields are not kept beside the joined line
    del types, values, token_types
    pieces.reverse()
    return "},".join(pieces)


def format_sample(sample: LabeledTree, contexts: list[PathContext],
                  storage_format: str) -> str:
    if storage_format not in FORMATS:
        raise ValueError(f"unknown storage format: {storage_format!r}")
    if storage_format in CONTEXT_FORMATS:
        return format_code2seq(sample, contexts,
                               typed=storage_format in TYPED_FORMATS)
    return format_jsonl_tree(sample)


# -- statistics ---------------------------------------------------------------

def staging_path(path: Path) -> Path:
    """Where an output file is written until its run moves it into place."""
    return path.with_name(f".{path.name}.partial")


def finalize(stats: RunStatistics, sink: TextIO | None, output_dir: Path,
             staged: Sequence[Path]) -> None:
    """Commit a finished run: summarize it, then move its files into place.

    Writes stats.json at its staging path and the human-readable summary to
    sink, flushed, so a sink that cannot take it fails the run before it
    commits. A sink of None stands for sys.stdout, and a None sys.stdout (fd
    1 was closed) drops the summary, as print does. Then replaces stats.json
    and each of `staged`, whose bytes sit at their staging paths, one after
    another with no work in between.
    """
    data = stats.to_dict()
    stats_path = output_dir / STATS_FILE
    with open(staging_path(stats_path), "w", encoding="utf-8",
              newline="") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")
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
    print("\n".join(lines), file=sink, flush=True)
    for path in (*staged, stats_path):
        os.replace(staging_path(path), path)
