"""Configuration loading and validation.

The run is driven by one JSON file. Validation rejects unknown keys at every
level and reports every problem at once instead of stopping at the first.
Defaults come from where they are defined, and one table rejects ignore lists
that would silently defeat the label extractor or a filter.
"""

import json
from dataclasses import dataclass
from pathlib import Path

from .ast_builder import DEFAULT_IGNORE_NAMES, IgnoreList
from .cst import CstKind
from .errors import ConfigError
from .filters import FILTER_NAMES, METHOD_ONLY_FILTERS, FilterSpec
from .granularity import GRANULARITY_LEVELS
from .labels import DEFAULT_NAME_TOKEN, DEFAULT_RECURSION_TOKEN
from .paths import MinerLimits
from .storage import FORMATS, StorageSpec

_TOP_KEYS = ("input_dir", "output_dir", "dataset_name", "source_extensions",
             "ignore_node_kinds", "granularity", "filters", "label_extractor",
             "miner", "storage", "parallelism")
_EXTRACTOR_NAMES = ("none", "method_name")
_EXTRACTOR_KEYS = ("name", "name_token", "recursion_token")
# the parameters each filter takes; the others take none
_FILTER_PARAMETERS = {"tree_size": ("max_nodes", "min_nodes"),
                      "code_lines": ("max_lines",)}
# each miner limit with its least value; None takes any integer
_MINER_MINIMUMS = {"max_path_nodes": 1, "max_path_width": 0,
                   "max_contexts": 1, "rng_seed": None}

# (feature, ignored kinds, problem): ignoring all the kinds defeats the label
# extractor or filter; method_name takes a method's first IDENTIFIER child
_IGNORE_CONFLICTS = (
    ("label_extractor method_name", {CstKind.IDENTIFIER},
     "ignoring IDENTIFIER leaves a method no name leaf"),
    ("label_extractor method_name", {CstKind.TYPE_REF},
     "ignoring TYPE_REF can label a method by its return type"),
    ("label_extractor method_name", {CstKind.MODIFIER_LIST, CstKind.ANNOTATION},
     "ignoring MODIFIER_LIST and ANNOTATION can label a method "
     "by its annotation"),
    ("filter override_method", {CstKind.ANNOTATION},
     "ignoring ANNOTATION keeps every @Override method"),
    ("filter override_method", {CstKind.IDENTIFIER},
     "ignoring IDENTIFIER keeps every @Override method"),
    ("filter abstract_method", {CstKind.CODE_BLOCK},
     "ignoring CODE_BLOCK rejects every method as abstract"),
)


@dataclass(frozen=True)
class PipelineConfig:
    input_dir: Path
    output_dir: Path
    dataset_name: str
    source_extensions: tuple[str, ...]
    ignore: IgnoreList
    granularity: str
    filters: tuple[FilterSpec, ...]
    extractor_name: str
    name_token: str
    recursion_token: str
    miner: MinerLimits
    storage_format: str
    parallelism: int

    def storage_spec(self) -> StorageSpec:
        return StorageSpec(self.storage_format, self.output_dir,
                           self.dataset_name)


def load_config(path: Path) -> PipelineConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return validate_config(raw)


def validate_config(raw) -> PipelineConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    problems: list[str] = []

    unknown = sorted(set(raw) - set(_TOP_KEYS))
    if unknown:
        problems.append("unknown configuration keys: " + ", ".join(unknown))

    input_dir = _str_field(raw, "input_dir", problems)
    output_dir = _str_field(raw, "output_dir", problems)
    dataset_name = _str_field(raw, "dataset_name", problems, "dataset")

    extensions = raw.get("source_extensions", [".java"])
    if (not isinstance(extensions, list) or not extensions
            or not all(isinstance(e, str) and e.startswith(".") and len(e) > 1
                       for e in extensions)):
        problems.append("source_extensions must be a nonempty list of "
                        "extensions starting with '.'")
        extensions = [".java"]

    ignore_names = raw.get("ignore_node_kinds", list(DEFAULT_IGNORE_NAMES))
    ignore = IgnoreList(frozenset())
    if not isinstance(ignore_names, list) or not all(
            isinstance(n, str) for n in ignore_names):
        problems.append("ignore_node_kinds must be a list of node kind names")
    else:
        if "FILE" in ignore_names:
            problems.append("FILE cannot be ignored: it is the tree root")
        try:
            ignore = IgnoreList.from_names(n for n in ignore_names if n != "FILE")
        except ConfigError as exc:
            problems.extend(exc.problems)

    granularity = raw.get("granularity")
    if granularity not in GRANULARITY_LEVELS:
        problems.append("granularity must be one of "
                        + ", ".join(GRANULARITY_LEVELS))
        granularity = "file"

    filters = _validate_filters(raw.get("filters", []), problems)
    extractor = _validate_extractor(raw.get("label_extractor", {"name": "none"}),
                                    problems)
    miner = _validate_miner(raw.get("miner", {}), problems)
    storage_format = _validate_storage(raw.get("storage"), problems)

    parallelism = raw.get("parallelism", 1)
    if not _is_int(parallelism, 1):
        problems.append("parallelism must be a positive integer")
        parallelism = 1

    if extractor["extractor_name"] == "method_name" and granularity != "method":
        problems.append("label_extractor method_name requires "
                        "granularity \"method\"")
    features = {"label_extractor " + extractor["extractor_name"],
                *("filter " + spec.name for spec in filters)}
    problems.extend(f"{feature}: {problem}"
                    for feature, kinds, problem in _IGNORE_CONFLICTS
                    if feature in features and kinds <= ignore.node_kinds)
    method_only = [s.name for s in filters if s.name in METHOD_ONLY_FILTERS]
    if method_only and granularity != "method":
        problems.append("filters requiring method granularity: "
                        + ", ".join(sorted(set(method_only))))

    if problems:
        raise ConfigError(problems)
    return PipelineConfig(
        input_dir=Path(input_dir),
        output_dir=Path(output_dir),
        dataset_name=dataset_name,
        source_extensions=tuple(extensions),
        ignore=ignore,
        granularity=granularity,
        filters=filters,
        **extractor,
        miner=miner,
        storage_format=storage_format,
        parallelism=parallelism,
    )


def _is_int(value, minimum=None) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and (minimum is None or value >= minimum))


def _object(value, where: str, keys, problems: list[str]) -> bool:
    """True if `value` is an object; reports a non-object or unknown keys."""
    if not isinstance(value, dict):
        problems.append(f"{where} must be an object")
        return False
    unknown = sorted(set(value) - set(keys))
    if unknown:
        problems.append(f"{where}: unknown keys: " + ", ".join(unknown))
    return True


def _str_field(raw: dict, key: str, problems: list[str], default=None):
    """A nonempty string; a key without a default is required."""
    if key not in raw:
        if default is None:
            problems.append(f"missing required key: {key}")
    elif isinstance(raw[key], str) and raw[key]:
        return raw[key]
    else:
        problems.append(f"{key} must be a nonempty string")
    return default


def _validate_filters(raw, problems: list[str]) -> tuple[FilterSpec, ...]:
    if not isinstance(raw, list):
        problems.append("filters must be a list")
        return ()
    specs = []
    for i, entry in enumerate(raw):
        where = f"filters[{i}]"
        if not _object(entry, where, ("name", "parameters"), problems):
            continue
        name = entry.get("name")
        if name not in FILTER_NAMES:
            problems.append(f"{where}: name must be one of "
                            + ", ".join(FILTER_NAMES))
            continue
        params = entry.get("parameters", {})
        if not isinstance(params, dict):
            problems.append(f"{where}: parameters must be an object")
            continue
        unknown = sorted(set(params) - set(_FILTER_PARAMETERS.get(name, ())))
        if unknown:
            problems.append(f"{where}: unknown parameters for {name}: "
                            + ", ".join(unknown))
            continue
        spec = FilterSpec(name, **params)
        checked = len(problems)
        if name == "tree_size":
            if not _is_int(spec.max_nodes, 1):
                problems.append(f"{where}: tree_size needs positive max_nodes")
            if spec.min_nodes is not None and not _is_int(spec.min_nodes, 1):
                problems.append(f"{where}: min_nodes must be positive")
            if (len(problems) == checked and spec.min_nodes is not None
                    and spec.min_nodes > spec.max_nodes):
                problems.append(f"{where}: min_nodes exceeds max_nodes")
        elif name == "code_lines" and not _is_int(spec.max_lines, 1):
            problems.append(f"{where}: code_lines needs positive max_lines")
        if len(problems) == checked:
            specs.append(spec)
    return tuple(specs)


def _validate_extractor(raw, problems: list[str]) -> dict:
    fields = {"extractor_name": "none", "name_token": DEFAULT_NAME_TOKEN,
              "recursion_token": DEFAULT_RECURSION_TOKEN}
    if not _object(raw, "label_extractor", _EXTRACTOR_KEYS, problems):
        return fields
    if raw.get("name") in _EXTRACTOR_NAMES:
        fields["extractor_name"] = raw["name"]
    else:
        problems.append("label_extractor.name must be one of "
                        + ", ".join(_EXTRACTOR_NAMES))
    for key in ("name_token", "recursion_token"):
        if key not in raw:
            continue
        if fields["extractor_name"] != "method_name":
            problems.append(f"label_extractor.{key} only applies to "
                            "the method_name extractor")
        elif not isinstance(raw[key], str) or not raw[key]:
            problems.append(f"label_extractor.{key} must be a nonempty string")
        else:
            fields[key] = raw[key]
    return fields


def _validate_miner(raw, problems: list[str]) -> MinerLimits:
    checked = {}
    if _object(raw, "miner", _MINER_MINIMUMS, problems):
        for key, minimum in _MINER_MINIMUMS.items():
            if key in raw and _is_int(raw[key], minimum):
                checked[key] = raw[key]
            elif key in raw:
                problems.append(f"miner.{key} must be an integer" + (
                    "" if minimum is None else f" >= {minimum}"))
    return MinerLimits(**checked)


def _validate_storage(raw, problems: list[str]) -> str:
    if raw is None:
        problems.append("missing required key: storage")
    elif _object(raw, "storage", ("format",), problems):
        if raw.get("format") in FORMATS:
            return raw["format"]
        problems.append("storage.format must be one of " + ", ".join(FORMATS))
    return FORMATS[0]
