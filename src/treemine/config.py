"""Configuration loading and validation.

The run is driven by one JSON file. Validation applies defaults, rejects
unknown keys at every level, and reports every problem at once instead of
stopping at the first.
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

    input_dir = _str_field(raw, "input_dir", None, problems, required=True)
    output_dir = _str_field(raw, "output_dir", None, problems, required=True)
    dataset_name = _str_field(raw, "dataset_name", "dataset", problems)

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
    extractor_name, name_token, recursion_token = _validate_extractor(
        raw.get("label_extractor", {"name": "none"}), problems)
    miner = _validate_miner(raw.get("miner", {}), problems)
    storage_format = _validate_storage(raw.get("storage"), problems)

    parallelism = raw.get("parallelism", 1)
    if not _is_int(parallelism) or parallelism < 1:
        problems.append("parallelism must be a positive integer")
        parallelism = 1

    if extractor_name == "method_name":
        if granularity != "method":
            problems.append("label_extractor method_name requires "
                            "granularity \"method\"")
        # the label is the first IDENTIFIER leaf among the method's children
        for kinds, problem in (
                ({CstKind.IDENTIFIER},
                 "ignoring IDENTIFIER leaves a method no name leaf"),
                ({CstKind.TYPE_REF},
                 "ignoring TYPE_REF can label a method by its return type"),
                ({CstKind.MODIFIER_LIST, CstKind.ANNOTATION},
                 "ignoring MODIFIER_LIST and ANNOTATION can label a method "
                 "by its annotation")):
            if kinds <= ignore.node_kinds:
                problems.append("label_extractor method_name: " + problem)
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
        extractor_name=extractor_name,
        name_token=name_token,
        recursion_token=recursion_token,
        miner=miner,
        storage_format=storage_format,
        parallelism=parallelism,
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _str_field(raw: dict, key: str, default, problems: list[str],
               required: bool = False):
    if key not in raw:
        if required:
            problems.append(f"missing required key: {key}")
        return default
    value = raw[key]
    if not isinstance(value, str) or not value:
        problems.append(f"{key} must be a nonempty string")
        return default
    return value


def _validate_filters(raw, problems: list[str]) -> tuple[FilterSpec, ...]:
    if not isinstance(raw, list):
        problems.append("filters must be a list")
        return ()
    specs = []
    for i, entry in enumerate(raw):
        where = f"filters[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} must be an object")
            continue
        unknown = sorted(set(entry) - {"name", "parameters"})
        if unknown:
            problems.append(f"{where}: unknown keys: " + ", ".join(unknown))
        name = entry.get("name")
        if name not in FILTER_NAMES:
            problems.append(f"{where}: name must be one of "
                            + ", ".join(FILTER_NAMES))
            continue
        params = entry.get("parameters", {})
        if not isinstance(params, dict):
            problems.append(f"{where}: parameters must be an object")
            continue
        allowed = {"tree_size": {"max_nodes", "min_nodes"},
                   "code_lines": {"max_lines"}}.get(name, set())
        unknown = sorted(set(params) - allowed)
        if unknown:
            problems.append(f"{where}: unknown parameters for {name}: "
                            + ", ".join(unknown))
            continue
        spec = FilterSpec(name=name,
                          max_nodes=params.get("max_nodes"),
                          min_nodes=params.get("min_nodes"),
                          max_lines=params.get("max_lines"))
        ok = True
        if name == "tree_size":
            if not _is_positive(spec.max_nodes):
                problems.append(f"{where}: tree_size needs positive max_nodes")
                ok = False
            if spec.min_nodes is not None and not _is_positive(spec.min_nodes):
                problems.append(f"{where}: min_nodes must be positive")
                ok = False
            if (ok and spec.min_nodes is not None
                    and spec.min_nodes > spec.max_nodes):
                problems.append(f"{where}: min_nodes exceeds max_nodes")
                ok = False
        elif name == "code_lines":
            if not _is_positive(spec.max_lines):
                problems.append(f"{where}: code_lines needs positive max_lines")
                ok = False
        if ok:
            specs.append(spec)
    return tuple(specs)


def _is_positive(value) -> bool:
    return _is_int(value) and value > 0


def _validate_extractor(raw, problems: list[str]) -> tuple[str, str, str]:
    name, name_token, recursion_token = \
        "none", DEFAULT_NAME_TOKEN, DEFAULT_RECURSION_TOKEN
    if not isinstance(raw, dict):
        problems.append("label_extractor must be an object")
        return name, name_token, recursion_token
    unknown = sorted(set(raw) - {"name", "name_token", "recursion_token"})
    if unknown:
        problems.append("label_extractor: unknown keys: " + ", ".join(unknown))
    candidate = raw.get("name")
    if candidate not in _EXTRACTOR_NAMES:
        problems.append("label_extractor.name must be one of "
                        + ", ".join(_EXTRACTOR_NAMES))
    else:
        name = candidate
    for key in ("name_token", "recursion_token"):
        if key not in raw:
            continue
        if name != "method_name":
            problems.append(f"label_extractor.{key} only applies to "
                            "the method_name extractor")
        elif not isinstance(raw[key], str) or not raw[key]:
            problems.append(f"label_extractor.{key} must be a nonempty string")
        elif key == "name_token":
            name_token = raw[key]
        else:
            recursion_token = raw[key]
    return name, name_token, recursion_token


def _validate_miner(raw, problems: list[str]) -> MinerLimits:
    defaults = MinerLimits()
    if not isinstance(raw, dict):
        problems.append("miner must be an object")
        return defaults
    unknown = sorted(set(raw) - {"max_path_nodes", "max_path_width",
                                 "max_contexts", "rng_seed"})
    if unknown:
        problems.append("miner: unknown keys: " + ", ".join(unknown))
    values = {}
    for key, minimum in (("max_path_nodes", 1), ("max_path_width", 0),
                         ("max_contexts", 1)):
        if key in raw:
            if not _is_int(raw[key]) or raw[key] < minimum:
                problems.append(f"miner.{key} must be an integer >= {minimum}")
            else:
                values[key] = raw[key]
    if "rng_seed" in raw:
        if not _is_int(raw["rng_seed"]):
            problems.append("miner.rng_seed must be an integer")
        else:
            values["rng_seed"] = raw["rng_seed"]
    return MinerLimits(
        max_path_nodes=values.get("max_path_nodes", defaults.max_path_nodes),
        max_path_width=values.get("max_path_width", defaults.max_path_width),
        max_contexts=values.get("max_contexts", defaults.max_contexts),
        rng_seed=values.get("rng_seed", defaults.rng_seed),
    )


def _validate_storage(raw, problems: list[str]) -> str:
    if raw is None:
        problems.append("missing required key: storage")
        return FORMATS[0]
    if not isinstance(raw, dict):
        problems.append("storage must be an object")
        return FORMATS[0]
    unknown = sorted(set(raw) - {"format"})
    if unknown:
        problems.append("storage: unknown keys: " + ", ".join(unknown))
    fmt = raw.get("format")
    if fmt not in FORMATS:
        problems.append("storage.format must be one of " + ", ".join(FORMATS))
        return FORMATS[0]
    return fmt
