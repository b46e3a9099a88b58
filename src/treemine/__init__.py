"""treemine: mine ML-ready path-context and tree datasets from source code."""

from .ast_builder import AstNode, IgnoreList, build_ast, count_nodes
from .cst import CstKind, CstNode, SourceSpan
from .errors import ConfigError, LexError, ParseError
from .filters import FilterSpec, accept
from .granularity import split
from .labels import LabeledTree, extract_method_name, extract_none
from .parser import parse_file
from .paths import (MinerLimits, PathContext, enumerate_paths, mine, sample_contexts,
                    split_subtokens)
from .pipeline import run
from .config import PipelineConfig, load_config, validate_config
from .storage import RunStatistics, StorageSpec
from .type_resolver import NO_TYPE, Scope, annotate_types, resolve_identifier

__version__ = "0.1.0"

__all__ = [
    "AstNode", "ConfigError", "CstKind", "CstNode", "FilterSpec",
    "IgnoreList", "LabeledTree", "LexError", "MinerLimits", "NO_TYPE",
    "ParseError", "PathContext", "PipelineConfig", "RunStatistics", "Scope",
    "SourceSpan", "StorageSpec", "accept", "annotate_types", "build_ast",
    "count_nodes", "enumerate_paths",
    "extract_method_name", "extract_none", "load_config", "mine", "parse_file",
    "resolve_identifier", "run", "sample_contexts", "split",
    "split_subtokens", "validate_config",
]
