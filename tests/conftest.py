"""Shared helpers for the test suite."""

import json
from pathlib import Path

from treemine import build_ast, parse_file
from treemine.ast_builder import DEFAULT_IGNORE_NAMES, AstNode

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_DIR = FIXTURES / "corpus"
BAD_DIR = FIXTURES / "bad"
RECURSIVE_DIR = FIXTURES / "recursive"
GOLDEN_DIR = Path(__file__).parent / "golden"


def build(source, ignore=None):
    """Source text straight to a simplified tree with default ignores."""
    return build_ast(parse_file(source),
                     ignore or frozenset(DEFAULT_IGNORE_NAMES))


def cst_text(node):
    """The source text a CST node covers: its leaf texts joined in order."""
    return "".join(leaf.text for leaf in node.leaves())


def find_all(tree, node_type):
    return [n for n in tree.preorder() if n.node_type == node_type]


def find_one(tree, node_type):
    found = find_all(tree, node_type)
    assert len(found) == 1, f"expected one {node_type}, found {len(found)}"
    return found[0]


def leaf_tokens(tree):
    return [leaf.token for leaf in tree.leaves()]


def write_files(root, files):
    """Create files under root from a {relative path: text} mapping."""
    for rel, text in files.items():
        path = Path(root) / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def base_config(input_dir, output_dir, **overrides):
    cfg = {
        "input_dir": str(input_dir),
        "output_dir": str(output_dir),
        "granularity": "method",
        "label_extractor": {"name": "method_name"},
        "storage": {"format": "code2seq"},
    }
    cfg.update(overrides)
    return cfg


def write_config(directory, cfg, name="config.json"):
    path = Path(directory) / name
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


def random_ast(rng, max_leaves=12):
    """A random tree with plausible node types, tokens, and resolved types."""
    node_types = ["CLASS_DECL", "METHOD_DECL", "CODE_BLOCK", "IF_STMT",
                  "BINARY_EXPR:+", "BINARY_EXPR:<", "UNARY_EXPR:-",
                  "METHOD_CALL", "ARGUMENT_LIST", "RETURN_STMT",
                  "LOCAL_VAR_DECL", "EXPRESSION_STMT", "ASSIGNMENT_EXPR"]
    leaf_types = ["IDENTIFIER", "LITERAL", "TYPE_REF", "MODIFIER"]
    tokens = ["x", "total", "camelCase", "snake_case", "HTTPServer", "_",
              "a1", "value2", "MAX_LIMIT", "x$y", "42", "\"str\""]
    resolved = [None, "int", "boolean", "String", "int[]", "NO_TYPE",
                "List<String>"]
    budget = rng.randint(1, max_leaves)

    def leaf():
        return AstNode(rng.choice(leaf_types), token=rng.choice(tokens),
                       resolved_type=rng.choice(resolved))

    def grow(depth):
        nonlocal budget
        if budget <= 1 or depth >= 6 or rng.random() < 0.3:
            budget -= 1
            return leaf()
        node = AstNode(rng.choice(node_types), children=[])
        for _ in range(rng.randint(1, min(4, budget))):
            if budget <= 0:
                break
            node.children.append(grow(depth + 1))
        return node

    root = AstNode("FILE", children=[])
    while budget > 0:
        root.children.append(grow(1))
    return root
