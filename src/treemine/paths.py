"""Path-context mining.

A path-context joins two AST leaves through their lowest common ancestor:
(start token, node-type path, end token) plus resolved types. Contexts are
bounded by path node count and by width, the child-index gap of the two
branches at the LCA. Oversized bags are down-sampled deterministically.

Leaves are paired only through their ancestors: a leaf climbs no higher than
the node-count limit allows and meets only the leaves of the next
`max_path_width` children at each ancestor, so the cost grows with the
leaves within reach of each leaf, not with all pairs. `mine` counts the valid
pairs first, draws the sample, and builds only the contexts it keeps.
"""

import hashlib
import random
import re
from itertools import repeat
from typing import NamedTuple

from .ast_builder import AstNode
from .type_resolver import NO_TYPE


class MinerLimits(NamedTuple):
    max_path_nodes: int = 9
    max_path_width: int = 2
    max_contexts: int = 200
    rng_seed: int = 0


class PathContext(NamedTuple):
    start_token: tuple[str, ...]
    start_type: str
    path: tuple[str, ...]
    end_token: tuple[str, ...]
    end_type: str


_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z])(?=[A-Z])")
_NON_ALNUM = re.compile(r"[^0-9A-Za-z]+")


def split_subtokens(token: str) -> list[str]:
    """Split on underscores and lower-to-upper boundaries, lowercased.

    Characters outside letters and digits are removed. A token with nothing
    left yields the singleton ["_"].
    """
    parts = []
    for chunk in token.split("_"):
        for piece in _CAMEL_BOUNDARY.split(chunk):
            cleaned = _NON_ALNUM.sub("", piece).lower()
            if cleaned:
                parts.append(cleaned)
    return parts or ["_"]


# (i, j, up, down): leaves i < j meet at the ancestor `up` edges above leaf
# i and `down` edges above leaf j; the path has up + down + 1 nodes.
Pair = tuple[int, int, int, int]


def enumerate_paths(tree: AstNode, limits: MinerLimits) -> list[PathContext]:
    """All leaf-pair contexts within the limits, ordered by leaf indices."""
    chains, pairs = _valid_pairs(tree, limits)
    return _build(chains, pairs)


def sample_contexts(contexts: list[PathContext], limits: MinerLimits,
                    tree_key: str = "") -> list[PathContext]:
    """Deterministically down-sample to max_contexts, preserving order.

    The generator is seeded from rng_seed plus a stable per-tree key so
    results do not depend on processing order across trees.
    """
    return [contexts[k] for k in _picks(len(contexts), limits, tree_key)]


def mine(tree: AstNode, limits: MinerLimits, label: str) -> list[PathContext]:
    """What sample_contexts keeps of enumerate_paths(tree, limits).

    The tree key is `label:leaf count`. The valid pairs are counted before
    any context is built, and only the kept ones are built.
    """
    chains, pairs = _valid_pairs(tree, limits)
    picks = _picks(len(pairs), limits, f"{label}:{len(chains)}")
    return _build(chains, [pairs[k] for k in picks])


def _picks(n: int, limits: MinerLimits, tree_key: str) -> range | list[int]:
    """Indices, ascending, of the max_contexts of n contexts that are kept."""
    if n <= limits.max_contexts:
        return range(n)
    digest = hashlib.sha256(
        f"{limits.rng_seed}:{tree_key}".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    return sorted(rng.sample(range(n), limits.max_contexts))


def _valid_pairs(tree: AstNode,
                 limits: MinerLimits) -> tuple[list[list[AstNode]], list[Pair]]:
    """The leaves in order and their pairs within the limits, in (i, j) order.

    Each leaf comes as its chain: the leaf, then its ancestors up to the
    highest one a path from it can turn at. A path turning `up` edges above
    leaf i may go down at most `max_path_nodes - up - 1` edges, so each node
    keeps the leaves at most `max_path_nodes - 3` levels below it (up >= 1,
    and the first edge down is the one into the branch child).

    For a fixed i the pairs come out with j ascending: the leaves under the
    later children of a lower ancestor all precede those under the later
    children of a higher one.
    """
    max_nodes = limits.max_path_nodes
    width = limits.max_path_width
    reach_depth = max_nodes - 3
    reach: dict[int, list[tuple[int, int]]] = {}
    chains: list[list[AstNode]] = []
    branches: list[list[int]] = []

    # preorder; from the root down to the current node, `path` holds the
    # nodes, `index` each one's place among its parent's children and
    # `lists` each one's reach list
    path: list[AstNode] = []
    index: list[int] = []
    lists: list[list[tuple[int, int]]] = []
    stack = [(tree, 0, 0)]
    while stack:
        node, depth, k = stack.pop()
        del path[depth:], index[depth:], lists[depth:]
        path.append(node)
        index.append(k)
        reach[id(node)] = own = []
        lists.append(own)
        children = node.children
        if children:
            n = len(children)
            stack.extend(zip(reversed(children), repeat(depth + 1, n),
                             range(n - 1, -1, -1)))
            continue
        i = len(chains)
        for e in range(min(reach_depth, depth) + 1):
            lists[depth - e].append((i, e))
        chains.append(path[:-max_nodes:-1])
        branches.append(index[:-max_nodes:-1])

    pairs: list[Pair] = []
    append = pairs.append
    for i, chain in enumerate(chains):
        branch = branches[i]
        # the ancestor chain[up] is reached through its child branch[up - 1]
        for up in range(1, len(chain)):
            budget = max_nodes - up - 2
            k = branch[up - 1]
            for child in chain[up].children[k + 1:k + 1 + width]:
                for j, e in reach[id(child)]:
                    if e <= budget:
                        append((i, j, up, e + 1))
    return chains, pairs


def _build(chains: list[list[AstNode]], pairs: list[Pair]) -> list[PathContext]:
    """One context per pair; each leaf's subtokens and chain types once."""
    ends: dict[int, tuple[tuple[str, ...], str, list[str]]] = {}
    contexts = []
    for i, j, up, down in pairs:
        for leaf_index in (i, j):
            if leaf_index not in ends:
                chain = chains[leaf_index]
                leaf = chain[0]
                ends[leaf_index] = (tuple(split_subtokens(leaf.token or "")),
                                    leaf.resolved_type or NO_TYPE,
                                    [n.node_type for n in chain])
        start_token, start_type, rising = ends[i]
        end_token, end_type, falling = ends[j]
        path = tuple(rising[:up + 1] + falling[down - 1::-1])
        contexts.append(PathContext(start_token, start_type, path,
                                    end_token, end_type))
    return contexts
