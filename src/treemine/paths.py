"""Path-context mining.

A path-context joins two AST leaves through their lowest common ancestor:
(start token, node-type path, end token) plus resolved types. Contexts are
bounded by path node count and by width, the child-index gap of the two
branches at the LCA. Oversized bags are down-sampled deterministically.

Leaves are paired only through their ancestors: a leaf climbs no higher than
the node-count limit allows and meets only the leaves of the next
`max_path_width` children at each ancestor, so the cost grows with the
leaves within reach of each leaf, not with all pairs.

One index of the leaves serves both entry points, and one walker lists
pairs from it. `enumerate_paths` lists every valid pair. On a large unit,
`mine` lists each leaf's pairs in turn only to count them: it draws the
sample from the count, lists again only the leaves where a drawn pair falls
and builds only the contexts it keeps, so its memory grows with the leaves
and the limits, not with the valid pairs.

A context is made as the text a code2seq line writes (`PathContext`), so
the writer only joins it. A leaf's token, type and chain node types are made
once per unit, the first time the leaf ends a kept context, and each half of
a path once per leaf and height; nothing is kept from one unit to the next.

The seed of each drawn sample is the SHA-256 of a short key, from CPython's
own C module (`_sha2`, or `_sha256` before 3.12), imported by the first draw,
and not from `hashlib`, which maps OpenSSL's libcrypto, about 3.6 MB of
resident memory, into every process that imports it; `hashlib` serves only
an interpreter without that module, as `random` falls back for its own seed.
"""

import random
import re
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .ast_builder import AstNode
from .type_resolver import NO_TYPE


class MinerLimits(NamedTuple):
    max_path_nodes: int = 9
    max_path_width: int = 2
    max_contexts: int = 200
    rng_seed: int = 0


class PathContext(NamedTuple):
    """A context as a code2seq line writes it: five strings.

    A token is its subtokens joined by `|`. A type is the resolved type, or
    NO_TYPE, with whitespace removed and `,` written as `;`, so that a comma
    separates only the fields of a context. The path is the node types from
    the start leaf up to the common ancestor and down to the end leaf,
    joined by `|`; node types hold no comma or whitespace.
    """
    start_token: str
    start_type: str
    path: str
    end_token: str
    end_type: str


_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z])(?=[A-Z])")
_NON_ALNUM = re.compile(r"[^0-9A-Za-z]+")


def split_subtokens(token: str) -> list[str]:
    """Split on underscores and lower-to-upper boundaries, lowercased.

    Characters outside letters and digits are removed. A token with nothing
    left yields the singleton ["_"].
    """
    if token.isascii() and token.isalnum():
        # no underscore and nothing to remove
        if token.islower():
            return [token]
        return [piece.lower() for piece in _CAMEL_BOUNDARY.split(token)]
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
    index = _LeafIndex(tree, limits)
    return _build(index.chains, index.pairs(range(len(index.chains))))


def sample_contexts(contexts: list[PathContext], limits: MinerLimits,
                    tree_key: str = "") -> list[PathContext]:
    """Deterministically down-sample to max_contexts, preserving order.

    The generator is seeded from rng_seed plus a stable per-tree key so
    results do not depend on processing order across trees.
    """
    return [contexts[k] for k in _picks(len(contexts), limits, tree_key)]


# A unit with at most this many times max_contexts leaf pairs in all has
# its valid pairs listed once and drawn from: while they are few, they take
# little memory, and listing once beats listing twice (count, then locate).
LIST_FACTOR = 64


def mine(tree: AstNode, limits: MinerLimits, label: str) -> list[PathContext]:
    """What sample_contexts keeps of enumerate_paths(tree, limits).

    The tree key is `label:leaf count`. A unit with more than LIST_FACTOR *
    max_contexts leaf pairs has its pairs counted a leaf at a time: the
    sample is drawn from the count, and only the leaves where a pick falls
    are listed again. So memory does not grow with the number of valid pairs.
    """
    index = _LeafIndex(tree, limits)
    n_leaves = len(index.chains)
    tree_key = f"{label}:{n_leaves}"
    if n_leaves * (n_leaves - 1) // 2 <= LIST_FACTOR * limits.max_contexts:
        pairs = index.pairs(range(n_leaves))
        picks = _picks(len(pairs), limits, tree_key)
        return _build(index.chains, [pairs[k] for k in picks])
    counts = [len(index.pairs((i,))) for i in range(n_leaves)]
    picks = _picks(sum(counts), limits, tree_key)
    return _build(index.chains, index.locate(counts, picks))


def _picks(n: int, limits: MinerLimits, tree_key: str) -> range | list[int]:
    """Indices, ascending, of the max_contexts of n contexts that are kept."""
    if n <= limits.max_contexts:
        return range(n)
    key = f"{limits.rng_seed}:{tree_key}".encode("utf-8")
    digest = (_sha256 or _load_sha256())(key).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    return sorted(rng.sample(range(n), limits.max_contexts))


# the SHA-256 constructor that seeds the draws, set by the first draw
_sha256 = None


def _load_sha256():
    """CPython's C SHA-256, or `hashlib`'s where the interpreter lacks it."""
    global _sha256
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            # as random.py falls back for its own seed
            from hashlib import sha256
    _sha256 = sha256
    return sha256


class _LeafIndex:
    """The leaves of a tree in preorder, and what pairs them within limits.

    Each leaf comes as its chain: the leaf, then its ancestors up to the
    highest one a path from it can turn at. A path turning `up` edges above
    leaf i may go down at most `max_path_nodes - up - 1` edges, so each
    node's reach list holds the leaves at most `max_path_nodes - 3` levels
    below it (up >= 1, and the first edge down is the one into the branch
    child), in preorder.
    """

    def __init__(self, tree: AstNode, limits: MinerLimits) -> None:
        max_nodes = limits.max_path_nodes
        reach_depth = max_nodes - 3
        reach: dict[int, list[int]] = {}
        chains: list[list[AstNode]] = []
        branches: list[list[int]] = []
        depths: list[int] = []

        # preorder; from the root down to the current node, `path` holds the
        # nodes, `index` each one's place among its parent's children and
        # `lists` each one's reach list
        path: list[AstNode] = []
        index: list[int] = []
        lists: list[list[int]] = []
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
                lists[depth - e].append(i)
            chains.append(path[:-max_nodes:-1])
            branches.append(index[:-max_nodes:-1])
            depths.append(depth)
        self.limits = limits
        self.reach = reach
        self.chains = chains
        self.branches = branches
        self.depths = depths

    def locate(self, counts: list[int], picks: Sequence[int]) -> list[Pair]:
        """The pairs at `picks`, ascending indices into the (i, j) order of
        all valid pairs, given how many pairs each leaf starts.

        Only the pairs of the leaves where a pick falls are listed again.
        """
        pairs: list[Pair] = []
        k = 0
        start = 0  # the index of the first pair of leaf i
        for i, n in enumerate(counts):
            if k < len(picks) and picks[k] < start + n:
                found = self.pairs((i,))
                while k < len(picks) and picks[k] < start + n:
                    pairs.append(found[picks[k] - start])
                    k += 1
            start += n
        return pairs

    def pairs(self, leaves: Iterable[int]) -> list[Pair]:
        """The valid pairs that `leaves` start, in (i, j) order.

        For a fixed i the pairs come out with j ascending: the leaves under
        the later children of a lower ancestor all precede those under the
        later children of a higher one.
        """
        max_nodes = self.limits.max_path_nodes
        width = self.limits.max_path_width
        reach = self.reach
        depths = self.depths
        pairs: list[Pair] = []
        append = pairs.append
        for i in leaves:
            chain = self.chains[i]
            branch = self.branches[i]
            depth = depths[i]
            # the ancestor chain[up] is reached through its child
            # branch[up - 1]; from it, a path may go down at most
            # max_nodes - up - 1 edges, so to depth `deepest`
            for up in range(1, len(chain)):
                deepest = depth + max_nodes - 1 - 2 * up
                base = depth - up
                k = branch[up - 1]
                for child in chain[up].children[k + 1:k + 1 + width]:
                    for j in reach[id(child)]:
                        d = depths[j]
                        if d <= deepest:
                            append((i, j, up, d - base))
        return pairs


def _build(chains: list[list[AstNode]], pairs: list[Pair]) -> list[PathContext]:
    """One context per pair, each of its strings made at most once.

    A leaf's token, type and chain node types are made the first time the
    leaf ends a context, and the written text of each distinct token and
    type once. The path's rising half, the start leaf up to the common
    ancestor, is joined once per (leaf, height): pairs come grouped by start
    leaf and height, so it is the last one joined or a new one. The falling
    half, below the ancestor down to the end leaf, is kept by (leaf,
    height), so a context costs one concatenation. Nothing outlives the
    call.
    """
    ends: dict[int, tuple[str, str, list[str]]] = {}
    # the written text by token, and by resolved type
    token_texts: dict[str | None, str] = {}
    type_texts: dict[str | None, str] = {}

    def end_of(k: int) -> tuple[str, str, list[str]]:
        end = ends.get(k)
        if end is None:
            chain = chains[k]
            leaf = chain[0]
            token = token_texts.get(leaf.token)
            if token is None:
                token = token_texts[leaf.token] = "|".join(
                    split_subtokens(leaf.token or ""))
            type_ = type_texts.get(leaf.resolved_type)
            if type_ is None:
                type_ = type_texts[leaf.resolved_type] = "".join(
                    (leaf.resolved_type or NO_TYPE).split()).replace(",", ";")
            end = ends[k] = (token, type_, [node.node_type for node in chain])
        return end

    # keyed by down * n + j, one key per (leaf, height) as 1 <= down and
    # j < n
    falls: dict[int, tuple[str, str, str]] = {}
    n = len(chains)
    contexts: list[PathContext] = []
    new = tuple.__new__
    last_i = last_up = -1
    for i, j, up, down in pairs:
        if i != last_i or up != last_up:
            last_i = i
            last_up = up
            start_token, start_type, types = end_of(i)
            rise = "|".join(types[:up + 1])
        end = falls.get(down * n + j)
        if end is None:
            end_token, end_type, types = end_of(j)
            end = falls[down * n + j] = (end_token, end_type,
                                         "|" + "|".join(types[down - 1::-1]))
        end_token, end_type, fall = end
        # tuple.__new__ skips the Python-level __new__ of a NamedTuple
        contexts.append(new(PathContext, (start_token, start_type,
                                          rise + fall, end_token, end_type)))
    return contexts
