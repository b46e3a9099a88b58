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
pairs from it. The index keeps one frame per internal node: the node, its
place among its parent's children, its parent's frame and its reach list.
A leaf keeps its node, its place, its parent's frame and its depth, and
reaches its ancestors by walking frames. A path that turns at a node goes
down through a later child than the one it came up through, so only a child
after the first starts a window, and only such a child has a reach entry:
an internal child's reach list, or a leaf child's own index.

`enumerate_paths` lists every valid pair. On a large unit, `mine` lists
each leaf's pairs in turn only to count them: it draws the sample from the
count, lists again only the leaves where a drawn pair falls and builds only
the contexts it keeps, so its memory grows with the leaves and the limits,
not with the valid pairs.

A context is made as the text a code2seq line writes (`PathContext`), so
the writer only joins it. A leaf's token, type and node types, which
`_build` reads by walking the leaf's frames, are made once per unit, the
first time the leaf ends a kept context, and each half of a path once per
leaf and height; nothing is kept from one unit to the next.

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

# (node, place among its parent's children, parent's frame, reach list or
# None): what the leaf index keeps of an internal node
Frame = tuple[AstNode, int, "Frame | None", "list[int] | None"]


def enumerate_paths(tree: AstNode, limits: MinerLimits) -> list[PathContext]:
    """All leaf-pair contexts within the limits, ordered by leaf indices."""
    index = _LeafIndex(tree, limits)
    return _build(index, index.pairs(range(len(index.leaves))))


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
# The rule counts leaf pairs, which bound the valid pairs, so it is what
# keeps a larger unit's valid pairs out of memory: a rule on the valid pairs
# would list all 9,608 of a 718-leaf unit at max_contexts 200, about 790 KB
# traced, more than its index and its counted draw together, where
# count-then-locate holds none of them.
LIST_FACTOR = 64


def mine(tree: AstNode, limits: MinerLimits, label: str) -> list[PathContext]:
    """What sample_contexts keeps of enumerate_paths(tree, limits).

    The tree key is `label:leaf count`. A unit with more than LIST_FACTOR *
    max_contexts leaf pairs has its pairs counted a leaf at a time: the
    sample is drawn from the count, and only the leaves where a pick falls
    are listed again. So memory does not grow with the number of valid pairs.
    """
    index = _LeafIndex(tree, limits)
    n_leaves = len(index.leaves)
    tree_key = f"{label}:{n_leaves}"
    if n_leaves * (n_leaves - 1) // 2 <= LIST_FACTOR * limits.max_contexts:
        pairs = index.pairs(range(n_leaves))
        picks = _picks(len(pairs), limits, tree_key)
        return _build(index, [pairs[k] for k in picks])
    counts = [len(index.pairs((i,))) for i in range(n_leaves)]
    picks = _picks(sum(counts), limits, tree_key)
    return _build(index, index.locate(counts, picks))


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

    Each internal node has one frame, a tuple: the node, its place among its
    parent's children, its parent's frame (None at the root) and its reach
    list, or None. A leaf keeps its node, its place, its parent's frame and
    its depth. So a leaf's ancestors are read by walking frames upwards:
    `pairs` walks them to find the windows, and `_build` to read the node
    types of a path.

    A path turning at an ancestor goes down through a child after the one it
    came up through, so only a child after the first starts a window, and
    only such a child has a reach entry, kept by the child's `id()`. An
    internal child's entry is its frame's reach list: the leaves at most
    `max_path_nodes - 3` levels below it (a path turning `up` edges above
    leaf i may go down at most `max_path_nodes - up - 1` edges, up >= 1, and
    the first edge down is the one into the child), in preorder. A leaf
    child's entry is its own leaf index.
    """

    def __init__(self, tree: AstNode, limits: MinerLimits) -> None:
        reach_depth = limits.max_path_nodes - 3
        reach: dict[int, list[int] | int] = {}
        leaves: list[AstNode] = []
        places: list[int] = []
        parents: list[Frame | None] = []
        depths: list[int] = []
        stack: list[tuple[AstNode, int, Frame | None, int]] = [
            (tree, 0, None, 0)]
        while stack:
            node, k, parent, depth = stack.pop()
            children = node.children
            if children:
                own = None
                if k:
                    own = reach[id(node)] = []
                frame = (node, k, parent, own)
                n = len(children)
                stack.extend(zip(reversed(children), range(n - 1, -1, -1),
                                 repeat(frame, n), repeat(depth + 1, n)))
                continue
            i = len(leaves)
            if k:
                reach[id(node)] = i
            leaves.append(node)
            places.append(k)
            parents.append(parent)
            depths.append(depth)
            frame = parent
            for _ in range(min(reach_depth, depth)):
                own = frame[3]
                if own is not None:
                    own.append(i)
                frame = frame[2]
        self.limits = limits
        self.reach = reach
        self.leaves = leaves
        self.places = places
        self.parents = parents
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
        places = self.places
        parents = self.parents
        depths = self.depths
        pairs: list[Pair] = []
        append = pairs.append
        for i in leaves:
            depth = depths[i]
            k = places[i]
            frame = parents[i]
            # the ancestor `up` edges above leaf i is reached through its
            # child k; from it, a path may go down at most max_nodes - up - 1
            # edges, so to depth `deepest`
            for up in range(1, min(depth, max_nodes - 2) + 1):
                node, place, parent, _ = frame
                deepest = depth + max_nodes - 1 - 2 * up
                base = depth - up
                for child in node.children[k + 1:k + 1 + width]:
                    entry = reach[id(child)]
                    if entry.__class__ is int:
                        # a leaf child, one edge down: always within reach
                        append((i, entry, up, 1))
                        continue
                    for j in entry:
                        d = depths[j]
                        if d <= deepest:
                            append((i, j, up, d - base))
                k = place
                frame = parent
        return pairs


def _build(index: _LeafIndex, pairs: list[Pair]) -> list[PathContext]:
    """One context per pair, each of its strings made at most once.

    A leaf's token, type and node types (its own, then those of the
    ancestors a path from it can turn at, read by walking its frames) are
    made the first time the leaf ends a context, and the written text of
    each distinct token and type once. The path's rising half, the start
    leaf up to the common ancestor, is joined once per (leaf, height):
    pairs come grouped by start leaf and height, so it is the last one
    joined or a new one. The falling half, below the ancestor down to the
    end leaf, is kept by (leaf, height), so a context costs one
    concatenation. Nothing outlives the call.
    """
    leaves = index.leaves
    parents = index.parents
    depths = index.depths
    # the ancestors a path from a leaf can turn at
    most = index.limits.max_path_nodes - 2
    ends: dict[int, tuple[str, str, list[str]]] = {}
    # the written text by token, and by resolved type
    token_texts: dict[str | None, str] = {}
    type_texts: dict[str | None, str] = {}

    def end_of(k: int) -> tuple[str, str, list[str]]:
        end = ends.get(k)
        if end is None:
            leaf = leaves[k]
            token = token_texts.get(leaf.token)
            if token is None:
                token = token_texts[leaf.token] = "|".join(
                    split_subtokens(leaf.token or ""))
            type_ = type_texts.get(leaf.resolved_type)
            if type_ is None:
                type_ = type_texts[leaf.resolved_type] = "".join(
                    (leaf.resolved_type or NO_TYPE).split()).replace(",", ";")
            types = [leaf.node_type]
            frame = parents[k]
            for _ in range(min(depths[k], most)):
                types.append(frame[0].node_type)
                frame = frame[2]
            end = ends[k] = (token, type_, types)
        return end

    # keyed by down * n + j, one key per (leaf, height) as 1 <= down and
    # j < n
    falls: dict[int, tuple[str, str, str]] = {}
    n = len(leaves)
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
