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

The seed of each drawn sample is the SHA-256 of a short key, computed here
rather than with `hashlib`, which maps OpenSSL's libcrypto, about 3.6 MB of
resident memory, into every process that imports it.
"""

import random
import re
import struct
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
    digest = _sha256(f"{limits.rng_seed}:{tree_key}".encode("utf-8"))
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    return sorted(rng.sample(range(n), limits.max_contexts))


# FIPS 180-4: the first 32 bits of the fractional parts of the cube roots of
# the first 64 primes, and of the square roots of the first 8
_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2)
_H = (0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
      0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19)


def _sha256(data: bytes) -> bytes:
    """The SHA-256 digest of `data` (FIPS 180-4).

    Words are below 2**32. `x * 0x100000001` holds two copies of the word
    x side by side, so its low 32 bits shifted right by n are x rotated
    right by n. Bits above bit 31 do not change the low 32 bits of a sum,
    so a word is masked only once it is stored.
    """
    size = len(data)
    data += (b"\x80" + bytes(-(size + 9) % 64)
             + (8 * size).to_bytes(8, "big"))
    state = _H
    for offset in range(0, len(data), 64):
        w = list(struct.unpack_from(">16I", data, offset))
        for t in range(16, 64):
            x = w[t - 15]
            y = w[t - 2]
            xx = x * 0x100000001
            yy = y * 0x100000001
            w.append((w[t - 16] + w[t - 7] + (xx >> 7 ^ xx >> 18 ^ x >> 3)
                      + (yy >> 17 ^ yy >> 19 ^ y >> 10)) & 0xFFFFFFFF)
        a, b, c, d, e, f, g, h = state
        # Ch(e, f, g) is g ^ e & (f ^ g) and Maj(a, b, c) is
        # a & b | c & (a | b), each an operation shorter than in FIPS 180-4
        for k, x in zip(_K, w):
            ee = e * 0x100000001
            aa = a * 0x100000001
            t1 = (h + x + k + (g ^ e & (f ^ g))
                  + (ee >> 6 ^ ee >> 11 ^ ee >> 25))
            t2 = (a & b | c & (a | b)) + (aa >> 2 ^ aa >> 13 ^ aa >> 22)
            h = g
            g = f
            f = e
            e = (d + t1) & 0xFFFFFFFF
            d = c
            c = b
            b = a
            a = (t1 + t2) & 0xFFFFFFFF
        state = [(s + v) & 0xFFFFFFFF
                 for s, v in zip(state, (a, b, c, d, e, f, g, h))]
    return struct.pack(">8I", *state)


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
    leaf ends a context. The path's rising half, the start leaf up to the
    common ancestor, is joined once per (leaf, height): pairs come grouped
    by start leaf and height, so it is the last one joined or a new one.
    The falling half, below the ancestor down to the end leaf, is kept by
    (leaf, height), so a context costs one concatenation. Nothing outlives
    the call.
    """
    ends: dict[int, tuple[str, str, list[str]]] = {}

    def end_of(k: int) -> tuple[str, str, list[str]]:
        end = ends.get(k)
        if end is None:
            chain = chains[k]
            leaf = chain[0]
            end = ends[k] = (
                "|".join(split_subtokens(leaf.token or "")),
                "".join((leaf.resolved_type or NO_TYPE).split())
                .replace(",", ";"),
                [node.node_type for node in chain])
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
