"""Independent reference for path-context mining, used only by tests.

Derives leaf-to-leaf paths from parent maps and explicit ancestor walks.
This takes a different route than the production miner (which pairs each
leaf with the leaves under its ancestors' later children), so agreement
between the two is meaningful evidence.

The reference sampler derives the seed of a drawn sample with `hashlib`,
not with the C SHA-256 module that the package imports.

Each reference context is joined on its own by the rules of a code2seq
line: subtokens and node types joined by `|`, a type with its whitespace
removed and `,` written as `;`. The miner makes the same strings its own
way, once per leaf and per path half.
"""

import hashlib
import random

from treemine import NO_TYPE, split_subtokens
from treemine.paths import PathContext


def _parent_maps(root):
    parent = {}
    child_index = {}
    stack = [root]
    while stack:
        node = stack.pop()
        for i, child in enumerate(node.children):
            parent[id(child)] = node
            child_index[id(child)] = i
            stack.append(child)
    return parent, child_index


def _leaves_in_order(root):
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf():
            out.append(node)
        else:
            stack.extend(reversed(node.children))
    return out


def _ancestry(node, parent):
    # node first, root last
    chain = [node]
    while id(chain[-1]) in parent:
        chain.append(parent[id(chain[-1])])
    return chain


def oracle_enumerate(root, max_path_nodes, max_path_width):
    parent, child_index = _parent_maps(root)
    leaves = _leaves_in_order(root)
    out = []
    for i, a in enumerate(leaves):
        up_a = _ancestry(a, parent)
        pos_in_a = {id(n): pos for pos, n in enumerate(up_a)}
        for b in leaves[i + 1:]:
            up_b = _ancestry(b, parent)
            # lowest common ancestor: first of b's ancestors that is also a's
            lca_pos_b = next(p for p, n in enumerate(up_b) if id(n) in pos_in_a)
            lca = up_b[lca_pos_b]
            lca_pos_a = pos_in_a[id(lca)]
            n_nodes = lca_pos_a + lca_pos_b + 1
            if n_nodes > max_path_nodes:
                continue
            branch_a = up_a[lca_pos_a - 1]
            branch_b = up_b[lca_pos_b - 1]
            width = abs(child_index[id(branch_a)] - child_index[id(branch_b)])
            if width > max_path_width:
                continue
            path = ([n.node_type for n in up_a[:lca_pos_a + 1]]
                    + [n.node_type for n in reversed(up_b[:lca_pos_b])])
            out.append(PathContext(
                start_token="|".join(split_subtokens(a.token or "")),
                start_type=_type_text(a.resolved_type or NO_TYPE),
                path="|".join(path),
                end_token="|".join(split_subtokens(b.token or "")),
                end_type=_type_text(b.resolved_type or NO_TYPE),
            ))
    return out


def _type_text(text):
    # keep the comma-separated context grammar unambiguous
    return "".join(text.split()).replace(",", ";")


def oracle_line(label, contexts, typed):
    """The code2seq line of a label and reference contexts."""
    fields = ["|".join(split_subtokens(label))]
    for ctx in contexts:
        parts = ctx if typed else (ctx.start_token, ctx.path, ctx.end_token)
        fields.append(",".join(parts))
    return " ".join(fields) + "\n"


def oracle_picks(n, max_contexts, rng_seed, tree_key):
    """Indices, ascending, of the contexts kept of n: all of them up to
    max_contexts, else a sample seeded by the first 8 bytes, big-endian, of
    the SHA-256 of "rng_seed:tree_key" in UTF-8."""
    if n <= max_contexts:
        return list(range(n))
    digest = hashlib.sha256(f"{rng_seed}:{tree_key}".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    return sorted(rng.sample(range(n), max_contexts))
