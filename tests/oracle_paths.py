"""Independent reference for path-context mining, used only by tests.

Derives leaf-to-leaf paths from parent maps and explicit ancestor walks.
This takes a different route than the production miner (which pairs each
leaf with the leaves under its ancestors' later children), so agreement
between the two is meaningful evidence.
"""

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
                start_token=tuple(split_subtokens(a.token or "")),
                start_type=a.resolved_type or NO_TYPE,
                path=tuple(path),
                end_token=tuple(split_subtokens(b.token or "")),
                end_type=b.resolved_type or NO_TYPE,
            ))
    return out
