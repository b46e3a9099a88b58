"""Reference JSONL tree formatter, used only by tests.

This is the earlier form of `storage.format_jsonl_tree`: one `dict` per node,
numbered in preorder, handed to `json.dumps`. The production formatter
writes each node's JSON text itself, so agreement on the same trees checks
its key order, its child ids and its string escapes against the json
module's own.
"""

import json


def dumps_jsonl_tree(sample):
    objects = []
    # (node, the id list of its parent's children); children are pushed in
    # reverse so that they are numbered, and listed, in preorder
    stack = [(sample.tree, None)]
    while stack:
        node, sibling_ids = stack.pop()
        if sibling_ids is not None:
            sibling_ids.append(len(objects))
        obj = {"type": node.node_type}
        if node.token is not None:
            obj["value"] = node.token
        if node.resolved_type is not None:
            obj["token_type"] = node.resolved_type
        if node.children:
            child_ids = []
            obj["children"] = child_ids
            stack.extend((child, child_ids) for child in reversed(node.children))
        objects.append(obj)
    objects[0]["label"] = sample.label
    return json.dumps(objects, separators=(",", ":")) + "\n"
