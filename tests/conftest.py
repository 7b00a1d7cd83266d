"""Shared test helpers."""

import functools

from hypothesis import strategies as st


def edit_oracle(ref, hyp):
    """Brute-force recursive-memo alignment, independent of the package DP.

    Same left-to-right tie preference: substitution, then deletion, then
    insertion. Returns (cost, sub, dele, ins).
    """
    ref = tuple(ref)
    hyp = tuple(hyp)

    @functools.lru_cache(maxsize=None)
    def go(i, j):
        if i == len(ref) and j == len(hyp):
            return (0, 0, 0, 0)
        options = []
        if i < len(ref) and j < len(hyp):
            c, s, d, n = go(i + 1, j + 1)
            if ref[i] == hyp[j]:
                options.append((c, 0, (c, s, d, n)))
            else:
                options.append((c + 1, 0, (c + 1, s + 1, d, n)))
        if i < len(ref):
            c, s, d, n = go(i + 1, j)
            options.append((c + 1, 1, (c + 1, s, d + 1, n)))
        if j < len(hyp):
            c, s, d, n = go(i, j + 1)
            options.append((c + 1, 2, (c + 1, s, d, n + 1)))
        options.sort(key=lambda o: (o[0], o[1]))
        return options[0][2]

    return go(0, 0)


def json_values():
    """JSON value trees, NaN, ±Infinity and unbounded integers included."""
    scalars = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True, allow_infinity=True)
               | st.text(max_size=8))
    return st.recursive(scalars, lambda kids: st.lists(kids, max_size=4)
                        | st.dictionaries(st.text(max_size=8), kids, max_size=4), max_leaves=12)


def graph_node_count(root):
    """Kernel nodes in the graph that ends at `root` (leaves not counted)."""
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node.op != "leaf"
            stack.extend(node.parents)
    return count
