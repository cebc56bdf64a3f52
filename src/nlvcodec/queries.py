"""Answering PSV/NSV from the colored min heap and PLV/NLV from the
colored max heap, without the source array.

Previous-value queries are parent lookups.  Next-value queries walk right
along equal-valued (blue) siblings until a red node, then climb to the
nearest ancestor that still has a right sibling.

``QueryStructure`` answers all four queries for any of the three schemes.
"""

from .arrays import map_answer_to_original, map_query_index
from .errors import RangeError
from .trees import node_index_check


def psv_from_tree(cmin, i):
    """PSV(i) = parent of i in the min heap."""
    node_index_check(cmin.tree, i)
    return cmin.tree.parent[i]


def plv_from_tree(cmax, i):
    """PLV(i) = parent of i in the max heap."""
    node_index_check(cmax.tree, i)
    return cmax.tree.parent[i]


def _next_value_walk(ct, i):
    tree = ct.tree
    node_index_check(tree, i)
    j = i
    while True:
        s = tree.right_sibling(j)
        if s == 0:
            break
        if ct.is_red[j]:
            return s
        j = s
    # climb: any right sibling of a strict ancestor (root excluded) works,
    # since ancestor values are strictly closer to the extreme
    j = tree.parent[j]
    while j != 0:
        s = tree.right_sibling(j)
        if s != 0:
            return s
        j = tree.parent[j]
    return tree.n + 1


def nsv_from_tree(cmin, i):
    """NSV(i) from the colored min heap alone."""
    return _next_value_walk(cmin, i)


def nlv_from_tree(cmax, i):
    """NLV(i) from the colored max heap alone."""
    return _next_value_walk(cmax, i)


TREE_QUERIES = {
    "psv": psv_from_tree,
    "plv": plv_from_tree,
    "nsv": nsv_from_tree,
    "nlv": nlv_from_tree,
}


class QueryStructure:
    """Answers the four queries on original indices, without the array.

    ``cmin``/``cmax`` are the min and max heaps.  A joint container decodes
    to heaps without colors (``is_red`` is None), which answer psv/plv only.
    ``runs`` is the general scheme's run structure and None otherwise.
    """

    __slots__ = ("cmin", "cmax", "runs")

    def __init__(self, cmin, cmax, runs=None):
        self.cmin = cmin
        self.cmax = cmax
        self.runs = runs

    def query(self, kind, i):
        tree = self.cmin if kind in ("psv", "nsv") else self.cmax
        runs = self.runs
        if runs is None:
            if tree.is_red is None and kind in ("nsv", "nlv"):
                raise RangeError("joint scheme answers psv/plv only")
            return TREE_QUERIES[kind](tree, i)
        jp = TREE_QUERIES[kind](tree, map_query_index(runs, i))
        return map_answer_to_original(runs, jp, kind)

    def psv(self, i):
        return self.query("psv", i)

    def plv(self, i):
        return self.query("plv", i)

    def nsv(self, i):
        return self.query("nsv", i)

    def nlv(self, i):
        return self.query("nlv", i)
