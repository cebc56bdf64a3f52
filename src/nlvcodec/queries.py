"""Answering PSV/NSV from the colored min heap and PLV/NLV from the
colored max heap, without the source array.

Every query is a range check plus one table lookup.  Previous-value
answers are parents.  Next-value answers come from the table a
``ColoredTree`` builds from its colors when it is made (see
``trees._next_value_table``), so no query walks siblings or ancestors.

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


def nsv_from_tree(cmin, i):
    """NSV(i) from the colored min heap alone."""
    node_index_check(cmin.tree, i)
    return cmin.next_value[i]


def nlv_from_tree(cmax, i):
    """NLV(i) from the colored max heap alone."""
    node_index_check(cmax.tree, i)
    return cmax.next_value[i]


TREE_QUERIES = {
    "psv": psv_from_tree,
    "plv": plv_from_tree,
    "nsv": nsv_from_tree,
    "nlv": nlv_from_tree,
}


class QueryStructure:
    """Answers the four queries on original indices, without the array.

    ``cmin``/``cmax`` are the min and max heaps.  A joint container decodes
    to heaps without colors or next-value tables (``next_value`` is None),
    which answer psv/plv only.
    ``runs`` is the general scheme's run structure and None otherwise.
    """

    __slots__ = ("cmin", "cmax", "runs")

    def __init__(self, cmin, cmax, runs=None):
        self.cmin = cmin
        self.cmax = cmax
        self.runs = runs

    def query(self, kind, i):
        try:
            answer = TREE_QUERIES[kind]
        except KeyError:
            raise ValueError("unknown query kind %r" % (kind,)) from None
        tree = self.cmin if kind in ("psv", "nsv") else self.cmax
        runs = self.runs
        if runs is None:
            if tree.next_value is None and kind in ("nsv", "nlv"):
                raise RangeError("joint scheme answers psv/plv only")
            return answer(tree, i)
        return map_answer_to_original(runs, answer(tree, map_query_index(runs, i)), kind)

    def psv(self, i):
        return self.query("psv", i)

    def plv(self, i):
        return self.query("plv", i)

    def nsv(self, i):
        return self.query("nsv", i)

    def nlv(self, i):
        return self.query("nlv", i)
