"""Answering PSV/NSV from the colored min heap and PLV/NLV from the
colored max heap, without the source array.

Every query is a range check plus one table lookup.  Previous-value
answers are parents.  Next-value answers come from the two tables that
``colored.decode_tables`` builds together, in one loop over the nodes,
from the decoded siblings and the blue nodes the shape loop lists (see
``trees._next_value_table``), so no query walks siblings or ancestors.

``QueryStructure`` holds one answer table per kind, for all three
schemes, as ``container.decode`` returns it.  The ``*_from_tree``
functions answer from the trees ``colored.decode_colored`` returns,
which hold the same tables; the trees ``colorize`` makes hold sibling
codes and no next-value table.
"""

from .arrays import QUERY_KINDS
from .errors import RangeError


def _out_of_range(i, n):
    return RangeError("index %d out of range 1..%d" % (i, n))


def psv_from_tree(cmin, i):
    """PSV(i) = parent of i in the min heap."""
    n = cmin.n
    if not 1 <= i <= n:
        raise _out_of_range(i, n)
    return cmin.parent[i]


def plv_from_tree(cmax, i):
    """PLV(i) = parent of i in the max heap."""
    n = cmax.n
    if not 1 <= i <= n:
        raise _out_of_range(i, n)
    return cmax.parent[i]


def nsv_from_tree(cmin, i):
    """NSV(i) from the colored min heap alone."""
    n = cmin.n
    if not 1 <= i <= n:
        raise _out_of_range(i, n)
    return cmin.next_value[i]


def nlv_from_tree(cmax, i):
    """NLV(i) from the colored max heap alone."""
    n = cmax.n
    if not 1 <= i <= n:
        raise _out_of_range(i, n)
    return cmax.next_value[i]


TREE_QUERIES = {
    "psv": psv_from_tree,
    "plv": plv_from_tree,
    "nsv": nsv_from_tree,
    "nlv": nlv_from_tree,
}


class QueryStructure:
    """Answers the four queries on original indices, without the array.

    ``tables[kind][i]`` answers kind at i (entry 0 unused).  A joint
    container decodes to psv/plv tables only.  A bad query raises, in
    this order: ValueError for an unknown kind, RangeError for nsv/nlv on
    a joint container, RangeError for an index outside 1..n.
    """

    __slots__ = ("n", "tables")

    def __init__(self, n, tables):
        self.n = n
        self.tables = tables

    def query(self, kind, i):
        # the range check and one lookup on the answering path; the
        # errors, in their order, only once that path fails (TypeError:
        # an unhashable kind, or an index that is not an int)
        if 0 < i <= self.n:
            try:
                return self.tables[kind][i]
            except (KeyError, TypeError):
                pass
        # a tuple compares any kind, unhashable too, by equality
        if kind not in QUERY_KINDS:
            raise ValueError("unknown query kind %r" % (kind,))
        if kind not in self.tables:
            raise RangeError("joint scheme answers psv/plv only")
        if 0 < i <= self.n:
            return self.tables[kind][i]  # a non-int index raises TypeError
        raise _out_of_range(i, self.n)

    def psv(self, i):
        return self.query("psv", i)

    def plv(self, i):
        return self.query("plv", i)

    def nsv(self, i):
        return self.query("nsv", i)

    def nlv(self, i):
        return self.query("nlv", i)
