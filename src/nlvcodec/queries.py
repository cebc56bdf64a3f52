"""Answering PSV/NSV from the colored min heap and PLV/NLV from the
colored max heap, without the source array.

Every query is one sign test and one table lookup.  Each answer table
has n + 1 entries (entry 0 unused), so its own length bounds the index
from above: a query tests only ``i > 0`` and looks the answer up, and
every miss (an index outside 1..n, a bad kind, an index that is not an
int) falls to one slow path that raises the documented error.

Previous-value answers are parents.  Next-value answers come from the
two tables that ``colored.decode_tables`` builds together, in one loop
over the nodes, from the decoded siblings and the blue nodes the shape
loop lists (see ``trees._next_value_table``), so no query walks
siblings or ancestors.

The contract, the same on both paths, in this order:

1. an unknown kind raises ValueError;
2. NSV/NLV on a joint container raises RangeError;
3. an index that is not an int (``operator.index`` fails on it) raises
   TypeError, whatever its value; True and False are ints;
4. an int outside 1..n raises RangeError("index %d out of range 1..%d").

``QueryStructure`` holds one answer table per kind, for all three
schemes, as ``container.decode`` returns it.  The ``*_from_tree``
functions answer from the trees ``colored.decode_colored`` returns,
which hold the same tables; the trees ``colorize`` makes hold sibling
codes and no next-value table.  They take no kind, so only steps 3 and
4 apply to them.
"""

from operator import index

from .arrays import QUERY_KINDS
from .errors import RangeError


def _index_error(i, n):
    """The error of an index that no table answered: TypeError from
    ``operator.index`` for one that is not an int, else RangeError."""
    return RangeError("index %d out of range 1..%d" % (index(i), n))


# Each query below tests i > 0 and indexes its n + 1-entry table: a
# float or a str fails the test or the lookup with TypeError, an int
# above n or beyond a machine word with IndexError, and i <= 0 (nan
# too) never reaches the lookup, so no negative index reads from the
# table's end.


def psv_from_tree(cmin, i):
    """PSV(i) = parent of i in the min heap."""
    try:
        if i > 0:
            return cmin.parent[i]
    except (TypeError, IndexError):
        pass
    raise _index_error(i, cmin.n)


def plv_from_tree(cmax, i):
    """PLV(i) = parent of i in the max heap."""
    try:
        if i > 0:
            return cmax.parent[i]
    except (TypeError, IndexError):
        pass
    raise _index_error(i, cmax.n)


def nsv_from_tree(cmin, i):
    """NSV(i) from the colored min heap alone."""
    try:
        if i > 0:
            return cmin.next_value[i]
    except (TypeError, IndexError):
        pass
    raise _index_error(i, cmin.n)


def nlv_from_tree(cmax, i):
    """NLV(i) from the colored max heap alone."""
    try:
        if i > 0:
            return cmax.next_value[i]
    except (TypeError, IndexError):
        pass
    raise _index_error(i, cmax.n)


TREE_QUERIES = {
    "psv": psv_from_tree,
    "plv": plv_from_tree,
    "nsv": nsv_from_tree,
    "nlv": nlv_from_tree,
}


class QueryStructure:
    """Answers the four queries on original indices, without the array.

    ``tables[kind][i]`` answers kind at i.  The constructor refuses,
    with ValueError, a table of an unknown kind or of other than n + 1
    entries (entry 0 unused), since a table's length is the query's only
    upper bound on i.  A joint container decodes to psv/plv tables only.
    A query tests ``i > 0`` and looks the answer up; a bad query raises,
    in this order: ValueError for an unknown kind, RangeError for
    nsv/nlv on a joint container, TypeError for an index that is not an
    int, RangeError for an int outside 1..n.
    """

    __slots__ = ("n", "tables")

    def __init__(self, n, tables):
        for kind, table in tables.items():
            if kind not in QUERY_KINDS:
                raise ValueError("unknown query kind %r" % (kind,))
            if len(table) != n + 1:
                raise ValueError("%s table has %d entries, not n + 1 = %d"
                                 % (kind, len(table), n + 1))
        self.n = n
        self.tables = tables

    def query(self, kind, i):
        # one sign test and one lookup on the answering path (KeyError:
        # a kind with no table; TypeError: an unhashable kind, or an
        # index that is not an int; IndexError: an int above n); the
        # errors, in their order, only once that path fails
        try:
            if i > 0:
                return self.tables[kind][i]
        except (KeyError, TypeError, IndexError):
            pass
        # a tuple compares any kind, unhashable too, by equality
        if kind not in QUERY_KINDS:
            raise ValueError("unknown query kind %r" % (kind,))
        if kind not in self.tables:
            raise RangeError("joint scheme answers psv/plv only")
        raise _index_error(i, self.n)

    def psv(self, i):
        return self.query("psv", i)

    def plv(self, i):
        return self.query("plv", i)

    def nsv(self, i):
        return self.query("nsv", i)

    def nlv(self, i):
        return self.query("nlv", i)
