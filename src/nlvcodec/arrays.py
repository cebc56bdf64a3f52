"""Input arrays, brute-force query oracles, and the run-compression reduction.

Indices are 1-based at the API boundary.  Index 0 and index n+1 act as
virtual sentinels for the previous-* and next-* queries respectively.
"""

import itertools
import operator
from array import array

from .errors import EmptyArrayError, ParseError, RangeError

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

QUERY_KINDS = ("psv", "plv", "nsv", "nlv")

# swaps the bytes 0 and 1: run bits to kept flags and back
_FLIP_BITS = bytes.maketrans(b"\0\1", b"\1\0")


class ValueArray:
    """An immutable array of signed 64-bit integers, indexed 1..n."""

    __slots__ = ("values", "n")

    def __init__(self, values):
        try:
            vals = tuple(map(operator.index, values))
        except TypeError as exc:
            raise ValueError("array values must be integers: %s" % exc) from None
        if not vals:
            raise EmptyArrayError("array must contain at least one element")
        _check_int64(vals)
        self.values = vals
        self.n = len(vals)

    @classmethod
    def _from_checked(cls, vals):
        """A ValueArray over a non-empty tuple of ints already checked to
        be in the signed 64-bit range, without checking them again."""
        a = object.__new__(cls)
        a.values = vals
        a.n = len(vals)
        return a

    def __getitem__(self, i):
        if not 1 <= i <= self.n:
            raise RangeError("index %d out of range 1..%d" % (i, self.n))
        return self.values[i - 1]

    def __len__(self):
        return self.n

    def __eq__(self, other):
        return isinstance(other, ValueArray) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return "ValueArray(%r)" % (list(self.values),)

    def has_consecutive_equal(self):
        """Return the first index i with A[i] == A[i+1], or None."""
        for i in range(1, self.n):
            if self.values[i - 1] == self.values[i]:
                return i
        return None


def _check_int64(vals, error=ValueError):
    """Raise ``error`` naming the first value of the non-empty tuple of
    ints ``vals`` outside the signed 64-bit range."""
    if not INT64_MIN <= min(vals) <= max(vals) <= INT64_MAX:
        bad = next(v for v in vals if not INT64_MIN <= v <= INT64_MAX)
        raise error("value %d outside signed 64-bit range" % bad)


def parse_array_text(text):
    """Parse whitespace-separated integers into a ValueArray; strict."""
    tokens = text.split()
    if not tokens:
        raise ParseError("no integers found in input")
    try:
        values = tuple(map(int, tokens))
    except ValueError:
        # name the first bad token
        for tok in tokens:
            try:
                int(tok)
            except ValueError:
                raise ParseError("not an integer: %r" % tok) from None
        raise
    # int() made each value once; one range test checks them all
    _check_int64(values, ParseError)
    return ValueArray._from_checked(values)


def format_array_text(a):
    """Inverse of parse_array_text: one integer per line."""
    return "\n".join(str(v) for v in a.values) + "\n"


def _check_index(a, i):
    if not 1 <= i <= a.n:
        raise RangeError("index %d out of range 1..%d" % (i, a.n))


def oracle_psv(a, i):
    """Largest j < i with A[j] < A[i], else 0.  Brute-force scan."""
    _check_index(a, i)
    for j in range(i - 1, 0, -1):
        if a[j] < a[i]:
            return j
    return 0


def oracle_plv(a, i):
    """Largest j < i with A[j] > A[i], else 0."""
    _check_index(a, i)
    for j in range(i - 1, 0, -1):
        if a[j] > a[i]:
            return j
    return 0


def oracle_nsv(a, i):
    """Smallest j > i with A[j] < A[i], else n+1."""
    _check_index(a, i)
    for j in range(i + 1, a.n + 1):
        if a[j] < a[i]:
            return j
    return a.n + 1


def oracle_nlv(a, i):
    """Smallest j > i with A[j] > A[i], else n+1."""
    _check_index(a, i)
    for j in range(i + 1, a.n + 1):
        if a[j] > a[i]:
            return j
    return a.n + 1


ORACLES = {
    "psv": oracle_psv,
    "plv": oracle_plv,
    "nsv": oracle_nsv,
    "nlv": oracle_nlv,
}


class RunStructure:
    """Marks runs of equal consecutive values and maps indices between the
    original array and the run-compressed one.

    c_bits[i-1] == 1 (for 1 <= i <= n-1) iff A[i] == A[i+1].  The reduced
    array keeps the last element of every run, so kept positions are the
    indices i with i == n or c_bits[i-1] == 0.  ``run_starts[r-1]`` is the
    first index of run r, the one after the end of run r-1: a list in which
    a run of one, which starts where it ends, holds the very int of
    ``kept_positions[r-1]``, and only a longer run's start is an int of its
    own.  ``rank_map`` is an ``array('I')`` whose entry i-1 is the reduced
    position of i's run (``container.MAX_N`` keeps every rank in range).
    Only decoding reads these two maps.  It builds the run starts with
    the runs (``_from_positions``) and the rank map on its first read; a
    structure checked from its bits builds each on its first read.

    The structure holds the complement of c_bits as bytes (``_keep``,
    1 at each kept position below n); the kept positions and the rank map
    come from one C-level scan of it, and ``c_bits`` is built from it on
    each read.
    """

    __slots__ = ("n", "k", "kept_positions", "_keep", "_run_starts",
                 "_rank_map", "_values")

    def __init__(self, c_bits, n, values=None):
        """``values``, if given, is the ``values`` tuple of the ValueArray
        whose runs these are, so ``reduced_array`` does not check them
        again."""
        # bytes() takes ints and bools alike and rejects any outside 0..255
        c_bits = bytes(c_bits)
        if n < 1:
            raise EmptyArrayError("run structure requires n >= 1")
        if len(c_bits) != n - 1:
            raise ValueError("c_bits must have length n-1")
        if c_bits.translate(None, b"\0\1"):
            raise ValueError("c_bits must be binary")
        self._set_runs(c_bits.translate(_FLIP_BITS), n, values)

    @classmethod
    def _from_positions(cls, positions, n):
        """The runs of an n-element array from the 0-based positions p of
        its equal pairs A[p+1] == A[p+2]: a list of distinct ints in
        0..n-2 in increasing order, as a decoder's unrank makes them, so
        nothing is checked."""
        keep = bytearray(b"\1") * (n - 1)
        for p in positions:
            keep[p] = 0
        rs = cls.__new__(cls)
        rs._set_runs(keep, n, None)
        rs._set_run_starts(positions)
        return rs

    def _set_run_starts(self, positions):
        """Build ``run_starts`` from the list of equal pairs, in
        increasing order."""
        starts = list(self.kept_positions)
        # p + 1 starts a run longer than one when p is 0 or p - 1 is kept;
        # the j-th pair has p - j kept positions below it, so that run is
        # the one of rank p - j from 0
        for j, p in itertools.compress(enumerate(positions),
                                       map((b"\1" + self._keep).__getitem__, positions)):
            starts[p - j] = p + 1
        self._run_starts = starts

    def _set_runs(self, keep, n, values):
        self.n = n
        self.k = keep.count(0)
        self.kept_positions = (*itertools.compress(range(1, n), keep), n)
        self._keep = keep
        self._run_starts = None
        self._rank_map = None
        self._values = values

    @property
    def c_bits(self):
        """The run bits as a tuple of 0 and 1, built on each read."""
        return tuple(self._keep.translate(_FLIP_BITS))

    @property
    def run_starts(self):
        if self._run_starts is None:
            self._set_run_starts(list(itertools.compress(
                range(self.n - 1), self._keep.translate(_FLIP_BITS))))
        return self._run_starts

    @property
    def rank_map(self):
        # the reduced position of i is one more than the count of kept
        # positions below i; an unsigned typecode, since 'I' converts each
        # int in half the time 'i' takes
        if self._rank_map is None:
            self._rank_map = array("I", itertools.accumulate(self._keep, initial=1))
        return self._rank_map

    def reduced_array(self):
        """The array A' of run-last elements (requires source values)."""
        if self._values is None:
            raise ValueError("run structure was built without values")
        return ValueArray._from_checked(
            tuple(itertools.compress(self._values, self._keep + b"\1")))


def compute_runs(a):
    """Build the RunStructure of a ValueArray in one C-level scan."""
    v = a.values
    return RunStructure(map(operator.eq, v, v[1:]), a.n, values=v)


def map_query_index(rs, table):
    """Lift a reduced-position table to original indices: i reads its run's entry."""
    return [table[0], *map(table.__getitem__, rs.rank_map)]


def map_answer_to_original(rs, answers, kind):
    """Translate a table of reduced-array answers to original coordinates.

    PSV/PLV answers are run ends and map straight to the kept position.
    NSV/NLV answers map to the first element of the answering run.
    """
    if kind not in QUERY_KINDS:
        raise ValueError("unknown query kind %r" % (kind,))
    targets = rs.kept_positions if kind in ("psv", "plv") else rs.run_starts
    # entry 0 is unused; the sentinels 0 and n-k+1 map to 0 and n+1
    lookup = (0, *targets, rs.n + 1)
    return [None, *map(lookup.__getitem__, answers[1:])]


def lift_answers(rs, reduced):
    """The four answer tables on original indices, from the reduced
    array's: ``reduced`` maps each kind to its table and is emptied as
    the tables are lifted.

    Each table equals map_query_index(rs, map_answer_to_original(rs,
    table, kind)).  First each reduced table is replaced in ``reduced``
    by its translation to original coordinates, n' lookups through
    ``kept_positions`` or ``run_starts``, so the tables hold the run
    maps' ints and the reduced answers' ints are freed.  Only then does
    each grow to n entries, in one C-level pass over ``rank_map``.
    """
    for kinds, targets in ((("psv", "plv"), rs.kept_positions),
                           (("nsv", "nlv"), rs.run_starts)):
        # the sentinels 0 and n-k+1 map to 0 and n+1; a list, since a
        # list's bound __getitem__ is faster to call than a tuple's
        lookup = [0, *targets, rs.n + 1]
        for kind in kinds:
            reduced[kind] = [None, *map(lookup.__getitem__,
                                        itertools.islice(reduced[kind], 1, None))]
    rank_map = rs.rank_map
    return {kind: [None, *map(reduced.pop(kind).__getitem__, rank_map)]
            for kind in QUERY_KINDS}
