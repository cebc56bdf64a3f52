"""Input arrays, brute-force query oracles, and the run-compression reduction.

Indices are 1-based at the API boundary.  Index 0 and index n+1 act as
virtual sentinels for the previous-* and next-* queries respectively.
"""

import itertools
import operator

from .errors import EmptyArrayError, ParseError, RangeError

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

QUERY_KINDS = ("psv", "plv", "nsv", "nlv")


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
        if not INT64_MIN <= min(vals) <= max(vals) <= INT64_MAX:
            bad = next(v for v in vals if not INT64_MIN <= v <= INT64_MAX)
            raise ValueError("value %d outside signed 64-bit range" % bad)
        self.values = vals
        self.n = len(vals)

    @classmethod
    def _from_checked(cls, vals):
        """A ValueArray over a non-empty tuple of values that a ValueArray
        already checked, without checking them again."""
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


def parse_array_text(text):
    """Parse whitespace-separated integers into a ValueArray; strict."""
    tokens = text.split()
    if not tokens:
        raise ParseError("no integers found in input")
    try:
        values = list(map(int, tokens))
    except ValueError:
        # name the first bad token
        for tok in tokens:
            try:
                int(tok)
            except ValueError:
                raise ParseError("not an integer: %r" % tok) from None
        raise
    try:
        return ValueArray(values)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


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
    first index of run r, the one after the end of run r-1, and
    ``rank_map[i-1]`` the reduced position of i's run.  Only decoding reads
    these two maps, so each is built on its first read.
    """

    __slots__ = ("n", "c_bits", "k", "kept_positions", "_run_starts",
                 "_rank_map", "_values")

    def __init__(self, c_bits, n, values=None):
        """``values``, if given, is the ``values`` tuple of the ValueArray
        whose runs these are, so ``reduced_array`` does not check them
        again."""
        # bytes() takes ints and bools alike and rejects any outside 0..255
        c_bits = tuple(bytes(c_bits))
        if n < 1:
            raise EmptyArrayError("run structure requires n >= 1")
        if len(c_bits) != n - 1:
            raise ValueError("c_bits must have length n-1")
        if not set(c_bits) <= {0, 1}:
            raise ValueError("c_bits must be binary")
        self.n = n
        self.c_bits = c_bits
        self.k = sum(c_bits)
        self.kept_positions = (
            *itertools.compress(range(1, n), map(operator.not_, c_bits)), n)
        self._run_starts = None
        self._rank_map = None
        self._values = values

    @property
    def run_starts(self):
        if self._run_starts is None:
            self._run_starts = (1, *map((1).__add__, self.kept_positions[:-1]))
        return self._run_starts

    @property
    def rank_map(self):
        # one int object repeated over each run
        if self._rank_map is None:
            kept = self.kept_positions
            run_lengths = map(operator.sub, kept, (0, *kept[:-1]))
            self._rank_map = tuple(itertools.chain.from_iterable(
                map(itertools.repeat, itertools.count(1), run_lengths)))
        return self._rank_map

    def reduced_array(self):
        """The array A' of run-last elements (requires source values)."""
        if self._values is None:
            raise ValueError("run structure was built without values")
        kept = itertools.chain(map(operator.not_, self.c_bits), (True,))
        return ValueArray._from_checked(
            tuple(itertools.compress(self._values, kept)))


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
    lookup = (0,) + targets + (rs.n + 1,)
    return [None, *map(lookup.__getitem__, answers[1:])]
