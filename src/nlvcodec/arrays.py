"""Input arrays, brute-force query oracles, and the run-compression reduction.

Indices are 1-based at the API boundary.  Index 0 and index n+1 act as
virtual sentinels for the previous-* and next-* queries respectively.
"""

import itertools
import operator
import re

from .errors import EmptyArrayError, ParseError, RangeError

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

QUERY_KINDS = ("psv", "plv", "nsv", "nlv")

# what parse_array_text accepts: tokens, and the ASCII whitespace
# between them
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")
_SEPARATORS = re.compile(r"[ \t\n\r\v\f]+")

# swaps the bytes 0 and 1: run bits to kept flags and back
_FLIP_BITS = bytes.maketrans(b"\0\1", b"\1\0")

# entries per slice of the next-value move in ``fill_runs``, which keeps
# its temporary lists small
_MOVE_CHUNK = 1024


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
    """Parse integers separated by ASCII whitespace into a ValueArray.

    Strict: each token must be ASCII ``[+-]?[0-9]+``.  ``int`` also takes
    "1_000" and non-ASCII digits, and ``str.split`` splits at non-ASCII
    spaces, so only an ASCII text with no "_" (two C-level tests) is
    converted, split as bytes at ASCII whitespace alone, and one range
    test checks all its values.  Any other text goes token by token
    (``_int_of_token``), so the first bad token in the text raises
    ParseError naming it.
    """
    values = None
    if text.isascii() and "_" not in text:
        try:
            values = tuple(map(int, text.encode().split()))
        except ValueError:
            pass
        else:
            if values:
                _check_int64(values, ParseError)
    if values is None:
        values = tuple(map(_int_of_token, filter(None, _SEPARATORS.split(text))))
    if not values:
        raise ParseError("no integers found in input")
    return ValueArray._from_checked(values)


def _int_of_token(tok):
    """The value of a token, which must be ASCII ``[+-]?[0-9]+`` and in
    the signed 64-bit range, else ParseError.  It is read without its
    leading zeros, since ``int`` refuses a token of more than
    ``sys.get_int_max_str_digits()`` digits, zeros included; the digits
    left being too many is a range error, since no signed 64-bit value
    has them."""
    if not _INT_TOKEN.fullmatch(tok):
        raise ParseError("not an integer: %r" % (tok,))
    digits = tok.lstrip("+-").lstrip("0") or "0"
    try:
        value = int(tok[0] + digits if tok[0] == "-" else digits)
    except ValueError:
        raise ParseError("value of %d digits outside signed 64-bit range"
                         % len(digits)) from None
    _check_int64((value,), ParseError)
    return value


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


def compute_runs(a):
    """The kept flags of a ValueArray, in one C-level scan: n-1 bytes
    whose byte i-1 is 1 when A[i] != A[i+1], so index i ends its run and
    the reduced array keeps it, and 0 inside a run.  They are the form
    ``kept_flags`` gives the decode."""
    v = a.values
    return bytes(map(operator.ne, v, v[1:]))


def equal_pairs(keep):
    """The 0-based positions p of the equal pairs A[p+1] == A[p+2], in
    increasing order, from the kept flags: the subset the general scheme
    ranks."""
    return list(itertools.compress(range(len(keep)), keep.translate(_FLIP_BITS)))


def reduced_array(a, keep):
    """The array A' of run-last elements of ``a``, from its kept flags."""
    return ValueArray._from_checked(
        tuple(itertools.compress(a.values, keep + b"\1")))


def kept_positions(keep):
    """The run ends, increasing, as a tuple: the indices i with i == n or
    kept flag 1."""
    n = len(keep) + 1
    return (*itertools.compress(range(1, n), keep), n)


def kept_flags(positions, n):
    """The kept flags of an n-element array, from the 0-based positions
    p of its equal pairs A[p+1] == A[p+2]: a bytearray of n-1 bytes
    whose byte i-1 is 1 when index i < n ends its run, 0 when it is
    inside one."""
    keep = bytearray(b"\1") * (n - 1)
    for p in positions:
        keep[p] = 0
    return keep


def end_labels(keep):
    """The labels of a general decode's nodes (``joint.decode_heaps``),
    from its kept flags: a list of n+1 ints that is i at each kept
    position i, so node r is labelled with the end of run r, and 0 at
    every other index."""
    ends = b"\1" + keep + b"\1"
    return list(map(operator.mul, range(len(ends)), ends))


def fill_runs(keep, tables, labels):
    """Complete four answer tables written at the run ends only, in
    original coordinates, to every index; ``labels`` is the kept flags'
    ``end_labels``, which this consumes.

    An index inside a run has its end's answers, but an NSV or NLV
    answer names the start of the answering run, not its end.  One loop
    visits the indices inside runs right to left, found by a C-level
    ``compress``, with no list of runs: each copies the answers of the
    index after it, and ``labels`` at the run's end takes the leftmost,
    the run's start.  Each NSV and NLV answer then goes through
    ``labels``, one C-level ``map`` per slice.  Entry 0 is None.
    """
    n = len(keep) + 1
    psv, plv, nsv, nlv = (tables[kind] for kind in QUERY_KINDS)
    for p in itertools.compress(range(n - 1, 0, -1),
                                keep[::-1].translate(_FLIP_BITS)):
        q = p + 1
        psv[p] = psv[q]
        plv[p] = plv[q]
        nsv[p] = nsv[q]
        nlv[p] = nlv[q]
        # labels[q] is 0 inside a run and nonzero at its end, which
        # the loop only ever overwrites with nonzero starts
        if labels[q]:
            end = q
        labels[end] = p
    # "no next value", n+1, maps to itself
    labels.append(nsv[0])
    nsv[0] = nlv[0] = None
    if 0 in keep:
        move = labels.__getitem__
        for table in (nsv, nlv):
            for lo in range(1, n + 1, _MOVE_CHUNK):
                hi = lo + _MOVE_CHUNK
                table[lo:hi] = map(move, table[lo:hi])


def map_query_index(keep, table):
    """Lift a reduced-position table to original indices, given the kept
    flags: i reads its run's entry."""
    # the reduced position of i is one more than the count of run ends
    # below i
    ranks = itertools.accumulate(keep, initial=1)
    return [table[0], *map(table.__getitem__, ranks)]


def map_answer_to_original(keep, answers, kind):
    """Translate a table of reduced-array answers to original coordinates,
    given the kept flags.

    PSV/PLV answers are run ends and map straight to the kept position.
    NSV/NLV answers map to the first element of the answering run, one
    past the previous run's end.
    """
    if kind not in QUERY_KINDS:
        raise ValueError("unknown query kind %r" % (kind,))
    ends = kept_positions(keep)
    targets = (ends if kind in ("psv", "plv")
               else (1, *(end + 1 for end in ends[:-1])))
    # entry 0 is unused; the sentinels 0 and n-k+1 map to 0 and n+1
    lookup = (0, *targets, len(keep) + 2)
    return [None, *map(lookup.__getitem__, answers[1:])]
