"""Encoding for arbitrary arrays: a run bitmap stored by combinadic rank
plus the colored encoding of the run-compressed array.

Payload approaches log2(13) * n bits.  Decoding unranks the run bitmap
first, into kept flags (``decode_runs``), and labels node r of the
reduced heaps with the end of run r.  The colored decode
(``colored.decode_tables``) then writes the four answer tables under
those labels, as (n+1)-entry lists indexed by original position: the
parents are the PSV and PLV tables, and the siblings turn into the NSV
and NLV tables in place.  ``arrays.fill_runs`` completes them: each
next-value answer that names a run longer than one moves to the run's
start, and each index inside a run copies its end's answers.  No
reduced table or run map is built, and the tables share the labels'
ints.
"""

import math

from .arrays import (compute_runs, end_labels, equal_pairs, fill_runs,
                     kept_flags, reduced_array)
from .bitio import (Encoding, check_bits, comb, subset_rank, subset_rank_width,
                    subset_unrank, uint_bits)
from .colored import decode_tables, emit_colored
from .errors import CorruptionError, allocation_error
from .queries import QueryStructure
from .trees import scan_heaps

LOG2_13 = math.log2(13)


class GeneralEncoding(Encoding):
    """Run bitmap rank, as a bit str, plus the colored encoding of the
    reduced array."""

    scheme = "general"
    __slots__ = ("n", "k", "c_rank_bits", "colored")

    def __init__(self, n, k, c_rank_bits, colored):
        check_bits(c_rank_bits)
        if not 0 <= k <= max(n - 1, 0):
            raise CorruptionError("run count k out of range")
        if len(c_rank_bits) != subset_rank_width(n - 1, k):
            raise CorruptionError("c rank segment has wrong width")
        if colored.n != n - k:
            raise CorruptionError("colored part must cover n-k elements")
        self._set(n=n, k=k, c_rank_bits=c_rank_bits, colored=colored)

    def payload_bits(self):
        return len(self.c_rank_bits) + self.colored.payload_bits()

    @staticmethod
    def payload_bound(n):
        """The size contract, log2(13) n + 2 ceil(log2 n) + 96 bits.

        The 41-trit packing exceeds it for n above about 3.8e5, at k
        near n/13 and g = 0: this is the bound the coder must meet, not
        one it meets at every n yet.
        """
        return LOG2_13 * n + 2 * math.ceil(math.log2(max(n, 2))) + 96


def encode_general(a):
    """Encode any array: the rank of its equal pairs first, then the
    reduced array's colored pair, from one stack scan of both heaps and
    no tree."""
    keep = compute_runs(a)
    k, rank = subset_rank(equal_pairs(keep), a.n - 1)
    c_rank_bits = uint_bits(rank, subset_rank_width(a.n - 1, k))
    reduced = reduced_array(a, keep)
    colored = emit_colored(reduced.n, *scan_heaps(reduced))
    return GeneralEncoding(a.n, k, c_rank_bits, colored)


def decode_runs(enc):
    """The kept flags of a general encoding (``arrays.kept_flags``),
    unranked from its rank bits.

    Raises AllocationError when they do not fit in memory.
    """
    # the constructor checked the segment against the exact rank width;
    # a width of 0 leaves it empty
    try:
        return kept_flags(subset_unrank(enc.k, int(enc.c_rank_bits or "0", 2),
                                        enc.n - 1), enc.n)
    except CorruptionError as exc:
        raise CorruptionError(str(exc), segment="c_rank") from None
    except MemoryError:
        raise allocation_error(enc.n) from None


def decode_general(enc):
    """The four answer tables on original indices, decoded straight
    into them (see the module docstring).

    The run bitmap is unranked before the colored part is read, so a
    corrupt colored part costs the O(n) unrank first.  Raises
    AllocationError when the tables do not fit in memory.
    """
    n = enc.n
    keep = decode_runs(enc)
    try:
        labels = end_labels(keep)
        tables = decode_tables(enc.colored, labels)
        fill_runs(keep, tables, labels)
    except MemoryError:
        raise allocation_error(n) from None
    return QueryStructure(n, tables)


def check_subset_coding_inequality(c, n, k):
    """Verify c(n-k) + log2 C(n,k) <= log2(2^c + 1) * n within 1e-6 n,
    float rounding's share."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError("need n >= 1 and 0 <= k <= n")
    if c <= 0:
        raise ValueError("c must be positive")
    lhs = c * (n - k) + math.log2(comb(n, k))
    rhs = math.log2(2 ** c + 1) * n
    return lhs <= rhs + 1e-6 * n
