"""Encoding for arbitrary arrays: a run bitmap stored by combinadic rank
plus the colored encoding of the run-compressed array.

Payload approaches log2(13) * n bits.  Decoding builds the runs and
their starts once, from the unranked positions, and lifts the reduced
array's answer tables to original indices (``arrays.lift_answers``):
each is first translated in n' lookups, so the lifted tables hold the
run maps' ints and the reduced answers' ints are freed, and only then
grows to n entries in one C-level pass over the ``array('I')`` rank map.
"""

import itertools
import math

from .arrays import RunStructure, compute_runs, lift_answers
from .bitio import (Encoding, check_bits, comb, subset_rank, subset_rank_width,
                    subset_unrank, uint_bits)
from .colored import decode_colored, emit_colored
from .errors import AllocationError, CorruptionError
from .queries import QueryStructure, tables_of
from .trees import scan_heaps

LOG2_13 = math.log2(13)


class GeneralEncoding(Encoding):
    """Run bitmap rank, as a bit str, plus the colored encoding of the
    reduced array."""

    scheme = "general"
    __slots__ = ("n", "k", "c_rank_bits", "colored")

    def __init__(self, n, k, c_rank_bits, colored, rank_width=None):
        """``rank_width`` is subset_rank_width(n-1, k) when the caller has
        it already, so an encode or a load computes it once."""
        check_bits(c_rank_bits)
        if not 0 <= k <= max(n - 1, 0):
            raise CorruptionError("run count k out of range")
        if rank_width is None:
            rank_width = subset_rank_width(n - 1, k)
        if len(c_rank_bits) != rank_width:
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
    """Encode any array: runs first, then the reduced array's colored
    pair, from one stack scan per heap and no tree."""
    rs = compute_runs(a)
    k, rank = subset_rank(itertools.compress(range(a.n - 1), rs.c_bits), a.n - 1)
    width = subset_rank_width(a.n - 1, k)
    c_rank_bits = uint_bits(rank, width)
    reduced = rs.reduced_array()
    colored = emit_colored(reduced.n, *scan_heaps(reduced))
    return GeneralEncoding(a.n, k, c_rank_bits, colored, width)


def decode_runs(enc):
    """The run structure of a general encoding, with its run starts,
    from its rank bits.

    Raises AllocationError when its maps do not fit in memory.
    """
    # the constructor checked the segment against the exact rank width;
    # a width of 0 leaves it empty
    rank = int(enc.c_rank_bits or "0", 2)
    try:
        return RunStructure._from_positions(
            subset_unrank(enc.k, rank, enc.n - 1), enc.n)
    except MemoryError:
        raise _allocation_error(enc.n) from None


def decode_general(enc):
    """Lift the reduced array's four answer tables through the runs.

    Raises AllocationError when the tables or the rank map do not fit in
    memory.
    """
    # the reduced heaps are gone before the run maps are built, which
    # keeps setup's peak memory low
    reduced = tables_of(*decode_colored(enc.colored))
    runs = decode_runs(enc)
    try:
        return QueryStructure(enc.n, lift_answers(runs, reduced))
    except MemoryError:
        raise _allocation_error(enc.n) from None


def _allocation_error(n):
    return AllocationError("cannot allocate the decode tables for n = %d" % n)


def check_subset_coding_inequality(c, n, k, tol_per_n=1e-6):
    """Verify c(n-k) + log2 C(n,k) <= log2(2^c + 1) * n within tol * n."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError("need n >= 1 and 0 <= k <= n")
    if c <= 0:
        raise ValueError("c must be positive")
    lhs = c * (n - k) + math.log2(comb(n, k))
    rhs = math.log2(2 ** c + 1) * n
    return lhs <= rhs + tol_per_n * n
