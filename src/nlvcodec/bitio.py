"""Bit-exact primitives shared by the codecs.

Covers MSB-first bit strings, unary degree codes, fixed-block ternary
packing, and combinadic subset ranking over exact big integers.

A bit segment is one immutable ``'0'/'1'`` str: encoders build it by
joining string chunks, and bytes come from one base-2 ``int``
conversion, which Python's int/str digit limit does not apply to.
"""

import itertools
from math import comb

from .errors import CorruptionError

# 3^41 < 2^65, so 41 trits always fit a 65-bit block.
TRITS_PER_BLOCK = 41
BITS_PER_BLOCK = 65

# the five-digit base-3 str of every value below 3^5
_FIVE_TRITS = ["".join(d) for d in itertools.product("012", repeat=5)]


class BitStream:
    """An immutable MSB-first ``'0'/'1'`` str (``text``) with a read cursor.

    The cursor is the only state; ``reset`` rewinds it for a new reader.
    Unary degree codes are still read one ``read_bit`` at a time, so the
    decoders stay one loop over nodes and traced runs can count bit reads.
    """

    __slots__ = ("text", "_pos")

    def __init__(self, text=""):
        if not isinstance(text, str) or text.strip("01"):
            raise ValueError("bits must be a str of '0' and '1'")
        self.text = text
        self._pos = 0

    def __len__(self):
        return len(self.text)

    def __eq__(self, other):
        return isinstance(other, BitStream) and self.text == other.text

    def __repr__(self):
        return "BitStream(%r)" % self.text

    def at_end(self):
        return self._pos == len(self.text)

    def reset(self):
        self._pos = 0

    def read_bit(self):
        """The next bit as the character '0' or '1'."""
        if self._pos >= len(self.text):
            raise CorruptionError("bitstream truncated: read past end")
        b = self.text[self._pos]
        self._pos += 1
        return b

    def read_uint(self, width):
        end = self._pos + width
        if end > len(self.text):
            raise CorruptionError("bitstream truncated: read past end")
        value = int("0" + self.text[self._pos:end], 2)
        self._pos = end
        return value

    def to_bytes(self):
        """Pack into bytes, MSB first, final byte zero-padded."""
        pad = -len(self.text) % 8
        return int("0" + self.text + "0" * pad, 2).to_bytes(
            (len(self.text) + pad) // 8, "big")

    @classmethod
    def from_bytes(cls, data, nbits):
        """The first ``nbits`` bits of ``data``, MSB first."""
        if nbits > 8 * len(data):
            raise CorruptionError("declared bit length exceeds payload")
        text = format(int.from_bytes(data, "big"), "b").zfill(8 * len(data))
        return cls(text[:nbits])


def uint_bits(value, width):
    """``value`` as ``width`` bits, most significant bit first."""
    if value < 0 or value >> width:
        raise ValueError("value %d does not fit in %d bits" % (value, width))
    return format(value, "b").zfill(width) if width else ""


def write_degree(d):
    """The unary degree code of d: d-1 ones followed by a zero."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return "1" * (d - 1) + "0"


def read_degree(s):
    """Inverse of write_degree, read from a BitStream."""
    d = 1
    while s.read_bit() == "1":
        d += 1
    return d


def trit_pack_bits(m):
    """Exact bit cost of packing m trits with the fixed-block scheme."""
    full, rest = divmod(m, TRITS_PER_BLOCK)
    return full * BITS_PER_BLOCK + (3 ** rest - 1).bit_length()


def _block_width(count):
    """Bits of a block of ``count`` trits."""
    if count == TRITS_PER_BLOCK:
        return BITS_PER_BLOCK
    return (3 ** count - 1).bit_length()


def pack_trits(trits):
    """Pack a str of trit digits '0'/'1'/'2' into a BitStream, 41 trits per
    65-bit block.

    A final partial block of t trits uses bitlen(3^t - 1) bits.
    """
    if not isinstance(trits, str) or trits.strip("012"):
        raise ValueError("trits must be a str of '0', '1' and '2'")
    chunks = []
    for start in range(0, len(trits), TRITS_PER_BLOCK):
        block = trits[start:start + TRITS_PER_BLOCK]
        chunks.append(uint_bits(int(block, 3), _block_width(len(block))))
    return BitStream("".join(chunks))


def unpack_trits(s, m):
    """Read m trits previously written by pack_trits, as a str of digits."""
    out = []
    remaining = m
    while remaining > 0:
        blen = min(remaining, TRITS_PER_BLOCK)
        value = s.read_uint(_block_width(blen))
        if value >= 3 ** blen:
            raise CorruptionError("trit block value %d out of range" % value)
        # five digits per divmod, least significant group first; the
        # digits above blen are zeros, since value < 3^blen
        groups = []
        for _ in range((blen + 4) // 5):
            value, low = divmod(value, 243)
            groups.append(_FIVE_TRITS[low])
        out.append("".join(reversed(groups))[-blen:])
        remaining -= blen
    return "".join(out)


def subset_rank(positions, length):
    """Combinadic rank of a sorted subset of {0..length-1}.

    Returns (k, rank) with 0 <= rank < comb(length, k); the j-th smallest
    position p (1-based j) contributes comb(p, j).
    """
    positions = list(positions)
    k = len(positions)
    if k > length:
        raise ValueError("more positions than slots")
    prev = -1
    for p in positions:
        if p <= prev or p >= length:
            raise ValueError("positions must be strictly increasing and < length")
        prev = p
    if k == 0:
        return 0, 0
    # Single downward scan with incremental binomials; avoids k large
    # comb() calls at big k.
    rank = 0
    c = length - 1
    j = k
    b = comb(c, j)
    idx = k - 1
    while j > 0:
        if positions[idx] == c:
            rank += b
            b = b * j // c if c else 0
            j -= 1
            idx -= 1
        else:
            b = b * (c - j) // c
        c -= 1
    return k, rank


def subset_unrank(k, rank, length):
    """Inverse of subset_rank."""
    if k < 0 or k > length:
        raise CorruptionError("invalid subset size %d for length %d" % (k, length))
    total = comb(length, k)
    if rank < 0 or rank >= total:
        raise CorruptionError("subset rank %d out of range" % rank)
    if k == 0:
        return []
    positions = []
    c = length - 1
    j = k
    b = total * (length - k) // length  # comb(length - 1, k)
    while j > 0:
        if b <= rank:
            rank -= b
            positions.append(c)
            b = b * j // c if c else 0
            j -= 1
        else:
            b = b * (c - j) // c
        c -= 1
    positions.reverse()
    return positions


def subset_rank_width(length, k):
    """Bits needed to store any rank of a k-subset: ceil(log2 comb(L,k))."""
    return (comb(length, k) - 1).bit_length()
