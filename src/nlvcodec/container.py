"""Flat-file container for the three encodings, and the one place that
knows which scheme an encoding uses.

Layout: magic "NLVE", version byte, scheme byte, varint header fields,
then the payload bit segments concatenated MSB-first with the final byte
zero-padded.  Varints are canonical LEB128 (base-128 groups,
little-endian, no redundant trailing zero group) of at most 64 bits.

Arrays hold at most MAX_N elements.  A few header bytes can declare any
n, and a decode builds answer tables of n entries, so ``deserialize``
rejects a larger n before it reads further, and ``encode`` refuses to
write one.  Below MAX_N a general container of a few bytes can still
declare long runs; a decode whose n-entry tables do not fit in memory
raises AllocationError.
"""

from .bitio import BitStream, subset_rank_width, trit_pack_bits, pack_trits, unpack_trits
from .colored import ColoredEncoding, decode_colored, decode_tables, emit_colored
from .errors import CorruptionError, PreconditionError, allocation_error
from .general import GeneralEncoding, decode_general, decode_runs, encode_general
from .joint import JointEncoding, decode_heaps, decode_joint, emit_joint
from .queries import QueryStructure
from .trees import scan_heaps

MAGIC = b"NLVE"
VERSION = 1

# the largest n that encode writes and deserialize reads; every index
# fits a signed 32-bit int
MAX_N = 2 ** 31 - 1

SCHEME_JOINT = 1
SCHEME_COLORED = 2
SCHEME_GENERAL = 3

SCHEME_NAMES = {"joint": SCHEME_JOINT, "colored": SCHEME_COLORED,
                "general": SCHEME_GENERAL}
SCHEME_IDS = {v: k for k, v in SCHEME_NAMES.items()}

# a kept flag (1 at a run's end) to its run bit, as a digit
_RUN_BIT_OF_FLAG = bytes.maketrans(b"\0\1", b"10")


def encode(a, scheme):
    """Encode a ValueArray under the named scheme.

    No tree is built: one stack scan of both heaps (``trees.scan_heaps``)
    gives each node's degree and sibling code, and a writer with no loop
    over the indices turns them into the payload, ``joint.emit_joint``
    for joint and ``colored.emit_colored`` for colored and for the
    run-reduced array of general (``general.encode_general``).  ``joint`` and ``colored``
    need an array with no consecutive equal elements and raise
    PreconditionError at the first i with A[i] == A[i+1] otherwise.
    Every scheme raises PreconditionError for n > MAX_N.
    """
    if scheme not in SCHEME_NAMES:
        raise ValueError("unknown scheme %r" % (scheme,))
    if a.n > MAX_N:
        raise PreconditionError("n = %d exceeds MAX_N = %d" % (a.n, MAX_N))
    if scheme == "general":
        return encode_general(a)
    deg_min, code_min, deg_max, code_max = scan_heaps(a)
    if scheme == "joint":
        return emit_joint(a.n, deg_min, deg_max)
    return emit_colored(a.n, deg_min, code_min, deg_max, code_max)


def decode(enc):
    """The query structure of any encoding, with ``.query(kind, i)``.
    Raises AllocationError when its n-entry tables do not fit in
    memory."""
    try:
        if isinstance(enc, GeneralEncoding):
            return decode_general(enc)
        if isinstance(enc, JointEncoding):
            (parent_min, _, _), (parent_max, _, _) = decode_heaps(
                enc.n, enc.t_min, enc.t_max, u=enc.u)
            return QueryStructure(enc.n, {"psv": parent_min, "plv": parent_max})
        return QueryStructure(enc.n, decode_tables(enc))
    except MemoryError:
        raise allocation_error(enc.n) from None


def decode_shapes(enc):
    """The decoded shapes behind ``decode``: the run bits as a str of '0'
    and '1' (a general encoding's, else None) and both heaps, min first,
    as ``OrdinalTree``s for joint and ``ColoredTree``s otherwise.
    Raises AllocationError when they do not fit in memory."""
    try:
        if isinstance(enc, GeneralEncoding):
            c_bits = decode_runs(enc).translate(_RUN_BIT_OF_FLAG).decode()
            return c_bits, decode_colored(enc.colored)
        if isinstance(enc, JointEncoding):
            return None, decode_joint(enc)
        return None, decode_colored(enc)
    except MemoryError:
        raise allocation_error(enc.n) from None


def write_varint(buf, value):
    if not 0 <= value < 1 << 64:
        raise ValueError("varint must be in 0..2^64-1")
    while True:
        group = value & 0x7F
        value >>= 7
        if value:
            buf.append(group | 0x80)
        else:
            buf.append(group)
            return


def read_varint(data, pos):
    """The varint that starts at byte ``pos`` of ``data``, and the byte
    after it.  Its errors name the header at the varint's first bit."""
    start = 8 * pos
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise _header_error("truncated varint", start)
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if byte == 0 and shift:
                raise _header_error("non-canonical varint", start)
            if value >> 64:
                raise _header_error("varint wider than 64 bits", start)
            return value, pos
        shift += 7
        if shift > 63:
            raise _header_error("varint too long", start)


def _header_error(message, offset=None):
    """A CorruptionError in the header, at the bit where the field at
    fault starts, or at None when no single field is."""
    return CorruptionError(message, segment="header", offset=offset)


def _colored_segments(c):
    return [c.u_gb, c.v_bad, pack_trits(c.v_neutral), c.t_min, c.t_max]


def _segments_of(enc):
    """Payload segments in container order.  A general encoding's
    subset-rank bits come first."""
    if isinstance(enc, JointEncoding):
        return [enc.u, enc.t_min, enc.t_max]
    if isinstance(enc, ColoredEncoding):
        return _colored_segments(enc)
    if isinstance(enc, GeneralEncoding):
        return [enc.c_rank_bits] + _colored_segments(enc.colored)
    raise TypeError("unsupported encoding %r" % (type(enc),))


def serialize(enc):
    """Encode any of the three payload types into container bytes."""
    segments = _segments_of(enc)
    scheme = SCHEME_NAMES[enc.scheme]
    buf = bytearray(MAGIC)
    buf.append(VERSION)
    buf.append(scheme)
    write_varint(buf, enc.n)
    listed = segments
    if scheme == SCHEME_GENERAL:
        write_varint(buf, enc.k)
        # the subset-rank segment width is derivable from n and k, so it
        # leads the payload without its own length field
        listed = segments[1:]
    for seg in listed:
        write_varint(buf, len(seg))
    buf.extend(BitStream("".join(segments)).to_bytes())
    return bytes(buf)


def _split_segments(payload_bytes, lengths):
    total = sum(lengths)
    if (total + 7) // 8 != len(payload_bytes):
        raise _header_error("segment lengths do not match payload size")
    if total % 8 and payload_bytes[-1] & ((1 << (8 - total % 8)) - 1):
        raise CorruptionError("nonzero padding bits", segment="padding",
                              offset=total)
    bits = BitStream.from_bytes(payload_bytes, total)
    parts = []
    start = 0
    for length in lengths:
        parts.append(bits[start:start + length])
        start += length
    return parts


def deserialize(data):
    """Parse container bytes back into the matching encoding object.

    The segment lengths are checked against n (and k) before any payload
    is read.  A header error sets ``segment`` "header" and ``offset`` at
    the bit where the field at fault starts: the magic at 0, the version
    at 32, the scheme at 40, a varint at its first byte.  A check of
    lengths against each other or against the payload size names no
    single field, and no offset.  Nonzero padding bits set ``segment``
    "padding" and ``offset`` at the payload bit where the padding starts.
    """
    if data[:4] != MAGIC:
        raise _header_error("bad magic", 0)
    if len(data) < 6:
        raise _header_error("truncated header", 8 * len(data))
    if data[4] != VERSION:
        raise _header_error("unsupported version %d" % data[4], 32)
    scheme = data[5]
    if scheme not in SCHEME_IDS:
        raise _header_error("unknown scheme %d" % scheme, 40)
    n, pos = read_varint(data, 6)
    if n < 1:
        raise _header_error("n must be >= 1", 48)
    if n > MAX_N:
        raise _header_error("n = %d exceeds MAX_N = %d" % (n, MAX_N), 48)
    k = 0
    if scheme == SCHEME_GENERAL:
        start = 8 * pos
        k, pos = read_varint(data, pos)
        if k > n - 1:
            raise _header_error("run count k out of range", start)
    # the segment lengths, and the bit where each one's varint starts
    lengths, starts = [], []
    for _ in range(3 if scheme == SCHEME_JOINT else 5):
        starts.append(8 * pos)
        length, pos = read_varint(data, pos)
        lengths.append(length)
    payload = data[pos:]
    # the elements of the joint array, or of the colored part
    size = n - k
    if scheme == SCHEME_JOINT:
        if lengths[0] != n - 1:
            raise _header_error("U segment has wrong length", starts[0])
    else:
        u_gb, v_bad, packed = lengths[:3]
        if u_gb != 2 * v_bad:
            raise _header_error("|u_gb| must be twice |v_bad|")
        m = size - 1 - u_gb
        if m < 0 or trit_pack_bits(m) != packed:
            raise _header_error("packed trit segment has wrong length", starts[2])
    degree_bits = lengths[-2] + lengths[-1]
    if degree_bits != 2 * size:
        raise _header_error("degree streams must total %s = %d bits, not %d"
                            % ("2n" if k == 0 else "2(n-k)", 2 * size, degree_bits))
    if scheme == SCHEME_JOINT:
        return JointEncoding(n, *_split_segments(payload, lengths))
    if scheme == SCHEME_COLORED:
        return _colored_encoding(n, m, _split_segments(payload, lengths))
    # general: leading subset-rank bits, then the colored segments of A'.
    # The rank width falls back to a big binomial near integer values of
    # log2 C(n-1, k), so the payload size is first checked against cheap
    # bounds on it: 2^min(k, n-1-k) <= C(n-1, k) <= 2^(n-1).
    listed = sum(lengths)
    if not ((listed + min(k, n - 1 - k) + 7) // 8 <= len(payload)
            <= (listed + n - 1 + 7) // 8):
        raise _header_error("payload size does not fit the run rank width")
    parts = _split_segments(payload, [subset_rank_width(n - 1, k)] + lengths)
    return GeneralEncoding(n, k, parts[0], _colored_encoding(size, m, parts[1:]))


def _colored_encoding(n, m, parts):
    u_gb, v_bad, packed, t_min, t_max = parts
    return ColoredEncoding(n, t_min, t_max, u_gb, v_bad, unpack_trits(packed, m))
