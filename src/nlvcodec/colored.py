"""Encoding of the colored (min, max) heap pair for arrays with no
consecutive equal elements.

The shape is stored as in the joint scheme (``joint.emit_joint``,
``joint.decode_heaps``); U's per-index choice of heap is folded into the
colors the shape does not imply.  Index 0 < i < n is good when it has
right siblings in neither heap, bad when in both, neutral otherwise.
Good and bad indices keep their U bit (``u_gb``), and a bad one adds its
color in the heap where it is internal (``v_bad``).  A neutral index
stores one trit (``v_neutral``): its color in the heap where it has
right siblings if it is internal there, else 2.  The shape loop
(``joint.decode_heaps``) sees the class from the shapes it is rebuilding
and reads each side string inline, through an iterator over its
characters.  With g good and g bad indices the payload is 2n + 3g bits
plus n-1-2g packed trits, largest at g = 0
(``ColoredEncoding.payload_bound``).

``emit_colored`` writes the degree streams and the side strings from
each heap's degree list and sibling codes, in a fixed number of C-level
passes with no loop over the indices: the degree streams and duality
come from ``joint.heap_shapes``, each index gets one key byte from its
heap choice and two sibling codes, and each side string is one
``translate`` of the keys.  An array gets the lists from
``trees.scan_heaps`` and builds no tree; a tree pair from ``colorize``
goes through ``encode_colored``, which reads the same lists off the
trees.  ``decode_tables`` is the one colored decode, to the four
answer tables, under the general scheme's run-end labels too;
``decode_colored`` wraps them as trees (``trees.ColoredTree``).
"""

import itertools

from .bitio import Encoding, check_bits, only_digits, trit_pack_bits
from .errors import CorruptionError, PreconditionError
from .joint import decode_heaps, duality_error, heap_shapes
from .trees import SIB_BLUE, SIB_NONE, SIB_RED, ColoredTree, _next_value_table

GOOD = "good"
BAD = "bad"
NEUTRAL = "neutral"

# red is encoded as 0, blue as 1
COLOR_RED = "0"
COLOR_BLUE = "1"
TRIT_NO_SIBLINGS = "2"
# the color a sibling code stores: SIB_RED is red, SIB_BLUE is blue
_COLOR_OF_CODE = (None, COLOR_RED, COLOR_BLUE)


def check_trits(v_neutral):
    """Raise ValueError unless ``v_neutral`` is a str, and CorruptionError
    at its first character that is no trit digit, with ``segment``
    v_neutral and ``offset`` its position.  A valid str costs one
    ``bytes.translate`` pass over its ASCII bytes (``bitio.only_digits``,
    as ``bitio.check_bits`` checks the bit segments), about 1 ns a
    character; ``str.lstrip``, over 20 times slower, only finds a bad
    one."""
    if not isinstance(v_neutral, str):
        raise ValueError("v_neutral must be a str of trit digits")
    if only_digits(v_neutral, b"012"):
        return
    # lstrip drops the valid trits at the start; what is left starts at
    # the first invalid one
    bad = v_neutral.lstrip(COLOR_RED + COLOR_BLUE + TRIT_NO_SIBLINGS)
    raise CorruptionError("invalid trit %r in v_neutral" % (bad[0],),
                          segment="v_neutral", offset=len(v_neutral) - len(bad))


class ColoredEncoding(Encoding):
    """Degree streams plus the per-class side strings: ``t_min``,
    ``t_max``, ``u_gb`` and ``v_bad`` are bit strs, ``v_neutral`` a str
    of trit digits."""

    scheme = "colored"
    __slots__ = ("n", "t_min", "t_max", "u_gb", "v_bad", "v_neutral")

    def __init__(self, n, t_min, t_max, u_gb, v_bad, v_neutral):
        check_bits(t_min, t_max, u_gb, v_bad)
        check_trits(v_neutral)
        if len(u_gb) % 2 != 0 or len(v_bad) * 2 != len(u_gb):
            raise CorruptionError("|u_gb| must equal 2g and |v_bad| must equal g")
        g = len(v_bad)
        if len(v_neutral) != n - 1 - 2 * g:
            raise CorruptionError("|v_neutral| must equal n-1-2g")
        if len(t_min) + len(t_max) != 2 * n:
            raise CorruptionError("degree streams must total 2n bits")
        self._set(n=n, t_min=t_min, t_max=t_max, u_gb=u_gb, v_bad=v_bad,
                  v_neutral=v_neutral)

    @property
    def g(self):
        """The number of good indices, which equals the number of bad
        ones."""
        return len(self.v_bad)

    def payload_bits(self):
        return (len(self.t_min) + len(self.t_max) + len(self.u_gb)
                + len(self.v_bad) + trit_pack_bits(len(self.v_neutral)))

    @staticmethod
    def payload_bound(n):
        """Every payload of n elements: 2n + trit_pack_bits(n-1) bits,
        the payload at g = 0.

        A good/bad pair adds 3 bits and takes 2 trits away, which saves
        trit_pack_bits(m) - trit_pack_bits(m-2), 3 or 4 bits at every m,
        so no g > 0 yields more.
        """
        return 2 * n + trit_pack_bits(n - 1)


def classify_index(min_t, max_t, i):
    """good: right siblings in neither tree; bad: in both; neutral: one."""
    if not 0 < i < min_t.n:
        raise ValueError("classification needs 0 < i < n")
    in_min = min_t.right_sib[i] != 0
    in_max = max_t.right_sib[i] != 0
    if in_min and in_max:
        return BAD
    if not in_min and not in_max:
        return GOOD
    return NEUTRAL


def count_good_bad(min_t, max_t):
    """Counts of good and bad indices over 0 < i < n; always equal."""
    g = b = 0
    for i in range(1, min_t.n):
        cls = classify_index(min_t, max_t, i)
        if cls == GOOD:
            g += 1
        elif cls == BAD:
            b += 1
    return g, b


def encode_colored(cmin, cmax):
    """Encode a colored heap pair from a no-consecutive-equals array:
    ``emit_colored`` over the trees' degree lists and sibling codes."""
    if cmin.n != cmax.n:
        raise ValueError("tree sizes differ")
    return emit_colored(cmin.n, cmin.degrees, cmin.codes,
                        cmax.degrees, cmax.codes)


def _side_chars(own, leaf, c):
    """An index's characters in (u_gb, v_bad, v_neutral), given its
    sibling codes in the heap where it is internal (own) and in the other
    (leaf), and its U bit c."""
    if own:
        color = _COLOR_OF_CODE[own]
        if leaf:  # bad: right siblings in both trees
            return c, color, ""
        return "", "", color  # neutral, the tree where i is internal has one
    if leaf:
        return "", "", TRIT_NO_SIBLINGS
    return c, "", ""  # good: right siblings in neither tree


def _key_tables():
    """The ``bytes.translate`` (table, delete) pair of each side string
    (u_gb, v_bad, v_neutral), and the table that maps a blue leaf's key
    to 1 and every other key to 0, over the keys 9 own_min + 3 code_min
    + code_max that ``emit_colored`` gives an index."""
    tables = [bytearray(256) for _ in range(4)]
    deletes = [bytearray() for _ in range(3)]
    for own_min, code_min, code_max in itertools.product((0, 1), range(3), range(3)):
        key = 9 * own_min + 3 * code_min + code_max
        own, leaf = (code_min, code_max) if own_min else (code_max, code_min)
        chars = _side_chars(own, leaf, "0" if own_min else "1")
        for table, delete, char in zip(tables, deletes, chars):
            if char:
                table[key] = ord(char)
            else:
                delete.append(key)
        tables[3][key] = leaf == SIB_BLUE
    return [(bytes(t), bytes(d)) for t, d in zip(tables, deletes)], bytes(tables[3])


_SIDE_TABLES, _BLUE_LEAF = _key_tables()
_SIB_CODES = bytes((SIB_NONE, SIB_RED, SIB_BLUE))


def _sibling_codes(n, code_min, code_max):
    """Both heaps' sibling codes of the nodes 0 < i < n, as bytes, after
    one ``translate`` check each that every code is a ``trees.SIB_*``.
    Any other code raises ValueError naming its node, the lowest such
    node, and at one node the min heap's code first; a list too short
    for node n - 1 raises IndexError there."""
    try:
        codes = bytes(code_min[1:n]), bytes(code_max[1:n])
    except ValueError:  # a code outside 0..255
        pass
    else:
        if (len(codes[0]) == len(codes[1]) == n - 1
                and not codes[0].translate(None, _SIB_CODES)
                and not codes[1].translate(None, _SIB_CODES)):
            return codes
    i, heap, code = next((i, heap, code) for i in range(1, n)
                         for heap, code in (("min", code_min[i]), ("max", code_max[i]))
                         if code not in (SIB_NONE, SIB_RED, SIB_BLUE))
    raise ValueError("node %d has sibling code %r in the %s heap, not "
                     "SIB_NONE, SIB_RED or SIB_BLUE" % (i, code, heap))


def emit_colored(n, deg_min, code_min, deg_max, code_max):
    """The colored encoding of a heap pair given by its degree lists and
    sibling codes (``trees.SIB_*``, indexed by node 0..n), in a fixed
    number of C-level passes over 0 < i < n.

    First every code of nodes 0 < i < n must be a ``SIB_*``
    (``_sibling_codes``); any other raises ValueError naming the first
    such node.  ``joint.heap_shapes`` gives the degree streams, each
    index's heap choice and the first index that breaks leaf/internal
    duality.  Each index then gets one key byte, 9 own_min + 3 code_min
    + code_max, at most 17, from one sum of the three byte strings read
    as integers, so no key carries into its neighbour.  One ``translate``
    of the keys per side string writes u_gb, v_bad and v_neutral, and
    one more with a ``find`` looks for a blue leaf with a right sibling,
    which breaks the red-leaf rule (``check_red_leaf_rule`` on both
    trees): index 0 < i < n is a leaf only in the heap where it is not
    internal, and node n has no right sibling in either heap.

    The lower index of the two errors is raised, and at one index the
    duality error (``duality_error``) comes before the blue leaf, a
    PreconditionError with ``index`` i.  In a heap of an array, a leaf
    i's right sibling can only be i + 1, so a blue leaf means A[i] ==
    A[i+1], and an array's first error is the duality error at its first
    equal pair.
    """
    sib_min, sib_max = _sibling_codes(n, code_min, code_max)
    own, bad, t_min, t_max = heap_shapes(n, deg_min, deg_max)
    keys = (9 * int.from_bytes(own, "big") + 3 * int.from_bytes(sib_min, "big")
            + int.from_bytes(sib_max, "big")).to_bytes(n - 1, "big")
    blue = keys.translate(_BLUE_LEAF).find(1) + 1
    if bad and not 0 < blue < bad:
        raise duality_error(bad)
    if blue:
        raise PreconditionError(
            "blue leaf with right sibling: array had consecutive equal "
            "elements or colors are inconsistent", index=blue)
    u_gb, v_bad, v_neutral = (keys.translate(*pair).decode() for pair in _SIDE_TABLES)
    return ColoredEncoding(n, t_min, t_max, u_gb, v_bad, v_neutral)


def decode_colored(enc):
    """Rebuild both colored trees; exact inverse of encode_colored.  Each
    tree keeps the parent and next-value tables of ``decode_tables`` and
    derives the rest, colors included, when read."""
    tables = decode_tables(enc)
    return (ColoredTree.from_decoded(tables["psv"], tables["nsv"]),
            ColoredTree.from_decoded(tables["plv"], tables["nlv"]))


def decode_tables(enc, labels=None):
    """The four answer tables of a colored encoding, keyed by kind, with
    the nodes named by ``labels`` (``joint.decode_heaps``).

    A trit outside 0, 1, 2 is found first (``check_trits``, which the
    constructor runs too, but an object that skipped it may reach here),
    so it costs no degree bit; the shape loop then reads the side strings
    inline, and its errors name the segment and position.  Each heap's
    parents are its previous-value table, and ``_next_value_table``
    turns both heaps' right siblings into their next-value tables in
    place, in one loop over the nodes and then a pass over each heap's
    blue nodes with a right sibling, which the shape loop lists.  No
    color is stored.
    """
    check_trits(enc.v_neutral)
    heaps = decode_heaps(enc.n, enc.t_min, enc.t_max, u_gb=enc.u_gb,
                         v_bad=enc.v_bad, v_neutral=enc.v_neutral, labels=labels)
    nsv, nlv = _next_value_table(heaps, labels)
    (psv, _, _), (plv, _, _) = heaps
    return {"psv": psv, "nsv": nsv, "plv": plv, "nlv": nlv}
