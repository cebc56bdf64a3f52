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

``emit_colored`` is the one loop that writes the degree streams and the
side strings, from each heap's degree list and sibling codes.  An array
gets them from ``trees.scan_heaps`` and builds no tree; a tree pair from
``colorize`` goes through ``encode_colored``, which reads the same lists
off the trees.  ``decode_tables`` is the one colored decode, to the four
answer tables, under the general scheme's run-end labels too;
``decode_colored`` wraps them as trees (``trees.ColoredTree``).
"""

from .bitio import (Encoding, check_bits, only_digits, trit_pack_bits,
                    write_degree)
from .errors import CorruptionError, PreconditionError
from .joint import decode_heaps, duality_error
from .trees import SIB_BLUE, ColoredTree, _next_value_table

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
    __slots__ = ("n", "t_min", "t_max", "u_gb", "v_bad", "v_neutral", "g")

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
                  v_neutral=v_neutral, g=g)

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
    min_t, max_t = cmin.tree, cmax.tree
    if min_t.n != max_t.n:
        raise ValueError("tree sizes differ")
    return emit_colored(min_t.n, min_t.degrees, cmin.codes,
                        max_t.degrees, cmax.codes)


def emit_colored(n, deg_min, code_min, deg_max, code_max):
    """The colored encoding of a heap pair given by its degree lists and
    sibling codes (``trees.SIB_*``, indexed by node 0..n), in one loop
    over 0 < i < n.

    The loop checks leaf/internal duality as ``joint.emit_joint`` does
    and then the red-leaf rule (``check_red_leaf_rule`` on both trees):
    index 0 < i < n is a leaf only in the heap where it is not internal,
    and node n has no right sibling in either heap.  A blue leaf with a
    right sibling raises PreconditionError with ``index`` i, after any
    duality error for i.  In a heap of an array, a leaf i's right
    sibling can only be i + 1, so a blue leaf means A[i] == A[i+1], and
    an array's first error is the duality error at its first equal pair.
    """
    t_min = [write_degree(deg_min[0])]
    t_max = [write_degree(deg_max[0])]
    u_gb, v_bad, v_neutral = [], [], []
    for i in range(1, n):
        # "own" is the heap where i is internal, "leaf" the other one; c
        # is i's U bit
        d = deg_min[i]
        e = deg_max[i]
        if d and not e:
            t_min.append("1" * (d - 1) + "0")
            c, own, leaf = "0", code_min[i], code_max[i]
        elif e and not d:
            t_max.append("1" * (e - 1) + "0")
            c, own, leaf = "1", code_max[i], code_min[i]
        else:
            raise duality_error(i)
        if leaf == SIB_BLUE:
            raise PreconditionError(
                "blue leaf with right sibling: array had consecutive equal "
                "elements or colors are inconsistent", index=i)
        if own:
            color = _COLOR_OF_CODE[own]
            if leaf:  # bad: right siblings in both trees
                u_gb.append(c)
                v_bad.append(color)
            else:  # neutral, the tree where i is internal has one
                v_neutral.append(color)
        elif leaf:
            v_neutral.append(TRIT_NO_SIBLINGS)
        else:  # good: right siblings in neither tree
            u_gb.append(c)
    return ColoredEncoding(n, "".join(t_min), "".join(t_max), "".join(u_gb),
                           "".join(v_bad), "".join(v_neutral))


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
