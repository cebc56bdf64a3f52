"""Encoding of the colored (min, max) heap pair for arrays with no
consecutive equal elements.

On top of the two degree streams, each inner index contributes either one
bit (good or bad: its U bit, plus one color bit when bad) or one trit
(neutral).  Total payload approaches (2 + log2 3) * n bits.
"""

import math

from .bitio import BitStream, read_degree, trit_pack_bits
from .errors import CorruptionError, PreconditionError
from .joint import _Builder, degree_streams, leaf_bitmap
from .trees import ColoredTree, check_leaf_internal_duality, check_red_leaf_rule

GOOD = "good"
BAD = "bad"
NEUTRAL = "neutral"

LOG2_3 = math.log2(3)

# red is encoded as 0, blue as 1
COLOR_RED = "0"
COLOR_BLUE = "1"
TRIT_NO_SIBLINGS = "2"


class ColoredEncoding:
    """Degree streams plus the per-class side strings: ``u_gb`` and
    ``v_bad`` are BitStreams, ``v_neutral`` a str of trit digits."""

    scheme = "colored"
    __slots__ = ("n", "t_min", "t_max", "u_gb", "v_bad", "v_neutral", "g")

    def __init__(self, n, t_min, t_max, u_gb, v_bad, v_neutral):
        if len(u_gb) % 2 != 0 or len(v_bad) * 2 != len(u_gb):
            raise CorruptionError("|u_gb| must equal 2g and |v_bad| must equal g")
        g = len(v_bad)
        if len(v_neutral) != n - 1 - 2 * g:
            raise CorruptionError("|v_neutral| must equal n-1-2g")
        if len(t_min) + len(t_max) != 2 * n:
            raise CorruptionError("degree streams must total 2n bits")
        self.n = n
        self.t_min = t_min
        self.t_max = t_max
        self.u_gb = u_gb
        self.v_bad = v_bad
        self.v_neutral = v_neutral
        self.g = g

    def __eq__(self, other):
        return (isinstance(other, ColoredEncoding) and self.n == other.n
                and self.t_min == other.t_min and self.t_max == other.t_max
                and self.u_gb == other.u_gb and self.v_bad == other.v_bad
                and self.v_neutral == other.v_neutral)

    def payload_bits(self):
        return (len(self.t_min) + len(self.t_max) + len(self.u_gb)
                + len(self.v_bad) + trit_pack_bits(len(self.v_neutral)))


def classify_index(min_t, max_t, i):
    """good: right siblings in neither tree; bad: in both; neutral: one."""
    if not 0 < i < min_t.n:
        raise ValueError("classification needs 0 < i < n")
    in_min = min_t.has_right_sibling(i)
    in_max = max_t.has_right_sibling(i)
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
    """Encode a colored heap pair from a no-consecutive-equals array."""
    min_t, max_t = cmin.tree, cmax.tree
    if min_t.n != max_t.n:
        raise ValueError("tree sizes differ")
    bad = check_leaf_internal_duality(min_t, max_t)
    if bad is not None:
        raise PreconditionError(
            "leaf/internal duality violated at index %d "
            "(consecutive equal elements?)" % bad, index=bad)
    for ct in (cmin, cmax):
        if not check_red_leaf_rule(ct):
            raise PreconditionError(
                "blue leaf with right sibling: array had consecutive equal "
                "elements or colors are inconsistent")
    n = min_t.n
    u = leaf_bitmap(min_t)
    t_min, t_max = degree_streams(min_t, max_t, u)
    u = u.text
    u_gb, v_bad, v_neutral = [], [], []
    for i in range(1, n):
        cls = classify_index(min_t, max_t, i)
        # the relevant tree is the one where i is internal
        relevant_is_min = u[i - 1] == "0"
        rel_ct = cmin if relevant_is_min else cmax
        if cls in (GOOD, BAD):
            u_gb.append(u[i - 1])
            if cls == BAD:
                v_bad.append(COLOR_RED if rel_ct.is_red[i] else COLOR_BLUE)
        else:
            if not rel_ct.tree.has_right_sibling(i):
                v_neutral.append(TRIT_NO_SIBLINGS)
            else:
                v_neutral.append(COLOR_RED if rel_ct.is_red[i] else COLOR_BLUE)
    return ColoredEncoding(n, t_min, t_max, BitStream("".join(u_gb)),
                           BitStream("".join(v_bad)), "".join(v_neutral))


def decode_colored(enc):
    """Rebuild both colored trees; exact inverse of encode_colored."""
    n, u_gb, v_bad, v_neutral = enc.n, enc.u_gb, enc.v_bad, enc.v_neutral
    for stream in (enc.t_min, enc.t_max, u_gb, v_bad):
        stream.reset()
    bmin = _Builder(n, read_degree(enc.t_min))
    bmax = _Builder(n, read_degree(enc.t_max))
    j = 0  # next v_neutral trit
    red_min = [False] * (n + 1)
    red_max = [False] * (n + 1)
    for i in range(1, n + 1):
        bmin.attach(i)
        bmax.attach(i)
        if i == n:
            break  # leaf and blue in both trees, consumes nothing
        sib_min = bmin.has_pending_siblings(i)
        sib_max = bmax.has_pending_siblings(i)
        if sib_min == sib_max:
            # good (neither) or bad (both): U bit names the relevant tree
            relevant_is_min = u_gb.read_bit() == "0"
            if sib_min:  # bad
                color = v_bad.read_bit()
                if relevant_is_min:
                    red_min[i] = color == COLOR_RED
                    red_max[i] = True  # leaf with right siblings
                else:
                    red_max[i] = color == COLOR_RED
                    red_min[i] = True
        else:
            if j == len(v_neutral):
                raise CorruptionError("string v_neutral exhausted")
            c = v_neutral[j]
            j += 1
            if c == TRIT_NO_SIBLINGS:
                # relevant tree is the sibling-free one; the other tree has
                # i as a leaf with right siblings, hence red
                relevant_is_min = not sib_min
                if sib_min:
                    red_min[i] = True
                else:
                    red_max[i] = True
            elif c in (COLOR_RED, COLOR_BLUE):
                relevant_is_min = sib_min
                if sib_min:
                    red_min[i] = c == COLOR_RED
                else:
                    red_max[i] = c == COLOR_RED
            else:
                raise CorruptionError("invalid trit %r in v_neutral" % (c,))
        if relevant_is_min:
            bmin.open_node(i, read_degree(enc.t_min))
        else:
            bmax.open_node(i, read_degree(enc.t_max))
    if not enc.t_min.at_end() or not enc.t_max.at_end():
        raise CorruptionError("unconsumed trailing degree bits")
    if not (u_gb.at_end() and v_bad.at_end() and j == len(v_neutral)):
        raise CorruptionError("unconsumed side-string characters")
    return (ColoredTree(bmin.finish(), red_min),
            ColoredTree(bmax.finish(), red_max))


def colored_size_bits(n, g, m):
    """Measured payload size: 2n degree bits, 3g good/bad bits, packed
    trits for the m = n-1-2g neutral indices."""
    if m != n - 1 - 2 * g or m < 0 or g < 0:
        raise ValueError("need m = n-1-2g >= 0")
    return 2 * n + 3 * g + trit_pack_bits(m)


def colored_size_bound(n):
    """Analytic bound (2 + log2 3) * n, attained as g -> 0."""
    return (2 + LOG2_3) * n
