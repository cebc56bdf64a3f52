"""The shape codec of the (min, max) heap pair, and the joint scheme
that stores it in 3n-1 bits.

With no consecutive equal elements, each index 0 < i < n is internal in
exactly one heap.  Both shapes are then 2n unary degree bits (node 0 in
each heap, every other i < n in the heap where it is internal) plus that
choice of heap per index.  ``emit_joint`` writes the choice as the
min-heap leaf bitmap U beside the degree streams, from the two heaps'
degree lists: those of ``trees.scan_heaps`` when encoding an array, a
tree pair's when ``encode_joint`` or ``degree_streams`` is given trees.
It has no loop over the indices: ``heap_shapes`` turns each degree list
into bytes, checks duality with one bytes comparison and writes each
stream with one join over a table of unary codes, and U is one
``translate`` of the min heap's flags; ``colored.emit_colored`` takes
the same passes.  ``decode_heaps`` is the one shape loop of all three
schemes: it rebuilds both shapes (parents and right siblings) in one
pass, under node labels the general scheme sets to its run ends,
reading each choice inline, from U or from the colored scheme's side
strings, and each unary degree code below the roots with one ``next``
on the bytes that ``_codes`` splits its stream into, d - 1 per code, a
window of 256 bits at a time; so no node costs a Python call.  Beside
the tables it returns, its only scratch is a stack of open nodes and
their child counts per heap, and one window's codes per heap.  The
joint scheme stores U as is, so its heaps answer PSV/PLV only; the
colored scheme (``colored.py``) folds the choice into the colors, and
the loop lists the blue nodes its next-value tables need.
"""

from itertools import chain
from operator import length_hint

from .bitio import (TRUNCATED, BitStream, Encoding, check_bits, read_degree,
                    write_degree)
from .errors import CorruptionError, PreconditionError
from .trees import OrdinalTree


class JointEncoding(Encoding):
    """U, T_min, T_max for one array as bit strs; payload is exactly
    3n-1 bits."""

    scheme = "joint"
    __slots__ = ("n", "u", "t_min", "t_max")

    def __init__(self, n, u, t_min, t_max):
        check_bits(u, t_min, t_max)
        if len(u) != n - 1:
            raise CorruptionError("U must have length n-1")
        if len(t_min) + len(t_max) != 2 * n:
            raise CorruptionError("degree streams must total 2n bits")
        self._set(n=n, u=u, t_min=t_min, t_max=t_max)

    def payload_bits(self):
        return len(self.u) + len(self.t_min) + len(self.t_max)

    @staticmethod
    def payload_bound(n):
        """Every payload of n elements: 3n-1 bits."""
        return 3 * n - 1


def duality_error(i):
    """The PreconditionError for an index 0 < i < n that is a leaf in both
    heaps or internal in both.  For heaps of one array that is the first
    i with A[i] == A[i+1], since i is internal in the min heap iff
    A[i] < A[i+1] and in the max heap iff A[i] > A[i+1]."""
    return PreconditionError(
        "no consecutive equal elements allowed; A[%d] == A[%d]" % (i, i + 1),
        index=i)


# a degree byte d > 0 to its unary code (write_degree), and 0, a leaf,
# to nothing; a list, since map calls list.__getitem__ faster than a
# tuple's
_UNARY = [""] + [write_degree(d) for d in range(1, 256)]
# a degree byte to its node's flag: _INTERNAL gives 1 where the node is
# internal, _LEAF 1 where it is a leaf
_INTERNAL = bytes(1) + b"\1" * 255
_LEAF = b"\1" + bytes(255)
# a min heap internal flag to the node's U bit, as a digit
_U_OF_INTERNAL = bytes.maketrans(b"\0\1", b"10")


def _flags_and_stream(degrees, n, table):
    """The flags ``table`` gives the degrees of nodes 0 < i < n, and the
    heap's degree stream: the root's code, then the unary code of each
    nonzero degree among them, in node order."""
    root = write_degree(degrees[0])
    body = degrees[1:n]
    try:
        small = bytes(body)
    except ValueError:  # a degree of 256 or more
        return (bytes(map(bool, body)).translate(table),
                root + "".join(write_degree(d) for d in body if d))
    return (small.translate(table),
            root + "".join(map(_UNARY.__getitem__, small.translate(None, b"\0"))))


def heap_shapes(n, deg_min, deg_max):
    """``(own, bad, t_min, t_max)`` from a heap pair's degree lists, in a
    fixed number of C-level passes, with no loop over the indices.

    ``own`` holds one byte per 0 < i < n, 1 where i is internal in the
    min heap: one ``translate`` of the degrees as bytes (of their truth
    values, where one is 256 or more).  Under leaf/internal duality that
    is where i is a leaf in the max heap, so duality is one comparison
    with the max heap's leaf flags.  ``bad`` is the first i that breaks
    it, looked up only when the comparison fails, and 0 if none; a list
    too short for node n - 1 raises IndexError at the lookup.  ``t_min``
    and ``t_max`` are the degree streams: the root's code, then the
    unary code of each nonzero degree below it, by one join over a table
    of the codes of 1..255, or ``write_degree`` per degree where one is
    256 or more.  The root codes come first, so a root degree below 1
    raises ValueError before any duality error.
    """
    own, t_min = _flags_and_stream(deg_min, n, _INTERNAL)
    leaf_max, t_max = _flags_and_stream(deg_max, n, _LEAF)
    bad = 0
    if own != leaf_max or len(own) != n - 1:
        bad = next(i for i in range(1, n) if bool(deg_min[i]) == bool(deg_max[i]))
    return own, bad, t_min, t_max


def emit_joint(n, deg_min, deg_max):
    """The joint encoding of a heap pair given by its two degree lists
    (indexed by node 0..n), from ``heap_shapes``.

    U[i] = 1 iff i is a leaf in the min heap, for 1 <= i <= n-1, one
    ``translate`` of the min heap's internal flags.  Node 0 contributes
    to both streams, node i < n to the stream of the heap where it is
    internal.  The first i that is a leaf in both heaps, or internal in
    both, breaks leaf/internal duality and raises ``duality_error(i)``.
    """
    own, bad, t_min, t_max = heap_shapes(n, deg_min, deg_max)
    if bad:
        raise duality_error(bad)
    return JointEncoding(n, own.translate(_U_OF_INTERNAL).decode(), t_min, t_max)


def degree_streams(min_t, max_t):
    """U and the interleaved unary degree streams of a tree pair, as
    ``emit_joint`` writes them; trees of different sizes raise
    ValueError."""
    enc = encode_joint(min_t, max_t)
    return enc.u, enc.t_min, enc.t_max


def encode_joint(min_t, max_t):
    """Encode a heap pair as U plus the degree streams."""
    if min_t.n != max_t.n:
        raise ValueError("tree sizes differ")
    return emit_joint(min_t.n, min_t.degrees, max_t.degrees)


def _root_degree(cursor, segment):
    """The root's degree, read from the start of its heap's stream."""
    try:
        return read_degree(cursor)
    except CorruptionError:
        raise CorruptionError(TRUNCATED, segment=segment, offset=0) from None


# a degree stream is split _WINDOW bits at a time (``_codes``), so the
# split's scratch beside the decode's tables stays a few KB; at most
# 256, so that each code a window holds has a d - 1 that fits a byte
_WINDOW = 256


def _codes(bits, start):
    """d - 1 for each unary code of degree d in ``bits[start:]``, in
    order, up to the last complete code.

    Yields one bytes object per window of ``_WINDOW`` bits, cut after its
    last zero, so no code straddles two; such a window holds codes of at
    most 255 ones.  A code of ``_WINDOW`` ones or more has no zero in the
    window it starts, and comes alone, as a 1-tuple.
    """
    while True:
        stop = bits.rfind("0", start, start + _WINDOW) + 1
        if stop:
            yield bytes(map(len, bits[start:stop - 1].split("0")))
        else:
            stop = bits.find("0", start) + 1
            if not stop:
                return
            yield (stop - 1 - start,)
        start = stop


def _node(labels, label):
    """The node a label names (``decode_heaps``), for error messages."""
    return label if labels is None else sum(map(bool, labels[1:label + 1]))


def decode_heaps(n, t_min, t_max, u=None, u_gb="", v_bad="", v_neutral="",
                 labels=None):
    """Rebuild both heap shapes in one preorder pass; returns the (min,
    max) pair of (parent, right_sib, blue) tables.

    Node 0 is internal in both heaps and, for 0 < i < n, i is internal
    in exactly one, where i + 1 is its first child.  So node i + 1 takes
    i as its parent there with no stack access, and the other heap
    attaches it to the top of its stack of open nodes, those still
    expecting children, deepest last.  A frame stack beside each holds
    how many children each still expects, so the scratch is O(open
    nodes); a node is pushed only while it expects a second child.  An
    open node's own ``right_sib`` slot is free until the node closes
    (its siblings come after its subtree), so it holds the node's last
    child so far, and 0 again when it pops.

    The loop reads which heap i is internal in, inline.  Given ``u``,
    the joint scheme's min-heap leaf bitmap, it is U[i].  Otherwise the
    colored scheme's side strings tell, and the loop knows i's class
    from whether i gets a right sibling in each heap: a good or bad
    index reads the next ``u_gb`` bit, a bad one also the next
    ``v_bad`` bit, its color in the heap where it is internal; a
    neutral index reads the next ``v_neutral`` trit, which must be 0, 1
    or 2 (``colored.decode_tables`` checks that first).  A node that is
    blue and has a right sibling, a ``v_bad`` bit or trit 1, goes on
    its heap's ``blue`` list, in increasing order; no color is stored
    for any other node, and the joint scheme's lists stay empty.

    The two root codes go through ``bitio.read_degree``.  Below the
    root, ``_codes`` splits each stream at its zeros, one window at a
    time, into bytes of d - 1 per code, and the loop takes a node's code
    with one ``next``, which is also the count its frame starts with, so
    no bit costs a Python call.  A truncated or overlong stream raises
    ``CorruptionError`` with ``segment`` "t_min" or "t_max" and
    ``offset`` the first bit of the code that runs past the end (the bit
    after the stream's last zero), or the first trailing bit: n plus the
    children still expected, since each bit read announced one child.
    A side string's errors name it at its length when it runs out, or at
    its first unread character, after the degree and open-node checks.
    Degrees are not kept: a tree derives them from its parents when they
    are read.  Every ``right_sib`` entry but 0 is the int object of the
    loop that made the node, as is every non-root ``parent`` entry, so
    tables built from these share their ints.

    ``labels`` names the nodes, node r by r by default: a list with
    each label x at index x (node r has the r-th nonzero entry) and 0
    elsewhere.  The tables then have ``len(labels)`` entries, indexed
    by label and holding the labels' own ints; a non-label entry stays
    None or 0.  The general scheme labels node r with the end of run r,
    so its tables come out in original coordinates.  Errors still name
    nodes, counted back on the error path only.  U is read by node, so
    the joint scheme keeps the default.
    """
    if n < 1:
        raise ValueError("a heap pair has at least one node")
    joint = u is not None
    if joint and len(u) != n - 1:
        raise CorruptionError("U must have length n-1")
    if labels is None:
        nodes, size = iter(range(1, n + 1)), n + 1
    else:
        nodes, size = filter(None, labels), len(labels)
    root_min = _root_degree(BitStream(t_min), "t_min")
    root_max = _root_degree(BitStream(t_max), "t_max")
    parent_min, parent_max = [None] * size, [None] * size
    sib_min, sib_max = [0] * size, [0] * size
    blue_min, blue_max = [], []
    # i is the node the last pass placed, by label, so each node is one
    # int object; node 1 is the root's first child in both heaps
    i = next(nodes)
    parent_min[i] = parent_max[i] = 0
    more_min, more_max = root_min > 1, root_max > 1
    stack_min, left_min = ([0], [root_min - 1]) if more_min else ([], [])
    stack_max, left_max = ([0], [root_max - 1]) if more_max else ([], [])
    if more_min:
        sib_min[0] = i
    if more_max:
        sib_max[0] = i
    codes_min = chain.from_iterable(_codes(t_min, root_min))
    codes_max = chain.from_iterable(_codes(t_max, root_max))
    gb_bits, bad_bits, trits = iter(u_gb), iter(v_bad), iter(v_neutral)
    # more_min and more_max say whether i gets a right sibling in each heap
    for k in nodes:
        # own_min: i is internal in the min heap
        if joint:
            own_min = u[i - 1] == "0"
        elif more_min == more_max:
            # good (siblings in neither heap) or bad (in both): the U bit
            try:
                b = next(gb_bits)
            except StopIteration:
                raise CorruptionError(TRUNCATED, segment="u_gb",
                                      offset=len(u_gb)) from None
            own_min = b == "0"
            if more_min:  # bad: red where it is a leaf, v_bad where internal
                try:
                    c = next(bad_bits)
                except StopIteration:
                    raise CorruptionError(TRUNCATED, segment="v_bad",
                                          offset=len(v_bad)) from None
                if c == "1":
                    (blue_min if own_min else blue_max).append(i)
        else:
            # neutral: the trit colors i in the heap where it has right
            # siblings, and 2 says it is internal in the other one
            try:
                c = next(trits)
            except StopIteration:
                raise CorruptionError("string v_neutral exhausted",
                                      segment="v_neutral",
                                      offset=len(v_neutral)) from None
            if c == "2":
                own_min = more_max
            else:
                own_min = more_min
                if c == "1":
                    (blue_min if own_min else blue_max).append(i)
        if own_min:
            # d - 1 for i's degree d; i stays open iff d >= 2
            try:
                more = next(codes_min)
            except StopIteration:
                raise CorruptionError(TRUNCATED, segment="t_min",
                                      offset=t_min.rfind("0") + 1) from None
            parent_min[k] = i
            more_min = more > 0
            if more_min:
                sib_min[i] = k
                stack_min.append(i)
                left_min.append(more)
            try:
                q = stack_max[-1]
            except IndexError:
                raise CorruptionError("no open node to attach node %d"
                                      % _node(labels, k)) from None
            parent_max[k] = q
            sib_max[sib_max[q]] = k
            more = left_max[-1] - 1
            more_max = more > 0
            if more_max:
                sib_max[q] = k
                left_max[-1] = more
            else:
                sib_max[q] = 0
                stack_max.pop()
                left_max.pop()
        else:
            try:
                more = next(codes_max)
            except StopIteration:
                raise CorruptionError(TRUNCATED, segment="t_max",
                                      offset=t_max.rfind("0") + 1) from None
            parent_max[k] = i
            more_max = more > 0
            if more_max:
                sib_max[i] = k
                stack_max.append(i)
                left_max.append(more)
            try:
                p = stack_min[-1]
            except IndexError:
                raise CorruptionError("no open node to attach node %d"
                                      % _node(labels, k)) from None
            parent_min[k] = p
            sib_min[sib_min[p]] = k
            more = left_min[-1] - 1
            more_min = more > 0
            if more_min:
                sib_min[p] = k
                left_min[-1] = more
            else:
                sib_min[p] = 0
                stack_min.pop()
                left_min.pop()
        i = k
    # a code of d bits announced d children, and nodes 1..n were each
    # one child in each heap, so the bits read are n plus the children
    # still expected
    for segment, bits, left in (("t_min", t_min, left_min), ("t_max", t_max, left_max)):
        pos = n + sum(left)
        if pos != len(bits):
            raise CorruptionError("unconsumed trailing degree bits",
                                  segment=segment, offset=pos)
    for stack, left in ((stack_min, left_min), (stack_max, left_max)):
        if stack:
            raise CorruptionError("node %d still expects %d more children"
                                  % (_node(labels, stack[-1]), left[-1]))
    # a str iterator's length hint is the count of characters left
    for segment, text, it in (("u_gb", u_gb, gb_bits), ("v_bad", v_bad, bad_bits),
                              ("v_neutral", v_neutral, trits)):
        left = length_hint(it)
        if left:
            raise CorruptionError("unconsumed side-string characters",
                                  segment=segment, offset=len(text) - left)
    return (parent_min, sib_min, blue_min), (parent_max, sib_max, blue_max)


def decode_joint(enc):
    """Rebuild the (min, max) heap pair; exact inverse of encode_joint.
    The trees keep their parents and derive the rest on read."""
    heaps = decode_heaps(enc.n, enc.t_min, enc.t_max, u=enc.u)
    return tuple(OrdinalTree(parent) for parent, _, _ in heaps)
