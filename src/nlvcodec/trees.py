"""2d-min/max heaps, their colored variants, and the encoders' scan.

The min heap of A is the ordinal tree on nodes 0..n where the parent of
node i is PSV(i); the max heap uses PLV.  Node labels coincide with
preorder ranks, so an internal node i's first child is i + 1.  A node
is red when its immediate right sibling holds a different value, blue
otherwise.

The encoders build no tree.  ``scan_heaps`` runs the left-to-right stack
scan of both heaps in one pass, with a stack per heap, and keeps only
what the payload stores: each node's degree, and its sibling code
(``SIB_NONE``, ``SIB_RED`` or ``SIB_BLUE``), set when the node is popped,
which is when its right sibling arrives.

A tree (``OrdinalTree``) is its parent list plus its right-sibling and
degree tables, which the heap builders fill in their stack scan and
every other tree derives from the parents on first read.  Both builders
scan the values as given: the min heap from a -inf root, popping while
the top is >= the new value, the max heap from a +inf root, popping
while it is <= the new value.  A colored tree (``ColoredTree``) is a
tree with a sibling code per node, its color.  ``colorize`` gives a
tree its codes, visiting only the nodes with a right sibling; a decoded
tree holds the next-value table a query reads and derives its codes
from it.  The decoder stores no color: the next-value tables need only
the blue nodes with a right sibling, which the shape loop lists, and
``_next_value_table`` writes both heaps' tables over their sibling
lists in one top-down loop over the nodes, then one pass over each
heap's blue nodes.
"""

import math
from itertools import compress

# a node's sibling code: no right sibling, a red one (the sibling holds a
# different value) or a blue one (the same value)
SIB_NONE = 0
SIB_RED = 1
SIB_BLUE = 2


class OrdinalTree:
    """Preorder-labeled ordinal tree on nodes 0..n, held as flat tables.

    ``parent[i]`` is the parent of node i (None for the root 0);
    ``right_sib[i]`` is its immediate right sibling, 0 for none, since
    the root is nobody's sibling, and ``degrees[i]`` its number of
    children.  Node i has children exactly when ``degrees[i]`` is
    nonzero, and then its first child is i + 1.  ``right_sib`` and
    ``degrees`` are read-only properties: the heap builders pass them
    in, and a tree made from parents alone derives them on first read.
    The tables must already agree; nothing is checked or copied.
    """

    __slots__ = ("n", "parent", "_derived")

    def __init__(self, parent, right_sib=None, degrees=None):
        self.n = len(parent) - 1
        self.parent = parent
        self._derived = None if right_sib is None else (right_sib, degrees)

    def _tables(self):
        """Right-sibling and degree tables; given none, derived from the
        parents in one right-to-left pass and kept."""
        if self._derived:
            return self._derived
        parent = self.parent
        size = self.n + 1
        right_sib = [0] * size
        degrees = [0] * size
        # until node p is reached, right_sib[p] holds the leftmost child of
        # p seen so far, since every parent has a lower label than its
        # children
        for i in range(size - 1, 0, -1):
            p = parent[i]
            right_sib[i] = right_sib[p]
            right_sib[p] = i
            degrees[p] += 1
        right_sib[0] = 0
        self._derived = tables = (right_sib, degrees)
        return tables

    @property
    def right_sib(self):
        return self._tables()[0]

    @property
    def degrees(self):
        return self._tables()[1]

    def __eq__(self, other):
        return type(other) is type(self) and self.parent == other.parent

    def right_sibling(self, i):
        """Immediate right sibling of i, or 0 if it is a last child."""
        return self.right_sib[i]

    def children(self, i):
        """Children of i, left to right: i + 1 and its right siblings."""
        right_sib, degrees = self._tables()
        out = []
        c = i + 1 if degrees[i] else 0
        while c:
            out.append(c)
            c = right_sib[c]
        return out


class ColoredTree(OrdinalTree):
    """An OrdinalTree with a sibling code per node (``SIB_NONE``,
    ``SIB_RED``, ``SIB_BLUE``), which are its colors.

    A tree ``colorize`` makes (``from_codes``) holds its ``codes``
    bytearray, all the encoders read.  A decoded tree (``from_decoded``)
    holds ``next_value``, which a query reads: ``next_value[i]`` answers
    NSV(i) in a min heap and NLV(i) in a max heap, n+1 when there is
    none.  It derives its codes on first read: node x with right sibling
    s is red iff ``next_value[x] == s``, since a blue node with a sibling
    takes ``next_value[s]``, which is greater than s.  So the two trees
    of one heap compare equal, by parents and codes.
    """

    __slots__ = ("_codes", "next_value")

    @classmethod
    def from_codes(cls, tree, codes):
        """The colored tree over a tree's tables and its sibling-code
        bytearray, which it shares; nothing is checked or copied."""
        ct = cls(tree.parent, *tree._tables())
        ct._codes = codes
        return ct

    @classmethod
    def from_decoded(cls, parent, next_value):
        """The colored tree over a heap's parent list and its next-value
        table (``colored.decode_tables``), which it keeps; nothing is
        checked or copied.  The codes and the other tables are derived
        on first read."""
        ct = cls(parent)
        ct._codes = None
        ct.next_value = next_value
        return ct

    @property
    def codes(self):
        codes = self._codes
        if codes is None:
            codes = self._codes = bytearray(
                SIB_NONE if not sib else SIB_RED if sib == nxt else SIB_BLUE
                for sib, nxt in zip(self.right_sib, self.next_value))
        return codes

    def __eq__(self, other):
        return super().__eq__(other) and self.codes == other.codes


def _next_value_table(heaps, labels=None):
    """Next-value answers of both heaps, ``(min_table, max_table)``,
    from the (parent, right_sib, blue) pair that ``joint.decode_heaps``
    returns: each heap's table is written over its ``right_sib``.
    ``blue`` lists the heap's blue nodes with a right sibling, in
    increasing order.  ``labels`` names the nodes as
    ``joint.decode_heaps`` takes them, node i labelled i by default;
    the walk visits the labels, the answers are labels too, and n+1 is
    the tables' length.  An entry that is no label's is left as it is.

    A red node's answer is its right sibling.  A blue node with a right
    sibling holds the same value as that sibling and shares its answer.
    A last child takes the right sibling of its nearest strict ancestor
    below the root that has one (ancestor values are strictly closer to
    the extreme), else n+1.  So one top-down loop over the nodes writes,
    in each heap, each sibling-less node's climb answer (its parent's)
    over its 0, after which red nodes and last children hold their
    answers; then one right-to-left pass per heap over its blue nodes
    copies each sibling's answer into the blue node before it.  Every
    answer is an object of a ``right_sib`` list or the one n+1, so the
    tables hold no int of their own and need no list beside the
    siblings.
    """
    (parent_min, table_min, blue_min), (parent_max, table_max, blue_max) = heaps
    n = len(parent_min) - 1
    table_min[0] = table_max[0] = n + 1
    for j in range(1, n + 1) if labels is None else filter(None, labels):
        if not table_min[j]:
            table_min[j] = table_min[parent_min[j]]
        if not table_max[j]:
            table_max[j] = table_max[parent_max[j]]
    for i in reversed(blue_min):
        table_min[i] = table_min[table_min[i]]
    for i in reversed(blue_max):
        table_max[i] = table_max[table_max[i]]
    return table_min, table_max


def _build_heap(values, lower=True):
    # Stack scan for PSV (``lower``) or PLV: node 0 holds a virtual value
    # below (above) every other, so it is never popped.  The stack is the
    # rightmost path and p its top.  The last node popped before i is
    # attached was its parent's last child so far; when nothing is
    # popped, i is the first child of p = i-1.  The direction is chosen
    # once, so neither loop tests it per element.  ``scan_heaps`` is the
    # same scan for both heaps at once, keeping degrees and codes.
    padded = (-math.inf if lower else math.inf, *values)
    size = len(padded)
    parent = [None] * size
    right_sib = [0] * size
    degrees = [0] * size
    stack = [0]
    p = 0
    if lower:
        for i in range(1, size):
            v = padded[i]
            if padded[p] >= v:
                while True:
                    last = stack.pop()
                    p = stack[-1]
                    if padded[p] < v:
                        break
                right_sib[last] = i
            parent[i] = p
            degrees[p] += 1
            stack.append(i)
            p = i
    else:
        for i in range(1, size):
            v = padded[i]
            if padded[p] <= v:
                while True:
                    last = stack.pop()
                    p = stack[-1]
                    if padded[p] > v:
                        break
                right_sib[last] = i
            parent[i] = p
            degrees[p] += 1
            stack.append(i)
            p = i
    return OrdinalTree(parent, right_sib, degrees)


def scan_heaps(a):
    """Degrees and sibling codes of both heaps of ``a``, with no tree:
    ``(deg_min, code_min, deg_max, code_max)``, each indexed by node
    0..n.

    One left-to-right pass runs ``_build_heap``'s stack scan for both
    heaps: the min heap pops while its top is >= v, the max heap while
    its top is <= v.  Node i is the right sibling of the last node popped
    before it is attached, so that node's code compares the two values.
    Node i-1 tops both stacks when node i arrives, so A[i-1] < A[i] pops
    the max heap alone, A[i-1] > A[i] the min heap alone, and an equal
    pair pops both; a heap that does not pop takes i as the first child
    of i-1.
    """
    values = a.values
    size = len(values) + 1
    deg_min = [0] * size
    deg_max = [0] * size
    code_min = bytearray(size)
    code_max = bytearray(size)
    # node-indexed values; node 0 is below (lo) or above (hi) every value,
    # so it is never popped
    lo = (-math.inf, *values)
    hi = (math.inf, *values)
    # node 1 is the first child of the root in both heaps
    deg_min[0] = deg_max[0] = 1
    s_min = [0, 1]
    s_max = [0, 1]
    push_min, pop_min = s_min.append, s_min.pop
    push_max, pop_max = s_max.append, s_max.pop
    # u is A[i-1], the value of node i-1
    u = values[0]
    for i, v in enumerate(values[1:], 2):
        if v > u:
            # i is the first child of i-1
            deg_min[i - 1] = 1
        else:
            last = pop_min()
            p = s_min[-1]
            while lo[p] >= v:
                last = pop_min()
                p = s_min[-1]
            code_min[last] = SIB_RED if lo[last] != v else SIB_BLUE
            deg_min[p] += 1
        push_min(i)
        if v < u:
            deg_max[i - 1] = 1
        else:
            last = pop_max()
            p = s_max[-1]
            while hi[p] <= v:
                last = pop_max()
                p = s_max[-1]
            code_max[last] = SIB_RED if hi[last] != v else SIB_BLUE
            deg_max[p] += 1
        push_max(i)
        u = v
    return deg_min, code_min, deg_max, code_max


def build_min_heap(a):
    """Tree with parent(i) = PSV(i); children sorted increasing."""
    return _build_heap(a.values)


def build_max_heap(a):
    """Tree with parent(i) = PLV(i); children sorted increasing.  The
    min heap's stack scan over the same values, popping while the top
    is <= the new value."""
    return _build_heap(a.values, lower=False)


def colorize(tree, a):
    """Color nodes of a heap built from ``a``: red iff the immediate right
    sibling holds a different value.  Returns a ``ColoredTree`` that
    holds the sibling codes and no next-value table."""
    if tree.n != a.n:
        raise ValueError("tree and array sizes differ")
    right_sib = tree.right_sib
    # node-indexed values: node 0, which is nobody's sibling, holds None
    padded = (None, *a.values)
    codes = bytearray(tree.n + 1)
    # only a node with a right sibling gets a code
    for i in compress(range(tree.n + 1), right_sib):
        codes[i] = SIB_RED if padded[i] != padded[right_sib[i]] else SIB_BLUE
    return ColoredTree.from_codes(tree, codes)


def check_leaf_internal_duality(min_t, max_t):
    """Leaf/internal duality: for 0 < i < n, i is a leaf in the min heap
    iff it is internal in the max heap.  Returns the first violating index
    or None."""
    deg_min, deg_max = min_t.degrees, max_t.degrees
    for i in range(1, min_t.n):
        if (deg_min[i] == 0) == (deg_max[i] == 0):
            return i
    return None


def check_red_leaf_rule(ct):
    """Every leaf with a right sibling must be red (holds when the source
    array has no consecutive equal elements).  Returns True/False."""
    degrees, codes = ct.degrees, ct.codes
    for i in range(1, ct.n + 1):
        if not degrees[i] and codes[i] == SIB_BLUE:
            return False
    return True


def check_sibling_monotonicity(tree, a, kind):
    """In a min heap consecutive sibling values are non-increasing; in a
    max heap, non-decreasing.  ``kind`` is "min" or "max"; any other
    value raises ValueError."""
    if kind not in ("min", "max"):
        raise ValueError("kind must be 'min' or 'max', not %r" % (kind,))
    values = a.values
    right_sib = tree.right_sib
    for i in range(1, tree.n + 1):
        j = right_sib[i]
        if j == 0:
            continue
        if kind == "min" and values[i - 1] < values[j - 1]:
            return False
        if kind == "max" and values[i - 1] > values[j - 1]:
            return False
    return True


def check_preorder_labels(tree):
    """Node labels must equal preorder visit ranks, children in label
    order: the parent of each node i > 0 is i-1 or an ancestor of it."""
    parent = tree.parent
    # the path from the root to node i-1
    path = [0]
    for i in range(1, tree.n + 1):
        p = parent[i]
        while path and path[-1] != p:
            path.pop()
        if not path:
            return False
        path.append(i)
    return True


def tree_to_text(tree):
    """Parenthesized debug form, e.g. (0 (1r) (2b)); a ``ColoredTree``
    shows each node's sibling code as r for ``SIB_RED``, else b.
    Iterative, so deep chains are safe."""
    right_sib, degrees = tree.right_sib, tree.degrees
    codes = tree.codes if isinstance(tree, ColoredTree) else None
    out = ["(0"]
    # one entry per open node: its next child to open, 0 when none is left
    stack = [1 if degrees[0] else 0]
    while stack:
        c = stack.pop()
        if not c:
            out.append(")")
            continue
        stack.append(right_sib[c])
        label = str(c)
        if codes is not None:
            label += "r" if codes[c] == SIB_RED else "b"
        out.append("(" + label)
        stack.append(c + 1 if degrees[c] else 0)
    return " ".join(out).replace(" )", ")")

