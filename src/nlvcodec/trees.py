"""2d-min/max heaps and their colored variants.

The min heap of A is the ordinal tree on nodes 0..n where the parent of
node i is PSV(i); the max heap uses PLV.  Node labels coincide with
preorder ranks.  A node is red when its immediate right sibling holds a
different value, blue otherwise.

Trees are flat per-node tables (parent, first child, right sibling,
degree), filled by the pass that finds the tree: the stack scan of
``build_min_heap``/``build_max_heap`` or the decoder's pass over the
degree streams.  A colored tree adds its colors and the next-value answer
of every node, computed once when it is built, or on first read for the
trees ``colorize`` makes for the encoders.
"""

import math
import operator

RED = "red"
BLUE = "blue"


class OrdinalTree:
    """Preorder-labeled ordinal tree on nodes 0..n, held as flat tables.

    ``parent[i]`` is the parent of node i (None for the root 0);
    ``first_child``, ``right_sib`` and ``degrees`` go with it, 0 standing
    for "none" in the first two, since the root is nobody's child or
    sibling.  The heap builders and decoders fill all four tables in the
    pass that finds the tree (``from_tables``).  The constructor is for
    parent lists from outside: it validates parent(i) < i and derives the
    other three tables in one right-to-left pass.
    """

    __slots__ = ("n", "parent", "first_child", "right_sib", "degrees")

    def __init__(self, parent):
        parent = list(parent)
        if len(parent) < 2 or parent[0] is not None:
            raise ValueError("parent list must start with None and cover node 1")
        n = len(parent) - 1
        first = [0] * (n + 1)
        right_sib = [0] * (n + 1)
        degrees = [0] * (n + 1)
        for i in range(n, 0, -1):
            p = parent[i]
            if not 0 <= p < i:
                raise ValueError("parent of node %d must be in 0..%d" % (i, i - 1))
            right_sib[i] = first[p]
            first[p] = i
            degrees[p] += 1
        self._set_tables(parent, first, right_sib, degrees)

    @classmethod
    def from_tables(cls, parent, first_child, right_sib, degrees):
        """A tree over tables that already agree; nothing is checked or
        copied."""
        tree = cls.__new__(cls)
        tree._set_tables(parent, first_child, right_sib, degrees)
        return tree

    def _set_tables(self, parent, first_child, right_sib, degrees):
        self.n = len(parent) - 1
        self.parent = parent
        self.first_child = first_child
        self.right_sib = right_sib
        self.degrees = degrees

    def __eq__(self, other):
        return isinstance(other, OrdinalTree) and self.parent == other.parent

    def degree(self, i):
        return self.degrees[i]

    def is_leaf(self, i):
        return self.first_child[i] == 0

    def right_sibling(self, i):
        """Immediate right sibling of i, or 0 if it is a last child."""
        return self.right_sib[i]

    def has_right_sibling(self, i):
        return self.right_sib[i] != 0

    def children(self, i):
        """Children of i, left to right."""
        out = []
        c = self.first_child[i]
        while c:
            out.append(c)
            c = self.right_sib[c]
        return out

    def preorder(self):
        """Iterative preorder traversal from node 0."""
        out = []
        stack = [0]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(reversed(self.children(v)))
        return out


class ColoredTree:
    """An OrdinalTree plus a red/blue color per node and the next-value
    table those colors determine.

    ``next_value[i]`` is the answer to NSV(i) in a min heap and NLV(i) in
    a max heap, n+1 when there is none; the constructor computes it for
    every node.  Together with ``tree.parent`` it is all a query reads, so
    ``queries.tables_of`` keeps just those two lists of each heap.
    """

    __slots__ = ("tree", "is_red", "next_value")

    def __init__(self, tree, is_red):
        self._set_colors(tree, is_red)
        self.next_value = _next_value_table(tree, self.is_red)

    def _set_colors(self, tree, is_red):
        is_red = list(is_red)
        if len(is_red) != tree.n + 1:
            raise ValueError("need one color per node")
        self.tree = tree
        self.is_red = is_red

    def __eq__(self, other):
        return (isinstance(other, ColoredTree)
                and self.tree == other.tree and self.is_red == other.is_red)

    @property
    def n(self):
        return self.tree.n

    def color(self, i):
        return RED if self.is_red[i] else BLUE


class LazyColoredTree(ColoredTree):
    """A ColoredTree that builds ``next_value`` on its first read.

    ``colorize`` makes these, since the encoders read only the colors.
    A class with ``__getattr__`` pays for it on every attribute read, so
    decoded trees, which queries read, stay plain ColoredTrees.
    """

    __slots__ = ()

    def __init__(self, tree, is_red):
        self._set_colors(tree, is_red)

    def __getattr__(self, name):
        # reached only while a slot is unset
        if name != "next_value":
            raise AttributeError(name)
        self.next_value = _next_value_table(self.tree, self.is_red)
        return self.next_value


def _next_value_table(tree, is_red):
    """Next-value answer of every node, from the tree and colors alone.

    A red node's answer is its right sibling.  A blue node with a right
    sibling holds the same value as that sibling and shares its answer.
    A last child takes the right sibling of its nearest strict ancestor
    below the root that has one (ancestor values are strictly closer to
    the extreme), else n+1.  So one top-down pass stores the climb answer
    (own right sibling, else the parent's climb answer), which already is
    the answer of red nodes and last children; one right-to-left pass then
    copies each sibling's answer into the blue node before it.
    """
    n = tree.n
    parent = tree.parent
    right_sib = tree.right_sib
    table = [n + 1] * (n + 1)
    for j in range(1, n + 1):
        s = right_sib[j]
        table[j] = s if s else table[parent[j]]
    for i in range(n, 0, -1):
        if not is_red[i]:
            s = right_sib[i]
            if s:
                table[i] = table[s]
    return table


def _build_heap(values):
    # Stack scan for PSV: node 0 holds a virtual value below every other,
    # so it is never popped.  The stack is the rightmost path and p its
    # top.  The last node popped before i is attached was its parent's
    # last child so far; when nothing is popped, i is the first child of
    # p = i-1.
    padded = (-math.inf, *values)
    size = len(padded)
    parent = [None] * size
    first = [0] * size
    right_sib = [0] * size
    degrees = [0] * size
    stack = [0]
    p = 0
    for i in range(1, size):
        v = padded[i]
        if padded[p] >= v:
            while True:
                last = stack.pop()
                p = stack[-1]
                if padded[p] < v:
                    break
            right_sib[last] = i
        else:
            first[p] = i
        parent[i] = p
        degrees[p] += 1
        stack.append(i)
        p = i
    return OrdinalTree.from_tables(parent, first, right_sib, degrees)


def build_min_heap(a):
    """Tree with parent(i) = PSV(i); children sorted increasing."""
    return _build_heap(a.values)


def build_max_heap(a):
    """Tree with parent(i) = PLV(i): the min heap of the negated values."""
    return _build_heap(map(operator.neg, a.values))


def colorize(tree, a):
    """Color nodes of a heap built from ``a``: red iff the immediate right
    sibling holds a different value."""
    if tree.n != a.n:
        raise ValueError("tree and array sizes differ")
    values = a.values
    right_sib = tree.right_sib
    is_red = [False] * (tree.n + 1)
    for i in range(1, tree.n + 1):
        j = right_sib[i]
        if j and values[i - 1] != values[j - 1]:
            is_red[i] = True
    return LazyColoredTree(tree, is_red)


def check_leaf_internal_duality(min_t, max_t):
    """Leaf/internal duality: for 0 < i < n, i is a leaf in the min heap
    iff it is internal in the max heap.  Returns the first violating index
    or None."""
    first_min, first_max = min_t.first_child, max_t.first_child
    for i in range(1, min_t.n):
        if (first_min[i] == 0) == (first_max[i] == 0):
            return i
    return None


def check_red_leaf_rule(ct):
    """Every leaf with a right sibling must be red (holds when the source
    array has no consecutive equal elements).  Returns True/False."""
    t = ct.tree
    first, right_sib, is_red = t.first_child, t.right_sib, ct.is_red
    for i in range(1, t.n + 1):
        if not first[i] and right_sib[i] and not is_red[i]:
            return False
    return True


def check_sibling_monotonicity(tree, a, kind):
    """In a min heap consecutive sibling values are non-increasing; in a
    max heap, non-decreasing."""
    for i in range(1, tree.n + 1):
        j = tree.right_sibling(i)
        if j == 0:
            continue
        if kind == "min" and a[i] < a[j]:
            return False
        if kind == "max" and a[i] > a[j]:
            return False
    return True


def check_preorder_labels(tree):
    """Node labels must equal preorder visit ranks."""
    return tree.preorder() == list(range(tree.n + 1))


def tree_to_text(tree, colors=None):
    """Parenthesized debug form, e.g. (0 (1r) (2b)).  Iterative, so deep
    chains are safe."""
    out = ["(0"]
    # one entry per open node: its next child to open, 0 when none is left
    stack = [tree.first_child[0]]
    while stack:
        c = stack.pop()
        if not c:
            out.append(")")
            continue
        stack.append(tree.right_sib[c])
        label = str(c)
        if colors is not None:
            label += "r" if colors[c] else "b"
        out.append("(" + label)
        stack.append(tree.first_child[c])
    return " ".join(out).replace(" )", ")")

