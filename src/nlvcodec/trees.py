"""2d-min/max heaps and their colored variants.

The min heap of A is the ordinal tree on nodes 0..n where the parent of
node i is PSV(i); the max heap uses PLV.  Node labels coincide with
preorder ranks.  A node is red when its immediate right sibling holds a
different value, blue otherwise.
"""

from .errors import RangeError

RED = "red"
BLUE = "blue"


class OrdinalTree:
    """Preorder-labeled ordinal tree on nodes 0..n.

    Stores the parent map and the children lists redundantly; the
    constructor derives one from the other and validates parent(i) < i.
    """

    __slots__ = ("n", "parent", "children", "_right_sib")

    def __init__(self, parent):
        parent = list(parent)
        if len(parent) < 2 or parent[0] is not None:
            raise ValueError("parent list must start with None and cover node 1")
        n = len(parent) - 1
        children = [[] for _ in range(n + 1)]
        for i in range(1, n + 1):
            p = parent[i]
            if not 0 <= p < i:
                raise ValueError("parent of node %d must be in 0..%d" % (i, i - 1))
            children[p].append(i)
        self.n = n
        self.parent = parent
        self.children = children
        right_sib = [0] * (n + 1)  # 0 = no immediate right sibling
        for kids in children:
            for a, b in zip(kids, kids[1:]):
                right_sib[a] = b
        self._right_sib = right_sib

    def __eq__(self, other):
        return isinstance(other, OrdinalTree) and self.parent == other.parent

    def degree(self, i):
        return len(self.children[i])

    def is_leaf(self, i):
        return not self.children[i]

    def right_sibling(self, i):
        """Immediate right sibling of i, or 0 if it is a last child."""
        return self._right_sib[i]

    def has_right_sibling(self, i):
        return self._right_sib[i] != 0

    def preorder(self):
        """Iterative preorder traversal from node 0."""
        out = []
        stack = [0]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(reversed(self.children[v]))
        return out


class ColoredTree:
    """An OrdinalTree plus a red/blue color per node.

    ``is_red`` is None for a heap decoded without colors (joint scheme).
    """

    __slots__ = ("tree", "is_red")

    def __init__(self, tree, is_red):
        if is_red is not None:
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


def _build_heap(a, cmp_pop):
    # Stack scan: node 0 is a virtual extreme sentinel, never popped.
    parent = [None] * (a.n + 1)
    stack = [0]
    values = a.values
    for i in range(1, a.n + 1):
        v = values[i - 1]
        while len(stack) > 1 and cmp_pop(values[stack[-1] - 1], v):
            stack.pop()
        parent[i] = stack[-1]
        stack.append(i)
    return OrdinalTree(parent)


def build_min_heap(a):
    """Tree with parent(i) = PSV(i); children sorted increasing."""
    return _build_heap(a, lambda top, v: top >= v)


def build_max_heap(a):
    """Tree with parent(i) = PLV(i)."""
    return _build_heap(a, lambda top, v: top <= v)


def colorize(tree, a):
    """Color nodes of a heap built from ``a``: red iff the immediate right
    sibling holds a different value."""
    if tree.n != a.n:
        raise ValueError("tree and array sizes differ")
    is_red = [False] * (tree.n + 1)
    for i in range(1, tree.n + 1):
        j = tree.right_sibling(i)
        if j != 0 and a[i] != a[j]:
            is_red[i] = True
    return ColoredTree(tree, is_red)


def check_leaf_internal_duality(min_t, max_t, n=None):
    """Leaf/internal duality: for 0 < i < n, i is a leaf in the min heap
    iff it is internal in the max heap.  Returns the first violating index
    or None."""
    if n is None:
        n = min_t.n
    for i in range(1, n):
        if min_t.is_leaf(i) == max_t.is_leaf(i):
            return i
    return None


def check_red_leaf_rule(ct):
    """Every leaf with a right sibling must be red (holds when the source
    array has no consecutive equal elements).  Returns True/False."""
    t = ct.tree
    for i in range(1, t.n + 1):
        if t.is_leaf(i) and t.has_right_sibling(i) and not ct.is_red[i]:
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
    out = []
    # (node, child_index) frames
    stack = [(0, 0)]
    while stack:
        node, ci = stack[-1]
        if ci == 0:
            label = str(node)
            if colors is not None and node > 0:
                label += "r" if colors[node] else "b"
            out.append("(" + label)
        kids = tree.children[node]
        if ci < len(kids):
            stack[-1] = (node, ci + 1)
            stack.append((kids[ci], 0))
        else:
            out.append(")")
            stack.pop()
    return " ".join(out).replace("( ", "(").replace(" )", ")")


def node_index_check(tree, i):
    if not 1 <= i <= tree.n:
        raise RangeError("node %d out of range 1..%d" % (i, tree.n))
