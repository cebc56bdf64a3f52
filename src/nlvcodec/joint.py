"""Joint encoding of the uncolored (min, max) heap pair in 3n-1 bits.

Payload: a leaf bitmap U of length n-1 plus two unary degree streams that
together hold exactly 2n bits.  Decoding supports PSV/PLV only.
"""

from .bitio import BitStream, read_degree, write_degree
from .errors import CorruptionError, PreconditionError
from .trees import OrdinalTree, check_leaf_internal_duality


class JointEncoding:
    """U, T_min, T_max for one array; payload is exactly 3n-1 bits."""

    scheme = "joint"
    __slots__ = ("n", "u", "t_min", "t_max")

    def __init__(self, n, u, t_min, t_max):
        if len(u) != n - 1:
            raise ValueError("U must have length n-1")
        if len(t_min) + len(t_max) != 2 * n:
            raise CorruptionError("degree streams must total 2n bits")
        self.n = n
        self.u = u
        self.t_min = t_min
        self.t_max = t_max

    def __eq__(self, other):
        return (isinstance(other, JointEncoding) and self.n == other.n
                and self.u == other.u and self.t_min == other.t_min
                and self.t_max == other.t_max)

    def payload_bits(self):
        return len(self.u) + len(self.t_min) + len(self.t_max)


def leaf_bitmap(min_t):
    """U[i] = 1 iff i is a leaf in the min heap, for 1 <= i <= n-1."""
    return BitStream("".join("1" if min_t.is_leaf(i) else "0"
                             for i in range(1, min_t.n)))


def degree_streams(min_t, max_t, u):
    """Interleaved unary degree codes: node 0 contributes to both streams,
    node i < n to the stream of the tree where it is internal."""
    u = u.text
    t_min = []
    t_max = []
    for i in range(min_t.n):
        if i == 0 or u[i - 1] == "0":
            t_min.append(write_degree(min_t.degree(i)))
        if i == 0 or u[i - 1] == "1":
            t_max.append(write_degree(max_t.degree(i)))
    return BitStream("".join(t_min)), BitStream("".join(t_max))


def encode_joint(min_t, max_t):
    """Encode a heap pair; both trees must come from one array with no
    consecutive equal elements (checked via leaf/internal duality)."""
    if min_t.n != max_t.n:
        raise ValueError("tree sizes differ")
    bad = check_leaf_internal_duality(min_t, max_t)
    if bad is not None:
        raise PreconditionError(
            "leaf/internal duality violated at index %d "
            "(consecutive equal elements?)" % bad, index=bad)
    u = leaf_bitmap(min_t)
    t_min, t_max = degree_streams(min_t, max_t, u)
    return JointEncoding(min_t.n, u, t_min, t_max)


class _Builder:
    """Stack-based preorder reconstruction: each new node attaches to the
    deepest rightmost-path node whose target degree is not yet met."""

    __slots__ = ("parent", "stack", "count", "target")

    def __init__(self, n, root_degree):
        self.parent = [None] * (n + 1)
        self.stack = [0]
        self.count = [0] * (n + 1)
        self.target = [0] * (n + 1)
        self.target[0] = root_degree

    def attach(self, i):
        stack = self.stack
        while stack and self.count[stack[-1]] == self.target[stack[-1]]:
            stack.pop()
        if not stack:
            raise CorruptionError("no open node to attach node %d" % i)
        p = stack[-1]
        self.parent[i] = p
        self.count[p] += 1
        return p

    def open_node(self, i, target_degree):
        self.target[i] = target_degree
        self.stack.append(i)

    def has_pending_siblings(self, i):
        """True iff i's parent still awaits more children, i.e. i will get
        right siblings."""
        p = self.parent[i]
        return self.count[p] < self.target[p]

    def finish(self):
        for node in self.stack:
            if self.count[node] != self.target[node]:
                raise CorruptionError(
                    "node %d received %d of %d children"
                    % (node, self.count[node], self.target[node]))
        return OrdinalTree(self.parent)


def decode_joint(enc):
    """Rebuild the (min, max) heap pair; exact inverse of encode_joint."""
    n, u = enc.n, enc.u.text
    enc.t_min.reset()
    enc.t_max.reset()
    bmin = _Builder(n, read_degree(enc.t_min))
    bmax = _Builder(n, read_degree(enc.t_max))
    for i in range(1, n + 1):
        bmin.attach(i)
        bmax.attach(i)
        if i == n:
            continue  # node n is a leaf in both trees and consumes nothing
        if u[i - 1] == "0":
            bmin.open_node(i, read_degree(enc.t_min))
        else:
            bmax.open_node(i, read_degree(enc.t_max))
    if not enc.t_min.at_end() or not enc.t_max.at_end():
        raise CorruptionError("unconsumed trailing degree bits")
    return bmin.finish(), bmax.finish()
