"""The heap builders and ``colorize`` against the versions they replaced,
kept here as references: the max heap built as the min heap of the
negated values, and a ``colorize`` that tests every node.  Parents,
right siblings, degrees and codes must be identical.  Then the tree path
against the encoders' scan at the benchmark's n = 2e4, where the stacks
run deep."""

import operator

from nlvcodec import ValueArray, container, fuzz, trees
from nlvcodec.arrays import compute_runs, reduced_array
from nlvcodec.colored import encode_colored
from nlvcodec.general import encode_general
from nlvcodec.joint import decode_joint, encode_joint
from nlvcodec.trees import (SIB_BLUE, SIB_RED, ColoredTree, build_max_heap,
                            build_min_heap, colorize)

from conftest import FIGURE_VALUES, make_rng, monotone_runs_array

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def reference_build_max_heap(a):
    """The max heap as the min heap of the negated values."""
    return trees._build_heap(map(operator.neg, a.values))


def reference_colorize(tree, a):
    """Sibling codes with one test per node, whether or not it has a
    right sibling."""
    if tree.n != a.n:
        raise ValueError("tree and array sizes differ")
    values = a.values
    right_sib = tree.right_sib
    codes = bytearray(tree.n + 1)
    for i in range(1, tree.n + 1):
        j = right_sib[i]
        if j:
            codes[i] = SIB_RED if values[i - 1] != values[j - 1] else SIB_BLUE
    return ColoredTree.from_codes(tree, codes)


def tables(tree):
    return tree.parent, tree.right_sib, tree.degrees


def builder_arrays():
    """(name, array) pairs: every fuzz distribution, equal values that
    are not neighbours, int64 extremes, all-equal arrays and a node with
    300 children."""
    yield "figure", ValueArray(FIGURE_VALUES)
    rng = make_rng(310)
    for k in range(1200):
        dist = fuzz.DISTRIBUTIONS[k % len(fuzz.DISTRIBUTIONS)]
        yield "%s #%d" % (dist, k), fuzz.random_array(rng, 300, 2 + k % 5, dist)
    # blue codes with no equal neighbours: a value returns after a dip or
    # a peak
    yield "zigzag", ValueArray([2, 1, 2, 1, 2, 3, 2, 3, 1, 1, 2])
    yield "valleys", ValueArray([5, 1, 5, 2, 5, 1, 5, 3, 5])
    for k in range(200):
        n = rng.randint(1, 60)
        yield "int64 #%d" % k, ValueArray(
            [rng.choice((INT64_MIN, INT64_MAX, 0, -1, 1)) for _ in range(n)])
    yield "int64 ends", ValueArray([INT64_MAX, INT64_MIN] * 20 + [INT64_MAX])
    for n in (1, 2, 3, 17, 300):
        yield "all equal %d" % n, ValueArray([7] * n)
    yield "1 then decreasing", ValueArray([1] + list(range(301, 1, -1)))


class TestReferenceBuilders:
    def test_max_heap_equals_negated_min_heap(self):
        count = 0
        for name, a in builder_arrays():
            assert tables(build_max_heap(a)) == tables(reference_build_max_heap(a)), name
            count += 1
        assert count > 1400

    def test_colorize_equals_per_node_loop(self):
        blue = 0
        for name, a in builder_arrays():
            for tree in (build_min_heap(a), build_max_heap(a)):
                got = colorize(tree, a)
                want = reference_colorize(tree, a)
                assert tables(got) == tables(want), name
                assert got.codes == want.codes, name
                blue += SIB_BLUE in got.codes
        # the blue branch is taken, not only red and none
        assert blue > 500

    def test_colorize_a_decoded_tree(self):
        # a tree made from parents alone derives its siblings on read
        rng = make_rng(311)
        for _ in range(50):
            a = fuzz.random_array(rng, 80, 4, "distinct")
            for tree in decode_joint(encode_joint(build_min_heap(a),
                                                  build_max_heap(a))):
                assert colorize(tree, a).codes == reference_colorize(tree, a).codes

    def test_single_node_with_300_children(self):
        a = ValueArray([1] + list(range(301, 1, -1)))
        min_t = build_min_heap(a)
        assert min_t.degrees[1] == 300
        assert min_t.children(1) == list(range(2, 302))
        codes = colorize(min_t, a).codes
        assert list(codes[2:301]) == [SIB_RED] * 299 and codes[301] == 0


def tree_path(a):
    return encode_colored(colorize(build_min_heap(a), a),
                          colorize(build_max_heap(a), a))


class TestTreePathAtBenchmarkSize:
    N = 20_000

    def test_colored(self):
        values = list(range(1, self.N + 1))
        make_rng(312).shuffle(values)
        for name, a in (("permutation", ValueArray(values)),
                        ("increasing", ValueArray(range(self.N))),
                        ("decreasing", ValueArray(range(self.N, 0, -1)))):
            assert tree_path(a) == container.encode(a, "colored"), name

    def test_general_reduced(self):
        rng = make_rng(313)
        for name, a in (
                ("fair-coin bits",
                 ValueArray([rng.randint(0, 1) for _ in range(self.N)])),
                ("monotone runs", monotone_runs_array(rng, self.N))):
            reduced = reduced_array(a, compute_runs(a))
            assert reduced.n < self.N
            assert tree_path(reduced) == encode_general(a).colored, name
