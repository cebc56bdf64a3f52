import itertools

import pytest

from nlvcodec import ValueArray
from nlvcodec.arrays import (ORACLES, compute_runs, oracle_plv, oracle_psv,
                             reduced_array)
from nlvcodec.colored import decode_colored, encode_colored
from nlvcodec.general import encode_general
from nlvcodec.joint import decode_joint, encode_joint
from nlvcodec.trees import (SIB_BLUE, SIB_RED, ColoredTree, OrdinalTree,
                            build_max_heap, build_min_heap,
                            check_leaf_internal_duality, check_preorder_labels,
                            check_red_leaf_rule, check_sibling_monotonicity,
                            colorize, tree_to_text)

from conftest import make_rng, random_no_equal_neighbours


def assert_children_follow_labels(tree):
    """Each node's children, by a scan of the parents, are what
    ``children`` gives, and start at i + 1 exactly when degrees[i] > 0:
    a preorder tree needs no first-child table."""
    kids = [[] for _ in range(tree.n + 1)]
    for j in range(1, tree.n + 1):
        kids[tree.parent[j]].append(j)
    assert [tree.children(i) for i in range(tree.n + 1)] == kids
    assert [len(k) for k in kids] == tree.degrees
    for i, k in enumerate(kids):
        assert (k[:1] == [i + 1]) == (tree.degrees[i] > 0)


class TestOrdinalTree:
    def test_children_from_parent(self):
        t = OrdinalTree([None, 0, 0, 2])
        assert t.children(0) == [1, 2]
        assert t.children(2) == [3]
        assert t.children(1) == t.children(3) == []
        assert t.degrees[0] == 2 and t.degrees[1] == 0
        assert_children_follow_labels(t)

    def test_right_sibling(self):
        t = OrdinalTree([None, 0, 0, 2])
        assert t.right_sibling(1) == 2
        assert t.right_sib[2] == 0

    def test_derived_tables_are_read_only(self):
        t = OrdinalTree([None, 0, 0, 2])
        assert t.right_sib == [0, 2, 0, 0]
        assert t.degrees == [2, 0, 1, 0]
        assert not hasattr(t, "first_child")
        for name in ("right_sib", "degrees"):
            with pytest.raises(AttributeError):
                setattr(t, name, [])

    def test_preorder_labels(self):
        assert check_preorder_labels(OrdinalTree([None, 0, 0, 2]))
        assert check_preorder_labels(OrdinalTree([None, 0, 1, 2, 1, 0]))
        # node 3 is not below node 2, and node 2's parent is no ancestor
        # of node 1
        assert not check_preorder_labels(OrdinalTree([None, 0, 0, 1]))
        assert not check_preorder_labels(OrdinalTree([None, 0, 3, 0]))


class TestBuilders:
    def test_min_heap_figure(self, figure_array):
        t = build_min_heap(figure_array)
        assert t.children(0) == [1, 5, 6]
        assert t.children(1) == [2, 3]
        assert t.children(3) == [4]
        assert t.children(6) == [7]
        assert t.children(7) == [8, 9]

    def test_max_heap_figure(self, figure_array):
        t = build_max_heap(figure_array)
        assert t.children(0) == [1, 2, 8]
        assert t.children(2) == [3, 4, 7]
        assert t.children(4) == [5]
        assert t.children(5) == [6]
        assert t.children(8) == [9]

    def test_singleton(self):
        a = ValueArray([5])
        assert build_min_heap(a).children(0) == [1]
        assert build_max_heap(a).children(0) == [1]

    def test_chains(self):
        up = build_min_heap(ValueArray([1, 2, 3]))
        assert up.parent == [None, 0, 1, 2]
        down = build_max_heap(ValueArray([3, 2, 1]))
        assert down.parent == [None, 0, 1, 2]

    def test_parents_match_oracles(self):
        rng = make_rng(11)
        for _ in range(50):
            a = random_no_equal_neighbours(rng, rng.randint(1, 60))
            min_t = build_min_heap(a)
            max_t = build_max_heap(a)
            for i in range(1, a.n + 1):
                assert min_t.parent[i] == oracle_psv(a, i)
                assert max_t.parent[i] == oracle_plv(a, i)

    def test_structural_invariants(self):
        rng = make_rng(12)
        for _ in range(30):
            a = random_no_equal_neighbours(rng, rng.randint(1, 50))
            min_t = build_min_heap(a)
            max_t = build_max_heap(a)
            assert check_preorder_labels(min_t)
            assert check_preorder_labels(max_t)
            assert check_sibling_monotonicity(min_t, a, "min")
            assert check_sibling_monotonicity(max_t, a, "max")

    def test_sibling_monotonicity_takes_only_min_or_max(self):
        # 1 and 2 are siblings under the root of the max heap of
        # [1, 3, 2], so checked as a min heap it fails; a kind that is
        # neither raises instead of passing as a holding invariant
        a = ValueArray([1, 3, 2])
        max_t = build_max_heap(a)
        assert check_sibling_monotonicity(max_t, a, "max")
        assert not check_sibling_monotonicity(max_t, a, "min")
        for kind in ("Max", "MIN", "", None, "maximum"):
            with pytest.raises(ValueError, match="kind must be 'min' or 'max'"):
                check_sibling_monotonicity(max_t, a, kind)


class TestColorize:
    def test_cmin_figure(self, figure_array):
        ct = colorize(build_min_heap(figure_array), figure_array)
        assert {i for i in range(1, 10) if ct.codes[i] == SIB_RED} == {2, 5, 8}
        assert ct.codes[2] == SIB_RED and ct.codes[1] == SIB_BLUE

    def test_cmax_figure(self, figure_array):
        ct = colorize(build_max_heap(figure_array), figure_array)
        assert {i for i in range(1, 10) if ct.codes[i] == SIB_RED} == {1, 2, 3, 4}

    def test_chain_all_blue(self):
        a = ValueArray([1, 2, 3])
        ct = colorize(build_min_heap(a), a)
        assert SIB_RED not in ct.codes

    def test_last_node_never_red(self):
        rng = make_rng(13)
        for _ in range(30):
            a = random_no_equal_neighbours(rng, rng.randint(1, 40))
            for build in (build_min_heap, build_max_heap):
                ct = colorize(build(a), a)
                assert ct.codes[0] != SIB_RED and ct.codes[a.n] != SIB_RED


class TestColoredTree:
    """A colored tree is an OrdinalTree with sibling codes: colorize's
    tree shares the built tree's tables, and the decoded tree of the same
    heap compares equal to it."""

    def pairs(self):
        rng = make_rng(73)
        for n in list(range(1, 8)) + [rng.randint(8, 120) for _ in range(20)]:
            a = random_no_equal_neighbours(rng, n, hi=rng.choice((3, 10**6)))
            built = build_min_heap(a), build_max_heap(a)
            colored = tuple(colorize(t, a) for t in built)
            yield built, colored, decode_colored(encode_colored(*colored))

    def test_a_colored_tree_is_a_tree(self):
        assert ColoredTree.__slots__ == ("_codes", "next_value")
        for built, colored, decoded in self.pairs():
            for plain, ct, dec in zip(built, colored, decoded):
                assert isinstance(ct, OrdinalTree) and isinstance(dec, OrdinalTree)
                assert not hasattr(ct, "tree")
                assert ct.n == plain.n and ct.parent is plain.parent
                assert ct.right_sib is plain.right_sib and ct.degrees is plain.degrees
                assert (dec.n, dec.parent, dec.right_sib, dec.degrees) == (
                    plain.n, plain.parent, plain.right_sib, plain.degrees)

    def test_equality(self):
        for built, colored, decoded in self.pairs():
            for plain, ct, dec in zip(built, colored, decoded):
                assert ct == dec and dec == ct
                assert plain == OrdinalTree(dec.parent)
                for tree in (ct, dec):
                    assert plain != tree and tree != plain
                    assert not tree == plain and not plain == tree
                    assert OrdinalTree(tree.parent) != tree
        # one tree, different codes: node 1 of [3, 1, 2] is red
        a = ValueArray([3, 1, 2])
        ct = colorize(build_min_heap(a), a)
        codes = bytearray(ct.codes)
        assert codes[1] == SIB_RED
        codes[1] = SIB_BLUE
        assert ColoredTree.from_codes(ct, codes) != ct


class TestOnePassTables:
    """The heap builders fill right_sib and degrees in their stack scan,
    and decoded trees derive them from their parents on first read; both
    must equal the tables a tree given the parent list alone derives,
    and each node's children must follow from them."""

    @staticmethod
    def assert_tables_derived(tree):
        derived = OrdinalTree(tree.parent)
        assert tree.n == derived.n
        assert tree.right_sib == derived.right_sib
        assert tree.degrees == derived.degrees
        assert_children_follow_labels(tree)

    def check(self, a, decode):
        min_t, max_t = build_min_heap(a), build_max_heap(a)
        self.assert_tables_derived(min_t)
        self.assert_tables_derived(max_t)
        if decode:
            for tree in decode_joint(encode_joint(min_t, max_t)):
                self.assert_tables_derived(tree)
            pair = encode_colored(colorize(min_t, a), colorize(max_t, a))
            for ct in decode_colored(pair):
                self.assert_tables_derived(ct)

    def test_random_no_equal_neighbours(self):
        rng = make_rng(71)
        for n in list(range(1, 20)) + [rng.randint(20, 300) for _ in range(40)]:
            self.check(random_no_equal_neighbours(rng, n, hi=rng.choice((3, 50, 10**6))),
                       decode=True)

    def test_random_with_equal_neighbours(self):
        rng = make_rng(72)
        for n in list(range(1, 20)) + [rng.randint(20, 300) for _ in range(40)]:
            self.check(ValueArray([rng.randint(1, rng.choice((2, 3, 10)))
                                   for _ in range(n)]), decode=False)

    def test_deep_stack_and_wide_root(self):
        # increasing: a min-heap chain and a max heap whose root has n
        # children; decreasing: the mirror image
        for values in (range(5000), range(5000, 0, -1)):
            self.check(ValueArray(values), decode=True)


class TestDerivedEqualsBuilt:
    """A decoded tree keeps its parents and next-value table and derives
    right_sib, degrees and its colors on read; they must equal what the
    heap builders and ``colorize`` make from the array, with the same
    children at every node,
    its next-value table must hold the oracle answers, and encoding the
    decoded trees must give back the encoding.  Binary and alphabet-3
    input has blue siblings, which equal values make."""

    @staticmethod
    def assert_same_tree(decoded, built):
        assert decoded.right_sib == built.right_sib
        assert decoded.degrees == built.degrees
        assert_children_follow_labels(decoded)
        assert_children_follow_labels(built)

    def check_colored(self, a):
        cmin, cmax = colorize(build_min_heap(a), a), colorize(build_max_heap(a), a)
        enc = encode_colored(cmin, cmax)
        decoded = decode_colored(enc)
        for dec, built, kind in zip(decoded, (cmin, cmax), ("nsv", "nlv")):
            # colors first, while the tree has not derived its tables yet
            assert dec.codes == built.codes
            self.assert_same_tree(dec, built)
            assert dec.next_value[1:] == [ORACLES[kind](a, i)
                                          for i in range(1, a.n + 1)]
        assert encode_colored(*decoded) == enc
        return enc

    def arrays(self, seed, alphabet):
        rng = make_rng(seed)
        for n in list(range(1, 12)) + [rng.randint(12, 200) for _ in range(30)]:
            yield ValueArray([rng.randint(1, alphabet) for _ in range(n)])

    @pytest.mark.parametrize("alphabet", [2, 3, 10**6])
    def test_joint_and_colored(self, alphabet):
        blue_siblings = 0
        for a in self.arrays(81, alphabet):
            reduced = reduced_array(a, compute_runs(a))
            min_t, max_t = build_min_heap(reduced), build_max_heap(reduced)
            enc = encode_joint(min_t, max_t)
            decoded = decode_joint(enc)
            for dec, built in zip(decoded, (min_t, max_t)):
                self.assert_same_tree(dec, built)
            assert encode_joint(*decoded) == enc
            self.check_colored(reduced)
            blue_siblings += sum(
                1 for ct in (colorize(min_t, reduced), colorize(max_t, reduced))
                for i in range(1, reduced.n + 1)
                if ct.codes[i] == SIB_BLUE)
        if alphabet < 10:
            assert blue_siblings > 50

    @pytest.mark.parametrize("alphabet", [2, 3])
    def test_reduced_part_of_general(self, alphabet):
        for a in self.arrays(82, alphabet):
            enc = encode_general(a)
            assert self.check_colored(reduced_array(a, compute_runs(a))) == enc.colored


class TestStructuralRules:
    def test_duality_figure(self, figure_array):
        min_t = build_min_heap(figure_array)
        max_t = build_max_heap(figure_array)
        assert check_leaf_internal_duality(min_t, max_t) is None
        assert {i for i in range(1, 10) if not min_t.degrees[i]} == {2, 4, 5, 8, 9}
        assert {i for i in range(1, 9) if max_t.degrees[i]} == {2, 4, 5, 8}

    def test_duality_singleton(self):
        a = ValueArray([5])
        assert check_leaf_internal_duality(build_min_heap(a), build_max_heap(a)) is None

    def test_duality_alternating(self):
        a = ValueArray([1, 2, 1, 2])
        assert check_leaf_internal_duality(build_min_heap(a), build_max_heap(a)) is None

    def test_duality_fails_on_equal_neighbours(self):
        a = ValueArray([7, 7])
        # index 1 is a leaf in both trees
        assert check_leaf_internal_duality(build_min_heap(a), build_max_heap(a)) == 1

    def test_red_leaf_rule(self, figure_array):
        for build in (build_min_heap, build_max_heap):
            assert check_red_leaf_rule(colorize(build(figure_array), figure_array))

    def test_red_leaf_rule_chain(self):
        a = ValueArray([1, 2, 3])
        assert check_red_leaf_rule(colorize(build_min_heap(a), a))

    def test_rules_exhaustive(self):
        for n in range(1, 7):
            for values in itertools.product(range(1, 4), repeat=n):
                a = ValueArray(values)
                if a.has_consecutive_equal() is not None:
                    continue
                min_t = build_min_heap(a)
                max_t = build_max_heap(a)
                assert check_leaf_internal_duality(min_t, max_t) is None, values
                assert check_red_leaf_rule(colorize(min_t, a)), values
                assert check_red_leaf_rule(colorize(max_t, a)), values


class TestDebugExport:
    def test_uncolored(self):
        t = OrdinalTree([None, 0, 0, 2])
        assert tree_to_text(t) == "(0 (1) (2 (3)))"

    def test_colored(self, figure_array):
        ct = colorize(build_min_heap(figure_array), figure_array)
        text = tree_to_text(ct)
        assert text == "(0 (1b (2r) (3b (4b))) (5r) (6b (7b (8r) (9b))))"

    def test_colors_exactly_for_a_colored_tree(self, figure_array):
        # the same heap as a plain tree, colorize's tree and a decoded
        # tree: colors for the two colored trees only, and the same text
        a = figure_array
        for build in (build_min_heap, build_max_heap):
            plain = build(a)
            colored = colorize(plain, a)
            texts = [tree_to_text(t) for t in (plain, colored)]
            assert "r" not in texts[0] and "b" not in texts[0]
            assert texts[1].replace("r", "").replace("b", "") == texts[0]
            assert texts[1].count("r") + texts[1].count("b") == a.n
        decoded = decode_colored(encode_colored(
            colorize(build_min_heap(a), a), colorize(build_max_heap(a), a)))
        assert [tree_to_text(t) for t in decoded] == [
            "(0 (1b (2r) (3b (4b))) (5r) (6b (7b (8r) (9b))))",
            "(0 (1r) (2r (3r) (4r (5b (6b))) (7b)) (8b (9b)))"]
        assert [tree_to_text(OrdinalTree(t.parent)) for t in decoded] == [
            "(0 (1 (2) (3 (4))) (5) (6 (7 (8) (9))))",
            "(0 (1) (2 (3) (4 (5 (6))) (7)) (8 (9)))"]

    def test_deep_chain_no_recursion(self):
        a = ValueArray(range(1, 5001))
        assert tree_to_text(build_min_heap(a)).count("(") == 5001
