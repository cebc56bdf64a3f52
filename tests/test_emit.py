"""The payload writers, ``colored.emit_colored`` and ``joint.emit_joint``,
against the one-loop-per-index writers they replaced, kept here as
references: same encoding, or same error type, message and ``index``."""

import itertools

import pytest

from nlvcodec import ColoredEncoding, JointEncoding, PreconditionError, ValueArray
from nlvcodec import fuzz
from nlvcodec.bitio import write_degree
from nlvcodec.colored import emit_colored, encode_colored
from nlvcodec.joint import duality_error, emit_joint
from nlvcodec.trees import (SIB_BLUE, SIB_NONE, SIB_RED, ColoredTree, build_max_heap,
                            build_min_heap, colorize, scan_heaps)

from conftest import FIGURE_VALUES, make_rng


def reference_emit_joint(n, deg_min, deg_max):
    """U and the degree streams in one loop over i."""
    u = []
    t_min = [write_degree(deg_min[0])]
    t_max = [write_degree(deg_max[0])]
    for i in range(1, n):
        d = deg_min[i]
        e = deg_max[i]
        if d and not e:
            u.append("0")
            t_min.append("1" * (d - 1) + "0")
        elif e and not d:
            u.append("1")
            t_max.append("1" * (e - 1) + "0")
        else:
            raise duality_error(i)
    return JointEncoding(n, "".join(u), "".join(t_min), "".join(t_max))


def reference_emit_colored(n, deg_min, code_min, deg_max, code_max):
    """The degree streams and side strings in one loop over i; the
    duality and blue-leaf checks at each i in turn.  It has no guard on
    the codes: a code of 3 raises IndexError in the heap where its node
    is internal, and is written as red in the other."""
    color_of_code = (None, "0", "1")
    t_min = [write_degree(deg_min[0])]
    t_max = [write_degree(deg_max[0])]
    u_gb, v_bad, v_neutral = [], [], []
    for i in range(1, n):
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
            color = color_of_code[own]
            if leaf:
                u_gb.append(c)
                v_bad.append(color)
            else:
                v_neutral.append(color)
        elif leaf:
            v_neutral.append("2")
        else:
            u_gb.append(c)
    return ColoredEncoding(n, "".join(t_min), "".join(t_max), "".join(u_gb),
                           "".join(v_bad), "".join(v_neutral))


def result(writer, *args):
    """A writer's encoding, or the type, message and index of what it
    raises."""
    try:
        return writer(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "index", None)


def assert_same(n, deg_min, code_min, deg_max, code_max, label=None):
    """Both writers give what their references give; returns the colored
    outcome."""
    got = result(emit_colored, n, deg_min, code_min, deg_max, code_max)
    assert got == result(reference_emit_colored, n, deg_min, code_min,
                         deg_max, code_max), label
    assert (result(emit_joint, n, deg_min, deg_max)
            == result(reference_emit_joint, n, deg_min, deg_max)), label
    return got


def tree_lists(cmin, cmax):
    """A colored tree pair's degree lists and codes, in emit order."""
    return cmin.n, cmin.degrees, cmin.codes, cmax.degrees, cmax.codes


def colored_pair(a, b=None):
    """The colorized min heap of ``a`` and max heap of ``b`` (``a`` by
    default)."""
    b = a if b is None else b
    return colorize(build_min_heap(a), a), colorize(build_max_heap(b), b)


def test_scan_output_of_every_fuzz_family():
    rng = make_rng(71)
    errors = {"PreconditionError": 0}
    for dist in fuzz.DISTRIBUTIONS:
        for _ in range(150):
            a = fuzz.random_array(rng, 120, rng.choice((2, 3, 5, 40)), dist)
            got = assert_same(a.n, *scan_heaps(a), label=(dist, list(a.values)))
            if isinstance(got, tuple):
                errors[got[0]] += 1
    # the families with equal pairs reach the error path often
    assert 100 < errors["PreconditionError"] < 600


def test_every_small_array():
    # n = 1 and 2 and all arrays up to 6 over three values, equal pairs
    # included
    for n in range(1, 7):
        for values in itertools.product(range(3), repeat=n):
            a = ValueArray(values)
            assert_same(n, *scan_heaps(a), label=values)


def test_tree_pairs_of_two_arrays():
    # an index may be internal in both heaps, not only a leaf in both,
    # and the blue leaves fall anywhere
    rng = make_rng(72)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 40)
        a, b = (ValueArray([rng.randint(1, 4) for _ in range(n)]) for _ in "ab")
        got = assert_same(*tree_lists(*colored_pair(a, b)), label=(a.values, b.values))
        outcomes.add(got[1].split(":")[0].split(";")[0] if isinstance(got, tuple)
                     else "encoded")
    assert outcomes == {"encoded", "no consecutive equal elements allowed",
                        "blue leaf with right sibling"}


def test_every_code_of_every_node():
    # each code of nodes 1..n in turn set to each of the three codes in
    # either heap: every flipped blue-leaf code, and codes no array gives
    rng = make_rng(73)
    flips = 0
    for _ in range(12):
        a = fuzz.random_array(rng, 30, 4, rng.choice(fuzz.DISTRIBUTIONS))
        n, deg_min, code_min, deg_max, code_max = a.n, *scan_heaps(a)
        for side in (0, 1):
            for i in range(1, n + 1):
                for code in (SIB_NONE, SIB_RED, SIB_BLUE):
                    codes = [bytearray(code_min), bytearray(code_max)]
                    codes[side][i] = code
                    assert_same(n, deg_min, codes[0], deg_max, codes[1],
                                label=(list(a.values), side, i, code))
                    flips += 1
    assert flips > 500


def test_the_lower_index_wins_and_duality_first_at_one_index():
    # the figure with node 5 a leaf in both heaps, and a blue leaf with a
    # right sibling before node 5, at it and after it: the figure's red
    # leaves with one are 2, 5 and 8 in the min heap and 1 and 3 in the
    # max heap
    a = ValueArray(FIGURE_VALUES)
    deg_min, code_min, deg_max, code_max = scan_heaps(a)
    assert deg_max[5] and not deg_min[5]
    deg_max[5] = 0
    duality = ("PreconditionError",
               "no consecutive equal elements allowed; A[5] == A[6]", 5)
    assert assert_same(a.n, deg_min, code_min, deg_max, code_max) == duality
    for side, i in ((0, 2), (1, 1), (1, 3), (0, 5), (0, 8)):
        codes = [bytearray(code_min), bytearray(code_max)]
        assert codes[side][i] == SIB_RED
        codes[side][i] = SIB_BLUE
        got = assert_same(a.n, deg_min, codes[0], deg_max, codes[1], label=i)
        if i < 5:
            assert got[1].startswith("blue leaf with right sibling") and got[2] == i
        else:
            assert got == duality


@pytest.mark.parametrize("n", [300, 1000])
def test_degrees_of_256_and_more(n):
    # decreasing: the min heap's root has n children; 1 then decreasing:
    # node 1 has n - 1 children in the min heap; increasing: the max
    # heap's root has n; and each with an equal pair
    for values in (range(n, 0, -1), [1] + list(range(n, 1, -1)), range(1, n + 1),
                   [1] + list(range(n, 2, -1)) + [3],
                   [2, 2] + list(range(n, 2, -1))):
        a = ValueArray(values)
        scan = scan_heaps(a)
        assert max(max(scan[0]), max(scan[2])) >= 256
        got = assert_same(a.n, *scan, label=values[:3])
        assert got == result(encode_colored, *colored_pair(a))


def test_root_degree_below_one():
    a = ValueArray([2, 1, 3])
    deg_min, code_min, deg_max, code_max = scan_heaps(a)
    for deg in (deg_min, deg_max):
        deg[0] = 0
        got = assert_same(a.n, deg_min, code_min, deg_max, code_max)
        assert got == ("ValueError", "degree must be >= 1", None)


class TestSiblingCodeGuard:
    """A sibling code none of ``SIB_NONE``, ``SIB_RED`` and ``SIB_BLUE``
    is a ValueError naming the first such node, from the array path and
    the tree path alike."""

    def test_figure_node_one_of_each_heap(self):
        a = ValueArray(FIGURE_VALUES)
        deg_min, code_min, deg_max, code_max = scan_heaps(a)
        # node 1 is internal in the min heap: the one-loop writer fails on
        # a code of 3 there, and writes one in the max heap as red
        assert deg_min[1] and not deg_max[1]
        for side, heap in ((0, "min"), (1, "max")):
            codes = [bytearray(code_min), bytearray(code_max)]
            codes[side][1] = 3
            args = (a.n, deg_min, codes[0], deg_max, codes[1])
            with pytest.raises(ValueError, match=(
                    r"^node 1 has sibling code 3 in the %s heap, not SIB_NONE, "
                    r"SIB_RED or SIB_BLUE$" % heap)):
                emit_colored(*args)
            if side == 0:
                with pytest.raises(IndexError):
                    reference_emit_colored(*args)
            else:
                written = reference_emit_colored(*args)
                codes[1][1] = SIB_RED
                assert written == emit_colored(*args)

    def test_tree_path(self):
        cmin, cmax = colored_pair(ValueArray(FIGURE_VALUES))
        codes = bytearray(cmax.codes)
        codes[4] = 255
        with pytest.raises(ValueError, match="^node 4 has sibling code 255 in the max"):
            encode_colored(cmin, ColoredTree.from_codes(cmax, codes))

    def test_first_node_wins_and_min_heap_first(self):
        a = ValueArray(FIGURE_VALUES)
        deg_min, code_min, deg_max, code_max = scan_heaps(a)
        cases = (({6: 7}, {3: 4}, "node 3 has sibling code 4 in the max"),
                 ({3: 9}, {3: 4}, "node 3 has sibling code 9 in the min"),
                 ({2: 300}, {}, "node 2 has sibling code 300 in the min"),
                 ({}, {8: -1}, "node 8 has sibling code -1 in the max"))
        for set_min, set_max, message in cases:
            codes = [list(code_min), list(code_max)]
            for side, changes in enumerate((set_min, set_max)):
                for i, code in changes.items():
                    codes[side][i] = code
            with pytest.raises(ValueError, match="^" + message):
                emit_colored(a.n, deg_min, codes[0], deg_max, codes[1])

    def test_guard_runs_before_the_other_checks(self):
        # an equal pair at 1 and a bad code at 5: the codes are checked
        # before any key, so the guard's error comes first
        a = ValueArray([4, 4, 2, 6, 1, 5])
        deg_min, code_min, deg_max, code_max = scan_heaps(a)
        code_min[5] = 3
        with pytest.raises(ValueError, match="^node 5 has sibling code 3"):
            emit_colored(a.n, deg_min, code_min, deg_max, code_max)

    def test_nodes_zero_and_n_are_not_read(self):
        a = ValueArray(FIGURE_VALUES)
        deg_min, code_min, deg_max, code_max = scan_heaps(a)
        want = emit_colored(a.n, deg_min, code_min, deg_max, code_max)
        for codes in (code_min, code_max):
            codes[0] = codes[a.n] = 3
        assert emit_colored(a.n, deg_min, code_min, deg_max, code_max) == want


def test_lists_too_short_for_node_n_minus_1():
    # the writers read nodes 0..n-1; a list that ends before node n - 1
    # is an IndexError, as in the one-loop writers, unless an earlier
    # index breaks duality
    a = ValueArray(FIGURE_VALUES)
    deg_min, code_min, deg_max, code_max = scan_heaps(a)
    for short in ((deg_min[:6], code_min, deg_max[:6], code_max),
                  (deg_min, code_min[:6], deg_max, code_max),
                  (deg_min, code_min, deg_max, code_max[:8])):
        got = assert_same(a.n, *short)
        assert got[0] == "IndexError"
