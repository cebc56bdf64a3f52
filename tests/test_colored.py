import gc
import itertools
import sys
import tracemalloc
import types

import pytest

from nlvcodec import (ColoredEncoding, CorruptionError, PreconditionError,
                      ValueArray, encode)
from nlvcodec.arrays import ORACLES, compute_runs, reduced_array
from nlvcodec.bitio import trit_pack_bits
from nlvcodec.cli import main
from nlvcodec.colored import (classify_index, count_good_bad, decode_colored,
                              encode_colored)
from nlvcodec.general import encode_general
from nlvcodec.joint import decode_heaps, encode_joint
from nlvcodec.queries import TREE_QUERIES
from nlvcodec.trees import (SIB_BLUE, SIB_NONE, SIB_RED, ColoredTree,
                            build_max_heap, build_min_heap,
                            check_leaf_internal_duality, check_red_leaf_rule,
                            colorize, scan_heaps)
import nlvcodec.colored as colored_module
import nlvcodec.trees as trees_module

from conftest import (make_rng, outcome, random_no_equal_neighbours, scan_arrays,
                      stack_answers)


def colored_pair(a):
    return (colorize(build_min_heap(a), a), colorize(build_max_heap(a), a))


class TestClassify:
    def test_figure_classes(self, figure_array):
        min_t = build_min_heap(figure_array)
        max_t = build_max_heap(figure_array)
        classes = {i: classify_index(min_t, max_t, i) for i in range(1, 9)}
        assert [i for i, c in classes.items() if c == "good"] == [6, 7]
        assert [i for i, c in classes.items() if c == "bad"] == [1, 2]
        assert [i for i, c in classes.items() if c == "neutral"] == [3, 4, 5, 8]

    def test_range(self, figure_array):
        min_t = build_min_heap(figure_array)
        max_t = build_max_heap(figure_array)
        with pytest.raises(ValueError):
            classify_index(min_t, max_t, 0)
        with pytest.raises(ValueError):
            classify_index(min_t, max_t, 9)


class TestCountGoodBad:
    def test_figure(self, figure_array):
        min_t = build_min_heap(figure_array)
        max_t = build_max_heap(figure_array)
        assert count_good_bad(min_t, max_t) == (2, 2)

    def test_singleton(self):
        a = ValueArray([5])
        assert count_good_bad(build_min_heap(a), build_max_heap(a)) == (0, 0)

    def test_good_equals_bad_random(self):
        rng = make_rng(41)
        for _ in range(300):
            a = random_no_equal_neighbours(rng, rng.randint(1, 150), hi=20)
            g, b = count_good_bad(build_min_heap(a), build_max_heap(a))
            assert g == b, list(a.values)


class TestEncode:
    def test_figure_strings(self, figure_array):
        enc = encode_colored(*colored_pair(figure_array))
        assert enc.u_gb == "0100"
        assert enc.v_bad == "10"
        assert enc.v_neutral == "2022"
        assert enc.g == 2
        assert enc.payload_bits() == 9 + 9 + 4 + 2 + 7 == 31

    def test_singleton(self):
        enc = encode_colored(*colored_pair(ValueArray([5])))
        assert enc.u_gb == "" and enc.v_bad == ""
        assert enc.v_neutral == ""
        assert enc.t_min == "0" and enc.t_max == "0"
        assert enc.payload_bits() == 2

    def test_precondition(self):
        a = ValueArray([3, 3])
        with pytest.raises(PreconditionError):
            encode_colored(*colored_pair(a))

    def test_string_length_invariants(self):
        rng = make_rng(42)
        for _ in range(100):
            a = random_no_equal_neighbours(rng, rng.randint(1, 120))
            enc = encode_colored(*colored_pair(a))
            assert len(enc.u_gb) == 2 * enc.g
            assert len(enc.v_bad) == enc.g
            assert len(enc.v_neutral) == a.n - 1 - 2 * enc.g
            assert len(enc.t_min) + len(enc.t_max) == 2 * a.n


class TestEncodeErrors:
    """The duality and red-leaf checks of the encoders must fail exactly
    where the reference checks do."""

    @staticmethod
    def arrays():
        for n in range(1, 8):
            yield from map(ValueArray, itertools.product(range(3), repeat=n))
        rng = make_rng(23)
        for _ in range(200):
            n = rng.randint(2, 300)
            yield ValueArray([rng.randint(0, rng.choice((2, 3, 1000)))
                              for _ in range(n)])

    def test_precondition_iff_consecutive_equal(self):
        for a in self.arrays():
            bad = a.has_consecutive_equal()
            for scheme in ("joint", "colored"):
                if bad is None:
                    encode(a, scheme)
                    continue
                with pytest.raises(PreconditionError) as exc:
                    encode(a, scheme)
                assert exc.value.index == bad, (list(a.values), scheme)

    def test_duality_failure_on_heaps_of_two_arrays(self):
        # an index may then be internal in both heaps, not only a leaf in
        # both; the encoder fails where the reference check does
        rng = make_rng(25)
        failures = 0
        for _ in range(300):
            n = rng.randint(2, 40)
            min_t = build_min_heap(random_no_equal_neighbours(rng, n, hi=6))
            max_t = build_max_heap(random_no_equal_neighbours(rng, n, hi=6))
            bad = check_leaf_internal_duality(min_t, max_t)
            if bad is None:
                encode_joint(min_t, max_t)
                continue
            failures += 1
            with pytest.raises(PreconditionError) as exc:
                encode_joint(min_t, max_t)
            assert exc.value.index == bad
        assert failures > 200

    def test_blue_leaf_with_right_sibling_rejected(self):
        rng = make_rng(24)
        flips = 0
        for _ in range(20):
            a = random_no_equal_neighbours(rng, rng.randint(2, 60), hi=5)
            cmin, cmax = colored_pair(a)
            for side in (0, 1):
                t = (cmin, cmax)[side]
                for i in range(1, a.n + 1):
                    if t.degrees[i] or not t.right_sib[i]:
                        continue
                    codes = bytearray((cmin, cmax)[side].codes)
                    codes[i] = SIB_BLUE
                    flipped = ColoredTree.from_codes(t, codes)
                    assert not check_red_leaf_rule(flipped)
                    pair = [cmin, cmax]
                    pair[side] = flipped
                    with pytest.raises(PreconditionError) as exc:
                        encode_colored(*pair)
                    assert exc.value.index == i
                    flips += 1
        assert flips > 100

    def test_red_leaf_error_names_its_index(self, figure_array):
        # the figure's leaves with a right sibling, all red: 2, 5 and 8 in
        # the min heap, 1 and 3 in the max heap
        cmin, cmax = colored_pair(figure_array)
        for side, i in ((0, 2), (0, 5), (0, 8), (1, 1), (1, 3)):
            pair = [cmin, cmax]
            codes = bytearray(pair[side].codes)
            assert codes[i] == SIB_RED
            codes[i] = SIB_BLUE
            pair[side] = ColoredTree.from_codes(pair[side], codes)
            with pytest.raises(PreconditionError,
                               match="^blue leaf with right sibling") as exc:
                encode_colored(*pair)
            assert exc.value.index == i


class TestArrayPath:
    """``encode(a, "colored")`` and ``encode_general`` scan the array and
    build no tree; they must give what the tree path gives, errors
    included."""

    def test_colored_equals_tree_path(self):
        errors = 0
        for name, a in scan_arrays():
            got = outcome(encode, a, "colored")
            assert got == outcome(lambda: encode_colored(*colored_pair(a))), name
            bad = a.has_consecutive_equal()
            if bad is not None:
                errors += 1
                assert got == ("PreconditionError",
                               "no consecutive equal elements allowed; "
                               "A[%d] == A[%d]" % (bad, bad + 1), bad), name
        assert 100 < errors < 300

    def test_general_colored_part_equals_tree_path(self):
        for name, a in scan_arrays():
            reduced = reduced_array(a, compute_runs(a))
            assert (encode_general(a).colored
                    == encode_colored(*colored_pair(reduced))), name

    def test_encode_builds_no_tree(self, figure_array, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("tree built while encoding an array")
        # every way a tree is made
        for cls, names in ((trees_module.OrdinalTree, ("__init__",)),
                           (ColoredTree, ("__init__", "from_codes", "from_decoded"))):
            for name in names:
                monkeypatch.setattr(cls, name, refuse)
        src = tmp_path / "a.txt"
        for values in (figure_array.values, (2, 2, 1, 1, 3, 1, 3, 3)):
            a = ValueArray(values)
            schemes = ["general"]
            if a.has_consecutive_equal() is None:
                schemes += ["joint", "colored"]
            src.write_text(" ".join(map(str, values)))
            for scheme in schemes:
                assert encode(a, scheme).n == a.n
                assert main(["encode", "--scheme", scheme, "--in", str(src),
                             "--out", str(tmp_path / "a.nlve")]) == 0
        with pytest.raises(AssertionError, match="tree built"):
            build_min_heap(figure_array)

    @staticmethod
    def run_arrays():
        """Seeded arrays in runs of equal values up to four long."""
        rng = make_rng(54)
        for k in range(200):
            alphabet = 2 + k % 3
            values = [rng.randint(1, alphabet) for _ in range(rng.randint(1, 20))]
            yield "runs over %d values, #%d" % (alphabet, k), ValueArray(
                [v for v in values for _ in range(rng.randint(1, 4))])

    def test_sibling_codes_match_built_trees(self):
        # scan_heaps runs both heaps in one pass; an equal pair pops both
        # stacks in one step
        both_pop = 0
        for name, a in itertools.chain(scan_arrays(), self.run_arrays()):
            both_pop += sum(map(int.__eq__, a.values, a.values[1:]))
            deg_min, code_min, deg_max, code_max = scan_heaps(a)
            for tree, degrees, codes, kind in (
                    (build_min_heap(a), deg_min, code_min, "nsv"),
                    (build_max_heap(a), deg_max, code_max, "nlv")):
                assert degrees == tree.degrees, name
                right_sib = tree.right_sib
                expected = bytearray(
                    SIB_NONE if not j else SIB_RED if a[i] != a[j] else SIB_BLUE
                    for i, j in enumerate(right_sib[1:], 1))
                assert codes == bytearray(1) + expected, name
                ct = colorize(tree, a)
                assert ct.codes == codes, name
                # the decoded form derives the same codes from the parents
                # and the next-value answers
                dec = ColoredTree.from_decoded(
                    tree.parent, [a.n + 1, *stack_answers(a, kind)])
                assert dec.codes == codes, name
                assert dec == ct, name
        assert both_pop > 1000


class TestDecode:
    def test_figure_round_trip(self, figure_array):
        cmin, cmax = colored_pair(figure_array)
        dmin, dmax = decode_colored(encode_colored(cmin, cmax))
        assert dmin == cmin and dmax == cmax
        # colorize's trees hold colors only, in the form decoded trees derive
        for built, dec in ((cmin, dmin), (cmax, dmax)):
            assert not hasattr(built, "next_value")
            assert type(built.codes) is type(dec.codes) is bytearray
        assert {i for i in range(1, 10) if dmin.codes[i] == SIB_RED} == {2, 5, 8}
        assert {i for i in range(1, 10) if dmax.codes[i] == SIB_RED} == {1, 2, 3, 4}

    def test_singleton(self):
        enc = ColoredEncoding(1, "0", "0", "", "", "")
        dmin, dmax = decode_colored(enc)
        assert dmin.parent == [None, 0]
        assert dmin.codes[1] == dmax.codes[1] == SIB_NONE

    def test_exhaustive_round_trip_and_queries(self):
        for n in range(1, 7):
            for values in itertools.product(range(1, 4), repeat=n):
                a = ValueArray(values)
                if a.has_consecutive_equal() is not None:
                    continue
                cmin, cmax = colored_pair(a)
                enc = encode_colored(cmin, cmax)
                dmin, dmax = decode_colored(enc)
                assert dmin == cmin and dmax == cmax, values
                assert encode_colored(dmin, dmax) == enc, values
                for kind in ("psv", "nsv", "plv", "nlv"):
                    tree = dmin if kind in ("psv", "nsv") else dmax
                    for i in range(1, n + 1):
                        assert (TREE_QUERIES[kind](tree, i)
                                == ORACLES[kind](a, i)), (values, kind, i)

    def test_random_round_trips(self):
        rng = make_rng(43)
        for _ in range(100):
            a = random_no_equal_neighbours(rng, rng.randint(1, 300), hi=1000)
            cmin, cmax = colored_pair(a)
            enc = encode_colored(cmin, cmax)
            dmin, dmax = decode_colored(enc)
            assert dmin == cmin and dmax == cmax

    def test_bit_segments_must_be_bits(self, figure_array):
        enc = encode_colored(*colored_pair(figure_array))
        fields = {"t_min": enc.t_min, "t_max": enc.t_max, "u_gb": enc.u_gb,
                  "v_bad": enc.v_bad}
        for name, bits in fields.items():
            args = dict(fields, **{name: "2" + bits[1:]})
            with pytest.raises(ValueError):
                ColoredEncoding(enc.n, v_neutral=enc.v_neutral, **args)

    def test_invalid_trit(self):
        enc = encode_colored(*colored_pair(ValueArray([3, 8, 5])))
        assert len(enc.v_neutral) == 2
        fields = {name: getattr(enc, name) for name in ColoredEncoding.__slots__}
        broken = types.SimpleNamespace(**dict(fields, v_neutral="9" + enc.v_neutral[1:]))
        with pytest.raises(CorruptionError):
            decode_colored(broken)

    @pytest.mark.parametrize("v_neutral, offset", [("92", 0), ("2x", 1), ("2\n", 1),
                                                   ("0-", 1), ("2\u00e9", 1),
                                                   ("22x", 2)])
    def test_constructor_checks_trits(self, v_neutral, offset):
        # a bad trit is a corruption named at its position, found before
        # the length check ("22x" is one character too long), so no
        # encoding holds one for serialize to meet
        enc = encode_colored(*colored_pair(ValueArray([3, 8, 5])))
        with pytest.raises(CorruptionError, match="^invalid trit ") as exc:
            ColoredEncoding(enc.n, enc.t_min, enc.t_max, enc.u_gb, enc.v_bad,
                            v_neutral)
        assert (exc.value.segment, exc.value.offset) == ("v_neutral", offset)

    @pytest.mark.parametrize("v_neutral", [None, 22, ["2", "2"], b"22"])
    def test_constructor_rejects_non_str_trits(self, v_neutral):
        enc = encode_colored(*colored_pair(ValueArray([3, 8, 5])))
        with pytest.raises(ValueError, match="^v_neutral must be a str") as exc:
            ColoredEncoding(enc.n, enc.t_min, enc.t_max, enc.u_gb, enc.v_bad,
                            v_neutral)
        assert not isinstance(exc.value, CorruptionError)

    def test_side_strings_exhausted_or_trailing(self, figure_array):
        # the degree streams of the figure array (g = 2) with the side
        # strings of another array of n = 9 and a different g: the
        # constructor's length checks pass, and the shape pass runs out of
        # trits (g = 3) or of u_gb bits (g = 1)
        fig = encode_colored(*colored_pair(figure_array))
        cases = {(1, 2, 4, 6, 5, 3, 8, 7, 9): "string v_neutral exhausted",
                 (1, 2, 3, 4, 5, 6, 8, 7, 9): "bitstream truncated"}
        for values, message in cases.items():
            other = encode_colored(*colored_pair(ValueArray(values)))
            assert other.n == fig.n and other.g != fig.g
            spliced = ColoredEncoding(fig.n, fig.t_min, fig.t_max, other.u_gb,
                                      other.v_bad, other.v_neutral)
            with pytest.raises(CorruptionError, match=message):
                decode_colored(spliced)

    def test_side_string_errors_name_segment_and_offset(self, figure_array):
        # the figure has u_gb "0100", v_bad "10" and v_neutral "2022"; a
        # string that runs out is named at its length, a bad trit at its
        # position, leftovers at the first unread character of the first
        # string that has any
        enc = encode_colored(*colored_pair(figure_array))
        fields = {name: getattr(enc, name) for name in ColoredEncoding.__slots__}
        truncated = "^bitstream truncated: read past end$"
        unconsumed = "^unconsumed side-string characters$"
        cases = [({"u_gb": "0"}, truncated, "u_gb", 1),
                 ({"v_bad": "1"}, truncated, "v_bad", 1),
                 ({"v_neutral": "202"}, "^string v_neutral exhausted$",
                  "v_neutral", 3),
                 ({"v_neutral": "2092"}, "^invalid trit '9' in v_neutral$",
                  "v_neutral", 2),
                 ({"v_neutral": "2022x0"}, "^invalid trit 'x' in v_neutral$",
                  "v_neutral", 4),
                 ({"u_gb": "010011"}, unconsumed, "u_gb", 4),
                 ({"v_bad": "100"}, unconsumed, "v_bad", 2),
                 ({"v_neutral": "20221"}, unconsumed, "v_neutral", 4),
                 ({"u_gb": "010011", "v_bad": "100"}, unconsumed, "u_gb", 4)]
        for changes, message, segment, offset in cases:
            loose = types.SimpleNamespace(**dict(fields, **changes))
            with pytest.raises(CorruptionError, match=message) as exc:
                decode_colored(loose)
            assert (exc.value.segment, exc.value.offset) == (segment, offset), changes

    def test_trailing_side_strings_guard(self, figure_array):
        # a decoded heap pair has as many good as bad indices, so side
        # strings of the lengths the constructor checks are never left
        # over; an object that skipped the constructor still is rejected
        enc = encode_colored(*colored_pair(figure_array))
        fields = {name: getattr(enc, name) for name in ColoredEncoding.__slots__}
        for name, extra in (("v_neutral", "0"), ("v_bad", "0"), ("u_gb", "00")):
            loose = types.SimpleNamespace(**dict(fields, **{name: fields[name] + extra}))
            with pytest.raises(CorruptionError, match="unconsumed side-string"):
                decode_colored(loose)

    def test_invalid_trit_rejected_before_degree_bits(self, monkeypatch):
        # the shape pass, which reads every degree bit, never starts
        def refuse(*args, **kwargs):
            raise AssertionError("shape pass started before the trit check")
        monkeypatch.setattr(colored_module, "decode_heaps", refuse)
        enc = encode_colored(*colored_pair(ValueArray([3, 8, 5, 1, 4])))
        assert len(enc.v_neutral) >= 2
        fields = {name: getattr(enc, name) for name in ColoredEncoding.__slots__}
        for bad in ("9" + enc.v_neutral[1:], enc.v_neutral[:-1] + "3"):
            broken = types.SimpleNamespace(**dict(fields, v_neutral=bad))
            with pytest.raises(CorruptionError, match="invalid trit '[93]'"):
                decode_colored(broken)

    def test_decode_twice(self, figure_array):
        cmin, cmax = colored_pair(figure_array)
        enc = encode_colored(cmin, cmax)
        assert decode_colored(enc) == decode_colored(enc) == (cmin, cmax)


def refuse_tables(monkeypatch, message):
    def refuse(*args):
        raise AssertionError(message)
    monkeypatch.setattr(trees_module, "_next_value_table", refuse)
    monkeypatch.setattr(colored_module, "_next_value_table", refuse)


class TestNextValueTables:
    """The encoders read only the colors, so only decoding builds the
    next-value tables, and it builds them before the first query."""

    def test_encode_builds_no_table(self, figure_array, monkeypatch):
        refuse_tables(monkeypatch, "next-value table built while encoding")
        enc = encode_colored(*colored_pair(figure_array))
        assert enc.n == figure_array.n

    def test_decode_builds_tables_during_setup(self, figure_array, monkeypatch):
        enc = encode_colored(*colored_pair(figure_array))
        dmin, dmax = decode_colored(enc)
        refuse_tables(monkeypatch, "next-value table built on first query")
        for kind, tree in (("nsv", dmin), ("nlv", dmax)):
            for i in range(1, figure_array.n + 1):
                assert TREE_QUERIES[kind](tree, i) == ORACLES[kind](figure_array, i)


class TestDecodedMemory:
    """A decoded tree keeps only its parent and next-value lists; every
    other table is derived when read.  Decoding needs little beside
    them: its scratch is O(open nodes) and each next-value table is
    written over the decoded siblings it replaces."""

    n = 5000

    def encoded_permutation(self):
        values = list(range(1, self.n + 1))
        make_rng(3).shuffle(values)
        return values, encode_colored(*colored_pair(ValueArray(values)))

    def held_bound(self):
        # four n-entry lists, plus one int object per node shared by them
        n = self.n
        return 1.2 * (4 * sys.getsizeof([0] * (n + 1)) + n * sys.getsizeof(n))

    def traced_decode(self, enc):
        gc.collect()
        tracemalloc.start()
        try:
            pair = decode_colored(enc)
            peak = tracemalloc.get_traced_memory()[1]
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return pair, held, peak

    def test_decoded_pair_holds_two_lists_per_heap(self):
        values, enc = self.encoded_permutation()
        pair, held, _ = self.traced_decode(enc)
        assert held <= self.held_bound(), (held, self.held_bound())
        assert pair == colored_pair(ValueArray(values))

    def test_decode_peaks_near_what_it_holds(self):
        # beside the held tables, no scratch is n-sized: a permutation
        # has no blue node with a right sibling, so the blue lists stay
        # empty, and no color array is built; the open-node stacks stay
        # well below one n-byte array
        _, enc = self.encoded_permutation()
        _, held, peak = self.traced_decode(enc)
        bound = sys.getsizeof(bytearray(self.n + 1))
        assert peak - held < bound, (peak, held, bound)

    def test_next_value_is_the_decoded_sibling_list(self, monkeypatch):
        returned = []

        def recording(*args, **kwargs):
            heaps = decode_heaps(*args, **kwargs)
            returned.extend(sib for _, sib, _ in heaps)
            return heaps
        monkeypatch.setattr(colored_module, "decode_heaps", recording)
        _, enc = self.encoded_permutation()
        pair = decode_colored(enc)
        assert len(returned) == len(pair) == 2
        for ct, sib in zip(pair, returned):
            assert ct.next_value is sib


class TestSizeAccounting:
    def test_figure(self, figure_array):
        enc = encode_colored(*colored_pair(figure_array))
        assert enc.payload_bits() == 31 == ColoredEncoding.payload_bound(9)

    def test_singleton(self):
        enc = encode_colored(*colored_pair(ValueArray([5])))
        assert enc.payload_bits() == 2 == ColoredEncoding.payload_bound(1)

    def test_matches_measured_payload(self):
        # 2n degree bits, 3g good/bad bits, the m = n-1-2g packed trits
        rng = make_rng(44)
        for _ in range(50):
            a = random_no_equal_neighbours(rng, rng.randint(1, 200))
            enc = encode_colored(*colored_pair(a))
            m = len(enc.v_neutral)
            assert m == a.n - 1 - 2 * enc.g
            assert enc.payload_bits() == 2 * a.n + 3 * enc.g + trit_pack_bits(m)
