import itertools
import re

import pytest

from nlvcodec import (EmptyArrayError, ParseError, RangeError, ValueArray,
                      parse_array_text)
from nlvcodec.arrays import (ORACLES, QUERY_KINDS, compute_runs, equal_pairs,
                             format_array_text, kept_flags, kept_positions,
                             map_answer_to_original, map_query_index,
                             oracle_nlv, oracle_nsv, oracle_plv, oracle_psv,
                             reduced_array)

from conftest import make_rng


class TestValueArray:
    def test_one_based_indexing(self):
        a = ValueArray([10, 20])
        assert a[1] == 10 and a[2] == 20

    def test_empty_rejected(self):
        with pytest.raises(EmptyArrayError):
            ValueArray([])

    def test_out_of_range(self):
        a = ValueArray([1])
        with pytest.raises(RangeError):
            a[0]
        with pytest.raises(RangeError):
            a[2]

    def test_int64_bounds(self):
        ValueArray([-(1 << 63), (1 << 63) - 1])
        with pytest.raises(ValueError):
            ValueArray([1 << 63])

    def test_consecutive_equal_detection(self):
        assert ValueArray([1, 2, 3]).has_consecutive_equal() is None
        assert ValueArray([1, 2, 2, 3]).has_consecutive_equal() == 2

    def test_non_integral_values_rejected(self):
        for bad in (1.5, "3"):
            with pytest.raises(ValueError):
                ValueArray([1, bad])


class TestParsing:
    def test_lines_and_whitespace(self):
        assert parse_array_text("1\n2\n3\n").values == (1, 2, 3)
        assert parse_array_text("  1 -2\t3 ").values == (1, -2, 3)

    def test_strict(self):
        with pytest.raises(ParseError):
            parse_array_text("1 two 3")
        with pytest.raises(ParseError):
            parse_array_text("")
        with pytest.raises(ParseError):
            parse_array_text("1.5")

    def test_first_bad_token_named_deep_in_input(self):
        tokens = [str(i) for i in range(20_000)]
        tokens[15_000] = "1.5"
        tokens[17_000] = "x"
        with pytest.raises(ParseError, match=r"^not an integer: '1\.5'$"):
            parse_array_text(" ".join(tokens))

    def test_first_out_of_range_value_named_deep_in_input(self):
        values = list(range(20_000))
        values[12_000] = -(1 << 63) - 1
        values[16_000] = 1 << 63
        with pytest.raises(ParseError, match=r"^value %d outside signed 64-bit range$"
                           % (-(1 << 63) - 1)):
            parse_array_text(" ".join(map(str, values)))
        values[12_000] = 0
        with pytest.raises(ParseError, match=r"^value %d outside signed 64-bit range$"
                           % (1 << 63)):
            parse_array_text(" ".join(map(str, values)))

    def test_only_ascii_digits_between_ascii_whitespace(self):
        # int() takes each of these tokens, or str.split() splits them
        for text, token in (("1 1_000 2", "1_000"),
                            ("3 \uff11\uff12", "\uff11\uff12"),
                            ("\u0663 4", "\u0663"),
                            ("1\u00a02 3", "1\u00a02"),
                            ("5\x1c6", "5\x1c6"),
                            ("7 +", "+")):
            with pytest.raises(ParseError,
                               match="^not an integer: %s$" % re.escape(repr(token))):
                parse_array_text(text)
        assert parse_array_text("+5 -3 007\v\f8\r\n").values == (5, -3, 7, 8)

    def test_tokens_longer_than_int_reads(self):
        # int() refuses more than 4 300 digits, leading zeros included: a
        # zero-padded value still parses, and a value of more digits than
        # int() reads is out of range, not a bad token
        assert parse_array_text("0" * 5000 + "1 -" + "0" * 5000 + "7 +0").values \
            == (1, -7, 0)
        with pytest.raises(ParseError,
                           match=r"^value of 5000 digits outside signed 64-bit range$"):
            parse_array_text("1 " + "9" * 5000)

    def test_first_bad_token_in_text_order(self):
        # the token path names the first bad token, whichever its kind;
        # the fast path (ASCII, no "_") names the first value out of range
        big = "99999999999999999999"
        for text, message in (
                (big + " " + "9" * 5000, "value %s outside signed 64-bit range" % big),
                (big + " x", "value %s outside signed 64-bit range" % big),
                (big + " 1_0", "value %s outside signed 64-bit range" % big),
                ("9" * 5000 + " " + big, "value of 5000 digits outside signed 64-bit range"),
                ("1 x " + big, "not an integer: 'x'"),
                ("1_0 " + "9" * 5000, "not an integer: '1_0'"),
                ("-" + big + " ٣", "value -%s outside signed 64-bit range" % big)):
            with pytest.raises(ParseError, match="^%s$" % re.escape(message)):
                parse_array_text(text)
        # the fast path's messages, pinned as they are
        for text, message in (
                ("1 %s -%s" % (big, big), "value %s outside signed 64-bit range" % big),
                ("1 -%s %s" % (big, big), "value -%s outside signed 64-bit range" % big),
                ("\n \t", "no integers found in input")):
            with pytest.raises(ParseError, match="^%s$" % re.escape(message)):
                parse_array_text(text)

    def test_format_round_trip(self):
        a = ValueArray([5, -1, 0])
        assert parse_array_text(format_array_text(a)) == a


class TestOracles:
    def test_psv_figure(self, figure_array):
        assert oracle_psv(figure_array, 4) == 3

    def test_psv_singleton(self):
        assert oracle_psv(ValueArray([5]), 1) == 0

    def test_psv_no_smaller_prefix(self, figure_array):
        assert oracle_psv(figure_array, 5) == 0

    def test_plv_figure(self, figure_array):
        assert oracle_plv(figure_array, 4) == 2

    def test_nsv_figure(self, figure_array):
        assert oracle_nsv(figure_array, 1) == 6

    def test_nlv_sentinel(self, figure_array):
        assert oracle_nlv(figure_array, 8) == 10

    def test_out_of_range(self, figure_array):
        for oracle in ORACLES.values():
            with pytest.raises(RangeError):
                oracle(figure_array, 0)
            with pytest.raises(RangeError):
                oracle(figure_array, 10)

    def test_defining_formulas(self):
        # independent check straight off the max/min set definitions
        a = ValueArray([4, 1, 4, 2, 2, 9])
        for i in range(1, a.n + 1):
            smaller_before = [j for j in range(1, i) if a[j] < a[i]]
            larger_before = [j for j in range(1, i) if a[j] > a[i]]
            smaller_after = [j for j in range(i + 1, a.n + 1) if a[j] < a[i]]
            larger_after = [j for j in range(i + 1, a.n + 1) if a[j] > a[i]]
            assert oracle_psv(a, i) == max(smaller_before, default=0)
            assert oracle_plv(a, i) == max(larger_before, default=0)
            assert oracle_nsv(a, i) == min(smaller_after, default=a.n + 1)
            assert oracle_nlv(a, i) == min(larger_after, default=a.n + 1)


class TestRuns:
    def test_basic(self):
        a = ValueArray([2, 1, 1, 3])
        keep = compute_runs(a)
        assert keep == bytes([1, 0, 1])
        assert equal_pairs(keep) == [1]
        assert kept_positions(keep) == (1, 3, 4)
        assert reduced_array(a, keep) == ValueArray([2, 1, 3])

    def test_singleton(self):
        a = ValueArray([5])
        keep = compute_runs(a)
        assert keep == b""
        assert equal_pairs(keep) == []
        assert reduced_array(a, keep) == ValueArray([5])

    def test_single_run(self):
        a = ValueArray([7, 7, 7])
        keep = compute_runs(a)
        assert keep == bytes([0, 0])
        assert equal_pairs(keep) == [0, 1]
        assert reduced_array(a, keep) == ValueArray([7])

    def test_invariants(self):
        a = ValueArray([3, 3, 1, 2, 2, 2, 5])
        keep = compute_runs(a)
        k = len(equal_pairs(keep))
        assert len(kept_positions(keep)) == a.n - k
        assert list(kept_positions(keep)) == sorted(kept_positions(keep))
        assert kept_positions(keep)[-1] == a.n
        assert reduced_array(a, keep).has_consecutive_equal() is None

    def test_maps_match_a_scan_of_the_bits(self):
        # the equal pairs, kept positions and the two lifts against one
        # plain loop over the run bits; the decode's kept flags from the
        # equal pairs are the same flags
        rng = make_rng(12)
        for n in list(range(1, 12)) + [200, 1_000]:
            for density in (0.0, 0.5, 1 / 13, 1.0):
                c_bits = [int(rng.random() < density) for _ in range(n - 1)]
                keep = bytes(1 - c for c in c_bits)
                kept, starts, rank_map = [], [1], []
                for i in range(1, n + 1):
                    rank_map.append(len(kept) + 1)
                    if i == n or c_bits[i - 1] == 0:
                        kept.append(i)
                        starts.append(i + 1)
                assert kept_positions(keep) == tuple(kept)
                assert equal_pairs(keep) == [p for p in range(n - 1) if c_bits[p]]
                assert kept_flags(equal_pairs(keep), n) == keep
                # index i reads the entry of its run's reduced position
                r = len(kept)
                assert map_query_index(keep, list(range(r + 1))) == [0, *rank_map]
                # every reduced position, and the sentinels 0 and r + 1
                answers = [None, *range(r + 2)]
                for kind, targets in (("psv", kept), ("plv", kept),
                                      ("nsv", starts[:-1]), ("nlv", starts[:-1])):
                    assert map_answer_to_original(keep, answers, kind) == \
                        [None, 0, *targets, n + 1]


class TestIndexMaps:
    def test_map_query_index(self):
        # lifting the identity table of reduced positions gives each
        # original index the reduced position of its run
        keep = compute_runs(ValueArray([2, 1, 1, 3]))
        lifted = map_query_index(keep, [0, 1, 2, 3])
        assert len(lifted) == 5
        assert lifted[2] == 2
        assert lifted[1] == 1
        keep7 = compute_runs(ValueArray([7, 7, 7]))
        assert map_query_index(keep7, [0, 1])[1] == 1

    def test_map_answer_examples(self):
        keep = compute_runs(ValueArray([2, 1, 1, 3]))
        assert map_answer_to_original(keep, [None, 2], "nsv") == [None, 2]
        assert map_answer_to_original(keep, [None, 0, 2], "psv") == [None, 0, 3]

    def test_map_answer_sentinels(self):
        keep = compute_runs(ValueArray([7, 7, 7]))
        assert map_answer_to_original(keep, [None, 2], "nsv") == [None, 4]  # n'+1 -> n+1
        assert map_answer_to_original(keep, [None, 0], "plv") == [None, 0]

    def test_map_answer_invalid(self):
        keep = compute_runs(ValueArray([1, 2]))
        with pytest.raises(ValueError):
            map_answer_to_original(keep, [None, 1], "bogus")

    def test_psv_answers_are_run_ends(self):
        # the full-array oracle only ever lands on the last index of a run
        for values in itertools.product(range(1, 4), repeat=5):
            a = ValueArray(values)
            keep = compute_runs(a)
            for i in range(1, a.n + 1):
                for oracle in (oracle_psv, oracle_plv):
                    j = oracle(a, i)
                    if j:
                        assert j == a.n or keep[j - 1] == 1

    def test_reduction_round_trip_exhaustive(self):
        # oracle on A == unmap(oracle on A'(map(i))), all kinds, all i
        for n in range(1, 6):
            for values in itertools.product(range(1, 4), repeat=n):
                a = ValueArray(values)
                keep = compute_runs(a)
                reduced = reduced_array(a, keep)
                for kind in QUERY_KINDS:
                    oracle = ORACLES[kind]
                    answers = [None] + [oracle(reduced, j)
                                        for j in range(1, reduced.n + 1)]
                    lifted = map_query_index(
                        keep, map_answer_to_original(keep, answers, kind))
                    assert lifted[1:] == [oracle(a, i) for i in range(1, a.n + 1)], \
                        (values, kind)
