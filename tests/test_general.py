import gc
import itertools
import math
import sys
import tracemalloc

import pytest

from nlvcodec import (CorruptionError, GeneralEncoding, RangeError,
                      ValueArray, check_subset_coding_inequality, container,
                      decode_general, deserialize, encode_general, general,
                      serialize, subset_rank_width)
from nlvcodec.arrays import ORACLES, QUERY_KINDS, RunStructure
from nlvcodec.general import LOG2_13

from conftest import make_rng, monotone_runs_array

LOG2_3 = math.log2(3)


def assert_queries_match(a):
    qs = decode_general(encode_general(a))
    for kind in QUERY_KINDS:
        for i in range(1, a.n + 1):
            assert qs.query(kind, i) == ORACLES[kind](a, i), \
                (list(a.values), kind, i)


class TestEncode:
    def test_run_example(self):
        enc = encode_general(ValueArray([2, 1, 1, 3]))
        assert enc.k == 1
        assert enc.colored.n == 3

    def test_distinct_values(self):
        enc = encode_general(ValueArray([4, 2, 9, 1]))
        assert enc.k == 0
        assert len(enc.c_rank_bits) == 0

    def test_constant_array(self):
        enc = encode_general(ValueArray([7, 7, 7]))
        assert enc.k == 2
        assert enc.colored.n == 1
        assert enc.colored.payload_bits() == 2

    def test_deterministic(self):
        a = ValueArray([5, 5, 2, 8, 8, 8, 1])
        assert encode_general(a) == encode_general(a)

    def test_rank_width_once_per_encode_and_load(self, monkeypatch):
        calls = []

        def counted(length, k):
            calls.append((length, k))
            return subset_rank_width(length, k)
        monkeypatch.setattr(general, "subset_rank_width", counted)
        monkeypatch.setattr(container, "subset_rank_width", counted)
        a = ValueArray([5, 5, 2, 8, 8, 8, 1, 1])
        data = serialize(encode_general(a))
        assert calls == [(7, 4)]
        decode_general(deserialize(data))
        assert calls == [(7, 4), (7, 4)]

    def test_run_maps_built_only_by_decode_and_once(self, monkeypatch):
        builds = []
        set_run_starts = RunStructure._set_run_starts

        def counted_starts(rs, positions):
            builds.append("run_starts")
            set_run_starts(rs, positions)

        def counted_rank_map(rs, build=RunStructure.rank_map.fget):
            if rs._rank_map is None:
                builds.append("rank_map")
            return build(rs)
        monkeypatch.setattr(RunStructure, "_set_run_starts", counted_starts)
        monkeypatch.setattr(RunStructure, "rank_map", property(counted_rank_map))
        enc = encode_general(ValueArray([5, 5, 2, 8, 8, 8, 1, 1]))
        assert builds == []
        decode_general(enc)
        assert sorted(builds) == ["rank_map", "run_starts"]

    def test_constructor_checks_rank_width(self):
        enc = encode_general(ValueArray([5, 5, 2, 8, 8, 8, 1, 1]))
        with pytest.raises(CorruptionError):
            GeneralEncoding(enc.n, enc.k, "1", enc.colored)

    def test_constructor_checks_rank_bits(self):
        enc = encode_general(ValueArray([5, 5, 2, 8, 8, 8, 1, 1]))
        bits = enc.c_rank_bits
        with pytest.raises(ValueError):
            GeneralEncoding(enc.n, enc.k, "2" + bits[1:], enc.colored)


class TestDecodeAndQuery:
    def test_run_example_queries(self):
        assert_queries_match(ValueArray([2, 1, 1, 3]))

    def test_constant_array_queries(self):
        a = ValueArray([7, 7, 7])
        qs = decode_general(encode_general(a))
        for i in range(1, 4):
            assert qs.psv(i) == 0 and qs.plv(i) == 0
            assert qs.nsv(i) == 4 and qs.nlv(i) == 4

    def test_range_error(self):
        qs = decode_general(encode_general(ValueArray([1, 2])))
        with pytest.raises(RangeError):
            qs.query("psv", 0)
        with pytest.raises(RangeError):
            qs.query("nsv", 3)

    def test_exhaustive_equivalence(self):
        for n in range(1, 6):
            for values in itertools.product(range(1, 4), repeat=n):
                assert_queries_match(ValueArray(values))

    def test_randomized(self):
        rng = make_rng(51)
        for _ in range(60):
            n = rng.randint(1, 150)
            values = [rng.randint(1, rng.choice([2, 5, 100])) for _ in range(n)]
            assert_queries_match(ValueArray(values))


class TestDecodedMemory:
    """Decoding translates each reduced table to original indices before
    it grows to n entries, so the reduced answers' ints are gone by then,
    and the lifted tables share the run maps' ints."""

    n = 5000

    @pytest.fixture(params=["monotone", "bits"])
    def encoding(self, request):
        if request.param == "monotone":
            a = monotone_runs_array(make_rng(61), self.n)
        else:
            rng = make_rng(62)
            a = ValueArray([rng.getrandbits(1) for _ in range(self.n)])
        return encode_general(a)

    def held_bound(self, qs):
        # four (n+1)-entry lists, plus one int per distinct answer value
        n = self.n
        values = {v for table in qs.tables.values() for v in table[1:]}
        return 1.2 * (4 * sys.getsizeof([0] * (n + 1))
                      + len(values) * sys.getsizeof(n))

    def traced_decode(self, enc):
        gc.collect()
        tracemalloc.start()
        try:
            qs = decode_general(enc)
            peak = tracemalloc.get_traced_memory()[1]
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return qs, held, peak

    def test_decode_holds_four_lists_and_their_values(self, encoding):
        qs, held, _ = self.traced_decode(encoding)
        assert held <= self.held_bound(qs), (held, self.held_bound(qs))

    def test_decode_peaks_near_what_it_holds(self, encoding):
        # beside the held tables, the reduced tables and their ints stay
        # alive until the last is translated: the peak is 1.30 and 1.66
        # held bounds on fair-coin bits and the monotone family; a lift
        # through an n-entry rank tuple, with the reduced ints alive,
        # peaks at 1.78 and 2.57
        qs, held, peak = self.traced_decode(encoding)
        bound = 1.75 * self.held_bound(qs)
        assert peak <= bound, (peak, bound, held)

    def test_runs_of_one_share_their_start(self, encoding):
        rs = general.decode_runs(encoding)
        kept, starts = rs.kept_positions, rs.run_starts
        ends = (0,) + kept
        for r, end in enumerate(kept):
            if end - ends[r] == 1:
                assert starts[r] is end
            else:
                assert starts[r] == ends[r] + 1


class TestSizeBound:
    def test_randomized_distributions(self):
        rng = make_rng(52)
        for dist_hi in (1, 2, 5, 10**6):
            for _ in range(20):
                n = rng.randint(1, 400)
                a = ValueArray([rng.randint(1, dist_hi) for _ in range(n)])
                enc = encode_general(a)
                assert enc.payload_bits() <= enc.payload_bound(n)


class TestSubsetCodingInequality:
    def test_reference_point(self):
        # c = 2 + log2(3): lhs at k=0 is 100c = 358.50, rhs = 100 log2(13)
        c = 2 + LOG2_3
        assert abs(c * 100 - 358.50) < 0.01
        assert abs(math.log2(13) * 100 - 370.04) < 0.01
        assert check_subset_coding_inequality(c, 100, 0)

    def test_k_equals_n(self):
        assert check_subset_coding_inequality(0.5, 40, 40)
        assert check_subset_coding_inequality(5.0, 40, 40)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            check_subset_coding_inequality(2.0, 10, 11)
        with pytest.raises(ValueError):
            check_subset_coding_inequality(-1.0, 10, 0)

    def test_two_to_c_plus_one_is_13(self):
        assert abs(2 ** (2 + LOG2_3) + 1 - 13) < 1e-9

    def test_spot_sweep(self):
        c = 2 + LOG2_3
        for n in (1, 2, 17, 100, 500):
            for k in range(n + 1):
                assert check_subset_coding_inequality(c, n, k)
