import itertools
import math

import pytest

from nlvcodec import (CorruptionError, GeneralEncoding, RangeError,
                      ValueArray, check_subset_coding_inequality, container,
                      decode_general, deserialize, encode_general, general,
                      serialize, subset_rank_width)
from nlvcodec.arrays import ORACLES, QUERY_KINDS, RunStructure
from nlvcodec.general import LOG2_13

from conftest import make_rng

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
        for name in ("run_starts", "rank_map"):
            def counted(rs, name=name, build=getattr(RunStructure, name).fget):
                if getattr(rs, "_" + name) is None:
                    builds.append(name)
                return build(rs)
            monkeypatch.setattr(RunStructure, name, property(counted))
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
