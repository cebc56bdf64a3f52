import gc
import itertools
import math
import sys
import tracemalloc

import pytest

from nlvcodec import (ColoredEncoding, CorruptionError, GeneralEncoding,
                      RangeError, ValueArray, deserialize, serialize)
from nlvcodec import arrays, colored, container, general
from nlvcodec.arrays import (ORACLES, QUERY_KINDS, map_answer_to_original,
                             map_query_index)
from nlvcodec.bitio import subset_rank_width
from nlvcodec.colored import decode_colored
from nlvcodec.general import (check_subset_coding_inequality, decode_general,
                              encode_general)
from nlvcodec.joint import decode_heaps
from nlvcodec.trees import ColoredTree, OrdinalTree

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

    def test_rank_width_twice_per_encode_and_load(self, monkeypatch):
        # the encoder sizes the rank bits and the load splits the payload
        # by the width; the constructor derives it once more to check the
        # segment, since it takes no width
        calls = []

        def counted(length, k):
            calls.append((length, k))
            return subset_rank_width(length, k)
        monkeypatch.setattr(general, "subset_rank_width", counted)
        monkeypatch.setattr(container, "subset_rank_width", counted)
        a = ValueArray([5, 5, 2, 8, 8, 8, 1, 1])
        data = serialize(encode_general(a))
        assert calls == [(7, 4)] * 2
        decode_general(deserialize(data))
        assert calls == [(7, 4)] * 4

    def test_no_run_map_and_no_reduced_decode(self, monkeypatch):
        # encode reads no run map; decode builds no tree, reduced or not,
        # nor lifts tables through the run maps, and neither scans the
        # runs of an array nor builds a reduced one
        reads = []

        def counted(keep):
            reads.append("kept_positions")
            return kept_positions(keep)

        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError("decode_general called " + name)
            return call
        kept_positions = arrays.kept_positions
        monkeypatch.setattr(arrays, "kept_positions", counted)
        for name in ("map_query_index", "map_answer_to_original"):
            monkeypatch.setattr(arrays, name, refuse(name))
        enc = encode_general(ValueArray([5, 5, 2, 8, 8, 8, 1, 1]))
        assert reads == []
        for name in ("compute_runs", "reduced_array"):
            for module in (arrays, general):
                monkeypatch.setattr(module, name, refuse(name))
        monkeypatch.setattr(colored, "decode_colored", refuse("decode_colored"))
        monkeypatch.setattr(ColoredTree, "from_decoded", refuse("from_decoded"))
        monkeypatch.setattr(OrdinalTree, "__init__", refuse("OrdinalTree"))
        qs = decode_general(enc)
        assert reads == []
        assert not hasattr(arrays, "lift_answers")
        assert [qs.nsv(i) for i in range(1, 9)] == [3, 3, 7, 7, 7, 7, 9, 9]

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

    @staticmethod
    def two_step_lift(enc):
        """The four tables lifted from the reduced array's: each answer
        translated to original coordinates, then each index reading its
        run's entry."""
        keep = general.decode_runs(enc)
        reduced = colored.decode_tables(enc.colored)
        return {kind: map_query_index(keep, map_answer_to_original(keep, table, kind))
                for kind, table in reduced.items()}

    def test_tables_equal_the_two_step_lift(self):
        cases = [
            [5],                                # n = 1
            [4, 2, 9, 1, 7],                    # k = 0
            [7, 7, 7, 7],                       # k = n - 1
            [3, 3, 1, 4, 2],                    # a run at index 1
            [3, 1, 4, 2, 2],                    # a run ending at n
            [2, 1, 1, 3, 5, 5, 4],              # runs of length 2
            [1, 1, 1, 2, 2, 2, 2, 0, 3, 3, 3],  # runs of 3 and more
        ]
        rng = make_rng(14)
        for n in list(range(1, 9)) + [200]:
            for p_equal in (0.0, 0.3, 0.7, 1.0):
                for alphabet in (2, 3, 1000):
                    values = [rng.randint(1, alphabet)]
                    while len(values) < n:
                        values.append(values[-1] if rng.random() < p_equal
                                      else rng.randint(1, alphabet))
                    cases.append(values)
        for values in cases:
            enc = encode_general(ValueArray(values))
            assert decode_general(enc).tables == self.two_step_lift(enc), values

    def test_shape_errors_name_the_reduced_node(self):
        # runs make node r's label the end of run r, not r; a corrupt
        # colored part must fail with the same message inside a general
        # container as on its own
        a = ValueArray([1, 1, 3, 2, 2, 2, 5, 4, 4, 6, 0, 8, 7, 7])
        enc = encode_general(a)
        c = enc.colored
        fields = {name: getattr(c, name)
                  for name in ("t_min", "t_max", "u_gb", "v_bad", "v_neutral")}
        messages = []
        for segment in ("t_min", "t_max"):
            bits = fields[segment]
            # a bit flipped, or two bits swapped, which keeps the number
            # of codes and leaves a node open at the end
            for j, l in itertools.combinations_with_replacement(range(len(bits)), 2):
                broken = list(bits)
                if j == l:
                    broken[j] = "10"[int(bits[j])]
                else:
                    broken[j], broken[l] = bits[l], bits[j]
                broken = "".join(broken)
                if broken == bits:
                    continue
                bad = ColoredEncoding(c.n, **dict(fields, **{segment: broken}))
                try:
                    decode_colored(bad)
                except CorruptionError as exc:
                    expected = str(exc)
                else:
                    continue
                with pytest.raises(CorruptionError) as info:
                    decode_general(GeneralEncoding(enc.n, enc.k, enc.c_rank_bits, bad))
                assert str(info.value) == expected
                messages.append(expected)
        assert any("no open node to attach node" in m for m in messages)
        # streams that total 2n bits leave no node open, so only the
        # shape loop itself, given shorter ones, reaches that error
        for labels in (None, [0, 0, 0, 3, 0, 0, 6]):
            with pytest.raises(CorruptionError,
                               match="^node 1 still expects 1 more children$"):
                decode_heaps(2, "10", "010", v_neutral="2", labels=labels)

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
    """Decoding writes the four tables in original coordinates, so they
    share the ints of the run ends that label the nodes, and no reduced
    table or rank map is ever built."""

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
        # the tables are written in original coordinates from the start,
        # so beside them the decode holds only the n-entry labels list,
        # which ends as the next-value move's lookup, and one slice of
        # that move: the peak is 1.10 and 1.05 held bounds on fair-coin
        # bits and the monotone family, with a margin of 0.1 here.  A
        # lift of the reduced tables peaked at 1.30 and 1.66, and one
        # through an n-entry rank tuple at 1.78 and 2.57
        qs, held, peak = self.traced_decode(encoding)
        bound = 1.2 * self.held_bound(qs)
        assert peak <= bound, (peak, bound, held)

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
