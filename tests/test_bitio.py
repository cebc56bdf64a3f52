import itertools
import math
import types
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlvcodec import ColoredEncoding, CorruptionError, ValueArray, encode
from nlvcodec import bitio
from nlvcodec.arrays import compute_runs, reduced_array
from nlvcodec.bitio import (BITS_PER_BLOCK, TRITS_PER_BLOCK, BitStream,
                            pack_trits, read_degree, subset_rank,
                            subset_rank_width, subset_unrank, trit_pack_bits,
                            uint_bits, unpack_trits, write_degree)
from nlvcodec.colored import decode_colored
from nlvcodec.joint import decode_heaps

from conftest import make_rng, random_no_equal_neighbours


class TestBitStream:
    def test_write_read(self):
        s = BitStream("1011")
        assert [s.read_bit() for _ in range(4)] == ["1", "0", "1", "1"]
        with pytest.raises(CorruptionError):
            s.read_bit()

    def test_read_past_end(self):
        s = BitStream("1")
        s.read_bit()
        with pytest.raises(CorruptionError):
            s.read_bit()

    def test_uint_msb_first(self):
        assert uint_bits(5, 4) == "0101"

    def test_uint_width_check(self):
        with pytest.raises(ValueError):
            uint_bits(8, 3)

    def test_bytes_round_trip(self):
        s = BitStream("1011001011")
        data = s.to_bytes()
        assert len(data) == 2
        assert data[0] == 0b10110010
        assert data[1] == 0b11000000  # zero-padded
        assert BitStream.from_bytes(data, 10) == "1011001011"

    def test_only_binary_text(self):
        # non-ASCII digits (Arabic-Indic and fullwidth one), a lone
        # surrogate and NUL fail as well as the ASCII cases, before and
        # after valid bits
        for bad in ("012", "1 0", "1_0", [1, 0], (0,), "\ud800",
                    "\u0661", "\uff11", "\0", "01\u0661", "\uff1110", "10\0"):
            with pytest.raises(ValueError, match="^bits must be a str"):
                BitStream(bad)
            with pytest.raises(ValueError, match="^bits must be a str"):
                bitio.check_bits("01", bad)
        bitio.check_bits("", "0", "1", "0110" * 100)

    @given(st.text("01", max_size=200))
    def test_bytes_round_trip_property(self, bits):
        s = BitStream(bits)
        assert BitStream.from_bytes(s.to_bytes(), len(bits)) == bits


class TestSubsetCoderRejections:
    def test_unrank_rejects_a_negative_rank(self):
        with pytest.raises(CorruptionError, match="out of range"):
            subset_unrank(3, -1, 10)

    def test_unrank_of_the_only_subset_takes_rank_zero(self):
        for k in (0, 10):
            assert subset_unrank(k, 0, 10) == list(range(k))
            with pytest.raises(CorruptionError, match="out of range"):
                subset_unrank(k, 1, 10)

    def test_unrank_rejects_a_far_rank_before_any_block(self, monkeypatch):
        # r >= (c+1)(b+1) at the first step: no block is folded
        def refuse(*args):
            raise AssertionError("a block was folded")
        monkeypatch.setattr(bitio, "_fold", refuse)
        with pytest.raises(CorruptionError, match="out of range"):
            subset_unrank(3, comb(10, 3) * 20, 10)

    def test_rank_rejects_more_positions_than_slots(self):
        with pytest.raises(ValueError, match="more positions than slots"):
            subset_rank([0, 1, 2], 2)

    def test_from_bytes_rejects_more_bits_than_the_bytes_hold(self):
        assert BitStream.from_bytes(b"\xa0", 8) == "10100000"
        with pytest.raises(CorruptionError, match="exceeds payload"):
            BitStream.from_bytes(b"\xa0", 9)


class TestDegreeCodes:
    def test_figure_values(self):
        assert write_degree(3) == "110"
        assert write_degree(1) == "0"

    def test_round_trip(self):
        code = write_degree(7)
        assert code == "1111110"
        assert read_degree(BitStream(code)) == 7

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            write_degree(0)

    def test_truncated(self):
        with pytest.raises(CorruptionError):
            read_degree(BitStream("11"))

    @given(st.lists(st.integers(1, 40), max_size=30))
    def test_sequence_round_trip(self, degrees):
        s = BitStream("".join(write_degree(d) for d in degrees))
        assert [read_degree(s) for _ in degrees] == degrees
        with pytest.raises(CorruptionError):
            s.read_bit()


class TestBitReadContract:
    """A decode reads exactly the bits of its degree streams and
    exactly the characters of its side strings: a degree stream one bit
    short runs out, one bit long leaves a bit unread, and any side string
    one character long is left over."""

    def arrays(self):
        rng = make_rng(31)
        yield ValueArray([3, 8, 5, 6, 3, 2, 7, 10, 9])
        yield ValueArray([1])
        for n in (2, 17, 300):
            yield random_no_equal_neighbours(rng, n, hi=n)
            yield ValueArray([rng.getrandbits(1) for _ in range(n)])

    def test_reads_per_decode(self):
        for a in self.arrays():
            # the colored part of a general encoding is the reduced array's
            reduced = reduced_array(a, compute_runs(a))
            joint = encode(reduced, "joint")
            enc = encode(reduced, "colored")
            assert (joint.t_min, joint.t_max) == (enc.t_min, enc.t_max)
            fields = {name: getattr(enc, name) for name in ColoredEncoding.__slots__}

            def decode_shapes(t_min, t_max):
                decode_heaps(enc.n, t_min, t_max, u=joint.u)

            def decode_loose(**changed):
                decode_colored(types.SimpleNamespace(**dict(fields, **changed)))

            for name in ("t_min", "t_max"):
                bits = fields[name]
                for variant, message in ((bits[:-1], "^bitstream truncated"),
                                         (bits + "0", "^unconsumed trailing"),
                                         (bits + "1", "^unconsumed trailing")):
                    streams = {"t_min": enc.t_min, "t_max": enc.t_max, name: variant}
                    for decode in (decode_shapes, decode_loose):
                        with pytest.raises(CorruptionError, match=message):
                            decode(**streams)
            for name in ("u_gb", "v_bad", "v_neutral"):
                for extra in "012" if name == "v_neutral" else "01":
                    with pytest.raises(CorruptionError,
                                       match="^unconsumed side-string characters$"):
                        decode_loose(**{name: fields[name] + extra})


class TestTritPacking:
    def test_small_block(self):
        s = pack_trits("2022")
        # base-3 value 62 in bitlen(3^4 - 1) = 7 bits
        assert s == "0111110"
        assert unpack_trits(s, 4) == "2022"

    def test_empty(self):
        assert pack_trits("") == ""
        assert unpack_trits("", 0) == ""

    def test_full_zero_block(self):
        s = pack_trits("0" * TRITS_PER_BLOCK)
        assert s == "0" * BITS_PER_BLOCK

    def test_only_trit_digits(self):
        for bad in ("0123", "1_2", "+12", [0, 1, 2], "\ud800",
                    "\u0661", "\uff11", "\0", "02\u0661", "\uff1120", "21\0"):
            with pytest.raises(ValueError, match="^trits must be a str"):
                pack_trits(bad)

    def test_block_capacity(self):
        assert 3 ** TRITS_PER_BLOCK < 2 ** BITS_PER_BLOCK

    def test_corrupt_block_detected(self):
        s = "1111111"  # 127 >= 3^4
        with pytest.raises(CorruptionError):
            unpack_trits(s, 4)

    def test_out_of_range_full_block_names_its_first_bit(self):
        # 3^41, the first value past the block's range, and 2^65 - 1, the
        # largest a block's bits hold, in the first and the second of
        # two full blocks, with valid blocks and a partial one around it
        valid = pack_trits("2" * TRITS_PER_BLOCK)
        tail = pack_trits("120")
        for value in (3 ** TRITS_PER_BLOCK, 2 ** BITS_PER_BLOCK - 1):
            bad = uint_bits(value, BITS_PER_BLOCK)
            for bits, offset in ((bad + valid, 0), (valid + bad, BITS_PER_BLOCK)):
                for rest, m in (("", 2 * TRITS_PER_BLOCK),
                                (tail, 2 * TRITS_PER_BLOCK + 3)):
                    with pytest.raises(CorruptionError, match="out of range") as info:
                        unpack_trits(bits + rest, m)
                    assert (info.value.segment, info.value.offset) == (
                        "packed_trits", offset)
        # one below 3^41 is the all-2 block
        assert uint_bits(3 ** TRITS_PER_BLOCK - 1, BITS_PER_BLOCK) == valid

    def test_bit_cost_formula(self):
        for m in (0, 1, 40, 41, 42, 100, 1000):
            assert trit_pack_bits(m) == len(pack_trits("1" * m))

    def test_per_trit_cost_bound(self):
        # full blocks cost 65/41 < 1.58537 bits per trit; a partial final
        # block adds at most a constant, so total slack <= 0.00041 m + 65
        assert BITS_PER_BLOCK / TRITS_PER_BLOCK <= 1.58537
        for m in range(0, 2000):
            assert trit_pack_bits(m) <= 1.58537 * m + 65

    def test_round_trip_every_partial_block(self):
        # every count 0..83 (two full blocks and each partial length),
        # with all-2 blocks, whose values are the largest each width holds
        rng = make_rng(83)
        for m in range(2 * TRITS_PER_BLOCK + 2):
            for trits in ("2" * m, "".join(rng.choice("012") for _ in range(m))):
                s = pack_trits(trits)
                assert unpack_trits(s, m) == trits
                with pytest.raises(CorruptionError):
                    unpack_trits(s + "0", m)

    @given(st.text("012", max_size=150))
    @settings(max_examples=200)
    def test_round_trip_property(self, trits):
        s = pack_trits(trits)
        assert unpack_trits(s, len(trits)) == trits
        with pytest.raises(CorruptionError):
            unpack_trits(s + "0", len(trits))


class TestSubsetCoding:
    def test_singleton_example(self):
        k, rank = subset_rank([1], 3)
        assert (k, rank) == (1, 1)
        assert subset_rank_width(3, 1) == 2

    def test_empty_subset(self):
        assert subset_rank([], 10) == (0, 0)
        assert subset_rank_width(10, 0) == 0
        assert subset_unrank(0, 0, 10) == []

    def test_full_subset(self):
        k, rank = subset_rank(range(5), 5)
        assert (k, rank) == (5, 0)
        assert subset_rank_width(5, 5) == 0

    def test_invalid_positions(self):
        with pytest.raises(ValueError):
            subset_rank([2, 1], 5)
        with pytest.raises(ValueError):
            subset_rank([0, 5], 5)

    def test_unrank_computes_one_big_binomial(self, monkeypatch):
        calls = []

        def counted(n, k):
            calls.append((n, k))
            return comb(n, k)
        monkeypatch.setattr(bitio, "comb", counted)
        k, rank = subset_rank([3, 17, 40, 41, 99], 100)
        calls.clear()
        assert subset_unrank(k, rank, 100) == [3, 17, 40, 41, 99]
        assert calls == [(99, 5)]

    def test_corrupt_rank(self):
        with pytest.raises(CorruptionError):
            subset_unrank(1, 3, 3)
        with pytest.raises(CorruptionError):
            subset_unrank(4, 0, 3)

    def test_bijection_exhaustive(self):
        for length in range(13):
            for k in range(length + 1):
                ranks = set()
                for pos in itertools.combinations(range(length), k):
                    got_k, rank = subset_rank(pos, length)
                    assert got_k == k
                    assert 0 <= rank < comb(length, k)
                    assert subset_unrank(k, rank, length) == list(pos)
                    ranks.add(rank)
                assert ranks == set(range(comb(length, k)))

    @given(st.sets(st.integers(0, 499), max_size=60))
    @settings(max_examples=100)
    def test_round_trip_property(self, posset):
        positions = sorted(posset)
        k, rank = subset_rank(positions, 500)
        assert subset_unrank(k, rank, 500) == positions


class TestComb:
    """bitio.comb against math.comb, on both sides of its switch to the
    prime-power product."""

    @staticmethod
    def _first_sieved(n):
        """The least m = min(k, n-k) at which comb sieves for this n."""
        return max(-(-n // 4), math.isqrt(bitio._SIEVE_MIN_SQUARE * n - 1) + 1)

    def test_exhaustive_small(self):
        for n in range(301):
            for k in range(n + 1):
                assert bitio.comb(n, k) == comb(n, k)
                # comb leaves all of these to math.comb
                assert bitio._prime_power_comb(n, k) == comb(n, k)

    @pytest.mark.parametrize("n", [1_023, 1_024, 2 ** 14, 19_998, 50_000,
                                   19_997, 3 ** 9])
    def test_large_on_each_side_of_the_switch(self, n, monkeypatch):
        sieved = []

        def spy(n, k):
            sieved.append((n, k))
            return prime_power_comb(n, k)
        prime_power_comb = bitio._prime_power_comb
        monkeypatch.setattr(bitio, "_prime_power_comb", spy)
        m0 = self._first_sieved(n)
        ks = {0, 1, 2, n // 13, m0 - 1, m0, n - m0, n - m0 + 1, n // 2, n - 1, n}
        for k in sorted(k for k in ks if 0 <= k <= n):
            sieved.clear()
            assert bitio.comb(n, k) == comb(n, k), (n, k)
            assert bool(sieved) == (m0 <= min(k, n - k)), (n, k)
        # below n = 1280 no k sieves; from there k = n/2 does
        assert (m0 <= n // 2) == (n >= 1280)

    def test_hostile_sizes_never_sieve(self, monkeypatch):
        def refuse(n, k):
            raise AssertionError("sieved for C(%d, %d)" % (n, k))
        monkeypatch.setattr(bitio, "_prime_power_comb", refuse)
        big = 2 ** 40
        assert bitio.comb(big, 1) == big
        assert bitio.comb(big, big - 1) == big
        assert bitio.comb(big, 2) == big * (big - 1) // 2
        # 4 min(k, n-k) < n: math.comb, however large the result
        assert bitio.comb(40_001, 10_000) == comb(40_001, 10_000)


def _reference_rank(positions, length):
    """Reference rank: the one-step downward scan, one big-int multiply
    and divide per position."""
    k = len(positions)
    rank, c, j, idx = 0, length - 1, k, k - 1
    b = comb(c, j)
    while j > 0:
        if positions[idx] == c:
            rank += b
            b = b * j // c if c else 0
            j -= 1
            idx -= 1
        else:
            b = b * (c - j) // c
        c -= 1
    return rank


def _random_subset(rng, length, density, prefix):
    """Positions drawn at ``density``; with ``prefix`` they start with a
    full run {0..z-1}, whose terms are all zero."""
    positions = {p for p in range(length) if rng.random() < density}
    if prefix:
        positions |= set(range(rng.randint(1, max(1, length // 4))))
    return sorted(positions)


def _one_step_rank(positions):
    """The combinadic rank as its one-step sum: the j-th position p
    (1-based j) adds C(p, j)."""
    return sum(comb(p, j) for j, p in enumerate(positions, 1))


class TestRankByGaps:
    """``subset_rank`` multiplies each gap of non-positions in one
    product, cut where a block of SCAN_BLOCK steps ends; small blocks put
    gaps across many block ends."""

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 128])
    def test_equals_one_step_sum(self, block, monkeypatch):
        monkeypatch.setattr(bitio, "SCAN_BLOCK", block)
        rng = make_rng(90 + block)
        for density in (0, 0.01, 1 / 13, 0.5, 0.99, 1):
            for prefix in (False, True):
                for length in (1, 2, 9, 130, 700):
                    positions = _random_subset(rng, length, density, prefix)
                    assert subset_rank(positions, length) == (
                        len(positions), _one_step_rank(positions)), (density, length)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 128])
    def test_gaps_across_block_ends(self, block, monkeypatch):
        monkeypatch.setattr(bitio, "SCAN_BLOCK", block)
        length = 700
        cases = [
            [699],                             # one gap of 699 steps
            [0, 1, 2, 699],                    # a leading run, then one gap
            [5, 127, 128, 129, 256, 257, 600],  # positions at block ends
            [126, 131, 380, 381, 699],         # gaps that end past block ends
            list(range(0, 700, 50)),           # gaps of 49 steps
            list(range(1, 700, 2)),            # one-step gaps only
        ]
        for positions in cases:
            assert subset_rank(positions, length) == (
                len(positions), _one_step_rank(positions)), positions


class TestBlockedSubsetCoder:
    """Lengths where the coder runs many blocks, so the block folds, the
    bounds on r/b and their near-tie fallbacks all run."""

    @pytest.mark.parametrize("density", [0.5, 1 / 13, 0.01, 0.99])
    @pytest.mark.parametrize("prefix", [False, True])
    @pytest.mark.parametrize("length", [300, 3_000, 20_000])
    def test_round_trip_and_extreme_ranks(self, length, density, prefix):
        rng = make_rng(length + int(1000 * density) + prefix)
        positions = _random_subset(rng, length, density, prefix)
        k, rank = subset_rank(positions, length)
        assert k == len(positions)
        if length <= 3_000:
            assert rank == _reference_rank(positions, length)
        assert subset_unrank(k, rank, length) == positions
        total = comb(length, k)
        assert subset_unrank(k, 0, length) == list(range(k))
        assert subset_unrank(k, total - 1, length) == list(range(length - k, length))
        assert subset_rank(range(length - k, length), length) == (k, total - 1)
        # the C(20000, k) here have more decimal digits than int -> str allows
        for bad in (total, total + 1):
            with pytest.raises(CorruptionError):
                subset_unrank(k, bad, length)

    def test_ranks_on_a_single_term(self):
        # rank C(p, k) puts r/b exactly on 1 at step p, where only an exact
        # step decides; C(p, k) - 1 leaves r/b just below 1 there
        rng = make_rng(8)
        length = 2_000
        for _ in range(40):
            k = rng.randrange(1, length)
            p = rng.randrange(k, length)
            term = comb(p, k)
            assert subset_unrank(k, term, length) == list(range(k - 1)) + [p]
            assert subset_unrank(k, term - 1, length) == list(range(p - k, p))

    def test_all_but_one_slot(self):
        # k = length - 1 reaches c == j at once, where the positions are
        # every slot but one and an out-of-range rank must still fail
        for length in (2, 50, 5_000):
            k = length - 1
            for rank in {0, 1, length // 2, length - 1}:
                positions = subset_unrank(k, rank, length)
                assert len(positions) == k
                assert subset_rank(positions, length) == (k, rank)
            for bad in (length, length + 1, 2 * length):
                with pytest.raises(CorruptionError):
                    subset_unrank(k, bad, length)

    def test_rank_computes_no_binomial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("binomial computed while ranking")
        monkeypatch.setattr(bitio, "comb", refuse)
        rng = make_rng(4)
        positions = _random_subset(rng, 5_000, 0.5, True)
        assert subset_rank(positions, 5_000)[1] == _reference_rank(positions, 5_000)

    def test_width_exact_small_lengths(self):
        # no length takes the exact binomial first: these widths come from
        # the lgamma and Stirling sums, the binomial only at a power of two
        for length in [*range(301), 511, 512, 513, 1000, 1023]:
            for k in range(length + 1):
                assert subset_rank_width(length, k) == (comb(length, k) - 1).bit_length()

    def test_width_from_lgamma(self):
        rng = make_rng(5)
        lengths = [1024, 1025, 4_096, 20_000] + [rng.randrange(1024, 30_000) for _ in range(6)]
        for length in lengths:
            ks = {1, 2, length // 13, length // 2, length - 1}
            ks |= {rng.randrange(length + 1) for _ in range(10)}
            for k in ks:
                assert subset_rank_width(length, k) == (comb(length, k) - 1).bit_length()

    def test_width_at_powers_of_two(self):
        # C(2^m, 1) = C(2^m, 2^m - 1) = 2^m: log2 is an integer, which
        # only the exact fallback gets right
        for m in range(1, 48):
            length = 1 << m
            for k in (1, length - 1):
                assert subset_rank_width(length, k) == m

    def test_width_from_stirling_sum(self, monkeypatch):
        # every width goes through the 50-digit sum;
        # the binomial is taken only where C(L, k) is a power of two
        monkeypatch.setattr(bitio, "_float_width", lambda length, k: None)
        exact = []
        real_comb = bitio.comb

        def spy(n, k):
            exact.append((n, k))
            return real_comb(n, k)
        monkeypatch.setattr(bitio, "comb", spy)
        rng = make_rng(6)
        cases = [(length, k) for length in (1024, 1500, 3000)
                 for k in range(length + 1)]
        for length, draws in ((10**5, 6), (10**6, 1)):
            ks = {1, 2, 199, 200, length // 13, length // 2, length - 1}
            cases += [(length, k) for k in ks | {rng.randrange(length + 1)
                                                 for _ in range(draws)}]
        for length, k in cases:
            width = (real_comb(length, k) - 1).bit_length()
            assert subset_rank_width(length, k) == width, (length, k)
        assert exact == [(1024, 1), (1024, 1023)]

    def test_width_rejects_bad_k(self):
        for k in (-1, 11):
            with pytest.raises(ValueError):
                subset_rank_width(10, k)
