import pytest

from nlvcodec import (CorruptionError, JointEncoding,
                      PreconditionError, ValueArray, build_max_heap,
                      build_min_heap, decode_joint, encode, encode_joint)

from conftest import make_rng, random_no_equal_neighbours


def encode_array(a):
    return encode_joint(build_min_heap(a), build_max_heap(a))


class TestEncode:
    def test_figure(self, figure_array):
        enc = encode_array(figure_array)
        assert enc.u == "01011001"
        assert enc.t_min == "110100010"
        assert enc.t_max == "110110000"
        assert enc.payload_bits() == 26 == 3 * 9 - 1

    def test_singleton(self):
        enc = encode_array(ValueArray([5]))
        assert enc.u == ""
        assert enc.t_min == "0"
        assert enc.t_max == "0"
        assert enc.payload_bits() == 2

    def test_two_elements(self):
        enc = encode_array(ValueArray([1, 2]))
        assert enc.u == "0"
        assert enc.t_min == "00"
        assert enc.t_max == "10"
        assert enc.payload_bits() == 5

    def test_degree_stream_total(self):
        rng = make_rng(31)
        for _ in range(30):
            a = random_no_equal_neighbours(rng, rng.randint(1, 80))
            enc = encode_array(a)
            assert len(enc.t_min) + len(enc.t_max) == 2 * a.n
            assert enc.payload_bits() == 3 * a.n - 1

    def test_precondition_names_index(self):
        a = ValueArray([4, 7, 7, 1])
        with pytest.raises(PreconditionError) as exc:
            encode_array(a)
        assert exc.value.index == 2


class TestDecode:
    def test_figure_round_trip(self, figure_array):
        min_t = build_min_heap(figure_array)
        max_t = build_max_heap(figure_array)
        dmin, dmax = decode_joint(encode_joint(min_t, max_t))
        assert dmin == min_t and dmax == max_t

    def test_singleton(self):
        enc = JointEncoding(1, "", "0", "0")
        dmin, dmax = decode_joint(enc)
        assert dmin.parent == [None, 0]
        assert dmax.parent == [None, 0]

    def test_random_round_trips(self):
        rng = make_rng(32)
        for _ in range(200):
            a = random_no_equal_neighbours(rng, rng.randint(1, 200), hi=500)
            min_t = build_min_heap(a)
            max_t = build_max_heap(a)
            enc = encode_joint(min_t, max_t)
            dmin, dmax = decode_joint(enc)
            assert dmin == min_t and dmax == max_t
            assert encode_joint(dmin, dmax) == enc

    def test_truncated_stream(self):
        with pytest.raises(CorruptionError):
            decode_joint(JointEncoding(2, "0", "10", "10"))

    def test_trailing_bits(self):
        # U says node 1 is a leaf in min, so t_min's second 0 is never read
        with pytest.raises(CorruptionError):
            decode_joint(JointEncoding(2, "1", "00", "10"))

    def test_segments_must_be_bits(self):
        good = ["0", "00", "10"]
        for slot in range(3):
            args = list(good)
            args[slot] = "2" + args[slot][1:]
            with pytest.raises(ValueError):
                JointEncoding(2, *args)
        # a wrong-length U is corrupt, like every other length check
        with pytest.raises(CorruptionError, match="U must have length n-1"):
            JointEncoding(3, "1", "0000", "00")

    def test_unattachable_node(self):
        # root degree 1 in both, but node 2 then has nowhere to go
        with pytest.raises(CorruptionError):
            decode_joint(JointEncoding(2, "1", "00", "00"))


def test_encodings_refuse_assignment(figure_array):
    # every scheme's encoding keeps the fields its constructor checked
    for scheme in ("joint", "colored", "general"):
        enc = encode(figure_array, scheme)
        for name in type(enc).__slots__:
            with pytest.raises(AttributeError, match="read-only"):
                setattr(enc, name, getattr(enc, name))
            with pytest.raises(AttributeError, match="read-only"):
                delattr(enc, name)
        with pytest.raises(AttributeError):
            enc.extra = 1
        assert enc == encode(figure_array, scheme)
