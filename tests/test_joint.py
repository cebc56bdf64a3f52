import pytest

from nlvcodec import (CorruptionError, JointEncoding, PreconditionError,
                      ValueArray, encode)
from nlvcodec.arrays import ORACLES
from nlvcodec.joint import decode_heaps, decode_joint, encode_joint
from nlvcodec.trees import build_max_heap, build_min_heap


from conftest import (decoded_pair, make_rng, outcome,
                      random_no_equal_neighbours, scan_arrays, stack_answers)


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


class TestArrayPath:
    """``encode(a, "joint")`` takes U and the degree streams from the
    array scan's degree lists, with no tree; it must give what the tree
    path gives, errors included."""

    def test_equals_tree_path(self):
        errors = 0
        for name, a in scan_arrays():
            got = outcome(encode, a, "joint")
            assert got == outcome(encode_array, a), name
            bad = a.has_consecutive_equal()
            if bad is not None:
                errors += 1
                assert got == ("PreconditionError",
                               "no consecutive equal elements allowed; "
                               "A[%d] == A[%d]" % (bad, bad + 1), bad), name
        assert 100 < errors < 300

    def test_figure(self, figure_array):
        assert encode(figure_array, "joint") == JointEncoding(
            9, "01011001", "110100010", "110110000")


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
        # U says node 1 is internal in max, whose stream is already spent:
        # streams of 2n bits run out before they leave a bit unread
        with pytest.raises(CorruptionError, match="^bitstream truncated"):
            decode_joint(JointEncoding(2, "1", "00", "10"))
        # so only longer streams, passed to decode_heaps directly, do
        with pytest.raises(CorruptionError,
                           match="^unconsumed trailing degree bits$"):
            decode_heaps(1, "00", "0", u="")

    def test_stream_errors_name_segment_and_offset(self, figure_array):
        # the figure's codes start at bits 0, 3, 5, 6, 7 of t_min and
        # 0, 3, 6, 7, 8 of t_max; a truncation names the first bit of the
        # code that runs past the end, trailing bits the first one unread
        enc = encode_array(figure_array)
        u = enc.u
        streams = {"t_min": enc.t_min, "t_max": enc.t_max}
        cases = [("t_min", enc.t_min[:-1], "^bitstream truncated: read past end$", 7),
                 ("t_max", enc.t_max[:-1], "^bitstream truncated: read past end$", 8),
                 ("t_min", enc.t_min + "0", "^unconsumed trailing degree bits$", 9),
                 ("t_max", enc.t_max + "1", "^unconsumed trailing degree bits$", 9)]
        for segment, bits, message, offset in cases:
            args = dict(streams, **{segment: bits})
            with pytest.raises(CorruptionError, match=message) as exc:
                decode_heaps(9, args["t_min"], args["t_max"], u=u)
            assert (exc.value.segment, exc.value.offset) == (segment, offset)
        # a root code that runs out starts at bit 0
        for t_min, t_max, segment in (("", "00", "t_min"), ("0", "1", "t_max")):
            with pytest.raises(CorruptionError, match="^bitstream truncated") as exc:
                decode_heaps(1, t_min, t_max, u="")
            assert (exc.value.segment, exc.value.offset) == (segment, 0)
        # a shape error has no one bit to point at
        with pytest.raises(CorruptionError, match="^no open node") as exc:
            decode_joint(JointEncoding(2, "1", "00", "00"))
        assert (exc.value.segment, exc.value.offset) == (None, None)

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
        with pytest.raises(CorruptionError,
                           match="^no open node to attach node 2$"):
            decode_joint(JointEncoding(2, "1", "00", "00"))

    def test_node_left_open(self):
        # streams of 2n bits are consumed exactly or attach too many
        # nodes, so only streams of another length, passed to
        # decode_heaps directly, leave a node open: the min root expects
        # 2 children and gets node 1, which expects 3 and gets node 2;
        # the error names the deepest open node and its own count
        with pytest.raises(CorruptionError,
                           match="^node 1 still expects 2 more children$"):
            decode_heaps(2, "10110", "10", u="0")
        # the root's frame, when nothing below it is open
        with pytest.raises(CorruptionError,
                           match="^node 0 still expects 1 more children$"):
            decode_heaps(1, "10", "0", u="")


EXTREME_N = 5000
EXTREME_ARRAYS = {
    "increasing": range(1, EXTREME_N + 1),
    "decreasing": range(EXTREME_N, 0, -1),
    # 1, n+1, 2, n+3, ...: the min heap is a caterpillar down the small
    # values, the max heap's root has n/2 + 1 children
    "zigzag": [i // 2 + 1 if i % 2 == 0 else EXTREME_N + i
               for i in range(EXTREME_N)],
}


class TestShapeExtremes:
    """Each heap a path (every node open for one child), or a root of
    degree about n or n/2 (one frame counting down over the whole
    decode), at a size where an off-by-one in the frames would show."""

    @pytest.mark.parametrize("name", sorted(EXTREME_ARRAYS))
    def test_joint_round_trip(self, name):
        a = ValueArray(EXTREME_ARRAYS[name])
        min_t, max_t = build_min_heap(a), build_max_heap(a)
        enc = encode_joint(min_t, max_t)
        dmin, dmax = decode_joint(enc)
        assert dmin == min_t and dmax == max_t
        assert dmin.parent[1:] == stack_answers(a, "psv")
        assert dmax.parent[1:] == stack_answers(a, "plv")
        assert encode_joint(dmin, dmax) == enc

    @pytest.mark.parametrize("name", sorted(EXTREME_ARRAYS))
    def test_colored_round_trip(self, name):
        a = ValueArray(EXTREME_ARRAYS[name])
        dmin, dmax = decoded_pair(a)
        decoded = {"psv": dmin.parent, "plv": dmax.parent,
                   "nsv": dmin.next_value, "nlv": dmax.next_value}
        for kind, table in decoded.items():
            expected = stack_answers(a, kind)
            assert table[1:] == expected, kind
            # the stack scan stands in for the quadratic oracle
            for i in (1, 2, a.n // 2, a.n - 1, a.n):
                assert expected[i - 1] == ORACLES[kind](a, i)


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


def test_encodings_compare_type_and_every_field(figure_array):
    encs = [encode(figure_array, scheme)
            for scheme in ("joint", "colored", "general")]
    for enc in encs:
        with pytest.raises(TypeError):
            hash(enc)
        assert [other == enc for other in encs] == [e is enc for e in encs]
        for name in type(enc).__slots__:
            copy = encode(figure_array, enc.scheme)
            assert copy == enc
            object.__setattr__(copy, name, object())
            assert copy != enc, name
