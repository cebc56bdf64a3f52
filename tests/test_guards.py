"""Rejections and small paths of the public API that no other test
reaches: the encodings' constructor checks, size mismatches between
trees and arrays, and the helpers that only the benchmark calls."""

import pytest

from nlvcodec import (ColoredEncoding, CorruptionError, GeneralEncoding,
                      JointEncoding, ValueArray, serialize)
from nlvcodec.cli import main
from nlvcodec.colored import encode_colored
from nlvcodec.joint import decode_heaps, degree_streams, encode_joint
from nlvcodec.trees import (build_max_heap, build_min_heap,
                            check_sibling_monotonicity, colorize)


def colored_pair(values):
    a = ValueArray(values)
    return colorize(build_min_heap(a), a), colorize(build_max_heap(a), a)


class TestConstructors:
    def test_colored_neutral_trit_count(self):
        # g = 0 at n = 3 leaves n - 1 = 2 neutral indices
        ColoredEncoding(3, "0", "0" * 5, "", "", "22")
        for v_neutral in ("2", "222"):
            with pytest.raises(CorruptionError, match=r"^\|v_neutral\| must equal n-1-2g$"):
                ColoredEncoding(3, "0", "0" * 5, "", "", v_neutral)

    def test_colored_degree_stream_total(self):
        ColoredEncoding(1, "0", "0", "", "", "")
        for t_min, t_max in (("0", ""), ("00", "0"), ("", "")):
            with pytest.raises(CorruptionError, match="^degree streams must total 2n bits$"):
                ColoredEncoding(1, t_min, t_max, "", "", "")

    def test_joint_degree_stream_total(self):
        JointEncoding(2, "0", "10", "00")
        for t_min, t_max in (("10", "0"), ("10", "000"), ("", "")):
            with pytest.raises(CorruptionError, match="^degree streams must total 2n bits$"):
                JointEncoding(2, "0", t_min, t_max)

    def test_general_run_count(self):
        colored = ColoredEncoding(1, "0", "0", "", "", "")
        GeneralEncoding(3, 2, "", colored)
        for k in (-1, 3, 4):
            with pytest.raises(CorruptionError, match="^run count k out of range$"):
                GeneralEncoding(3, k, "", colored)

    def test_general_colored_part_covers_n_minus_k(self):
        # k = 0 has a rank width of 0; the colored part must have n = 3
        colored = ColoredEncoding(1, "0", "0", "", "", "")
        with pytest.raises(CorruptionError, match="^colored part must cover n-k elements$"):
            GeneralEncoding(3, 0, "", colored)


class TestSizeMismatch:
    def test_tree_encoders(self):
        short, long = colored_pair([2, 1]), colored_pair([2, 1, 3])
        for encode, pair in ((encode_colored, (short[0], long[1])),
                             (encode_colored, (long[0], short[1])),
                             (encode_joint, (short[0], long[1])),
                             (degree_streams, (long[0], short[1]))):
            with pytest.raises(ValueError, match="^tree sizes differ$"):
                encode(*pair)

    def test_colorize(self):
        a = ValueArray([2, 1, 3])
        for tree in (build_min_heap(ValueArray([2, 1])),
                     build_max_heap(ValueArray([2, 1, 3, 4]))):
            with pytest.raises(ValueError, match="^tree and array sizes differ$"):
                colorize(tree, a)


def test_decode_heaps_needs_a_node():
    for n in (0, -1):
        with pytest.raises(ValueError, match="^a heap pair has at least one node$"):
            decode_heaps(n, "0", "0", u="")


def test_serialize_refuses_a_non_encoding():
    for obj in (object(), None, "0101"):
        with pytest.raises(TypeError, match="^unsupported encoding"):
            serialize(obj)


def test_sibling_monotonicity_fails_as_max():
    # 3 and 2 are siblings under node 1 of the min heap of [1, 3, 2]; as
    # a max heap they would have to be non-decreasing
    a = ValueArray([1, 3, 2])
    min_t = build_min_heap(a)
    assert check_sibling_monotonicity(min_t, a, "min")
    assert not check_sibling_monotonicity(min_t, a, "max")


def test_degree_streams_are_the_joint_segments(figure_array):
    min_t, max_t = build_min_heap(figure_array), build_max_heap(figure_array)
    enc = encode_joint(min_t, max_t)
    assert degree_streams(min_t, max_t) == (enc.u, enc.t_min, enc.t_max)


def test_value_array_len_hash_repr():
    a = ValueArray([3, -1, 3])
    assert len(a) == 3
    assert hash(a) == hash(ValueArray((3, -1, 3))) == hash((3, -1, 3))
    assert repr(a) == "ValueArray([3, -1, 3])"
    assert a == eval(repr(a))


def test_fuzz_count_not_an_int_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--count", "abc"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "error: argument --count: invalid int value: 'abc'" in captured.err
    assert "Traceback" not in captured.err
    assert "arrays checked" not in captured.out
