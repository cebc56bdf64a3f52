import itertools
import os
import subprocess
import sys
import threading

import pytest

import nlvcodec

from nlvcodec import (AllocationError, ColoredEncoding, CorruptionError,
                      JointEncoding, PreconditionError, RangeError, ValueArray,
                      decode, deserialize, encode, serialize)
from nlvcodec import bitio, container, fuzz, general
from nlvcodec.arrays import ORACLES, QUERY_KINDS
from nlvcodec.bitio import BitStream, trit_pack_bits
from nlvcodec.cli import main
from nlvcodec.colored import encode_colored
from nlvcodec.container import (MAGIC, SCHEME_GENERAL, VERSION, read_varint,
                                write_varint)
from nlvcodec.general import encode_general
from nlvcodec.joint import encode_joint
from nlvcodec.trees import build_max_heap, build_min_heap, colorize

from conftest import FIGURE_VALUES, make_rng, random_no_equal_neighbours


# a general container whose header declares n = 2^40 and k = n - 2
HUGE_N_CONTAINER = bytes.fromhex(
    "4e4c56450103808080808020feffffffff1f0000020202000000000088")
# general, n = MAX_N = 2^31 - 1, k = n - 2, rank 0, then the colored part
# of [1, 2]: it passes deserialize, and its run maps have n entries
MAX_N_CONTAINER = bytes.fromhex(
    "4e4c56450103ffffffff07fdffffff0700000202020000000110")
# the address-space cap of a child process that decodes MAX_N_CONTAINER:
# far below the gigabytes its tables need, so they fail at once
CHILD_ADDRESS_SPACE = 1 << 30


def with_segment(enc, index, bits):
    """The container of ``enc`` with its payload segment ``index``, in
    container order, replaced by ``bits`` of the same length."""
    segments = container._segments_of(enc)
    assert len(bits) == len(segments[index])
    segments[index] = bits
    data = serialize(enc)
    payload = BitStream("".join(segments)).to_bytes()
    return data[:len(data) - len(payload)] + payload


def all_encodings(a):
    out = [encode_general(a)]
    if a.has_consecutive_equal() is None:
        min_t = build_min_heap(a)
        max_t = build_max_heap(a)
        out.append(encode_joint(min_t, max_t))
        out.append(encode_colored(colorize(min_t, a), colorize(max_t, a)))
    return out


def test_package_exports_only_the_library_verbs():
    # the README's quick start and its payload bounds use these; every
    # other name is imported from its own module
    verbs = ["ValueArray", "parse_array_text", "encode", "decode", "serialize",
             "deserialize", "QueryStructure", "MAX_N", "JointEncoding",
             "ColoredEncoding", "GeneralEncoding", "NlvError",
             "EmptyArrayError", "RangeError", "ParseError",
             "PreconditionError", "CorruptionError", "AllocationError"]
    assert sorted(nlvcodec.__all__) == sorted(verbs)
    star = {}
    exec("from nlvcodec import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(verbs)


class TestVarint:
    def test_round_trip(self):
        for v in (0, 1, 127, 128, 300, 2 ** 32, 2 ** 62):
            buf = bytearray()
            write_varint(buf, v)
            got, pos = read_varint(bytes(buf), 0)
            assert got == v and pos == len(buf)

    def test_truncated(self):
        with pytest.raises(CorruptionError):
            read_varint(b"\x80", 0)

    def test_non_canonical_rejected(self):
        for data in (b"\x80\x00", b"\x81\x80\x00"):
            with pytest.raises(CorruptionError):
                read_varint(data, 0)

    def test_wider_than_64_bits_rejected(self):
        assert read_varint(b"\xff" * 9 + b"\x01", 0) == (2 ** 64 - 1, 10)
        for data in (b"\xff" * 9 + b"\x7f", b"\x80" * 9 + b"\x02"):
            with pytest.raises(CorruptionError):
                read_varint(data, 0)
        with pytest.raises(ValueError):
            write_varint(bytearray(), 2 ** 64)


class TestContainer:
    def test_round_trip_all_schemes(self):
        rng = make_rng(61)
        arrays = [ValueArray(FIGURE_VALUES), ValueArray([5]),
                  ValueArray([7, 7, 7])]
        arrays += [random_no_equal_neighbours(rng, rng.randint(1, 100))
                   for _ in range(20)]
        for a in arrays:
            for enc in all_encodings(a):
                data = serialize(enc)
                parsed = deserialize(data)
                assert parsed == enc
                assert serialize(parsed) == data
                assert encode(a, enc.scheme) == enc
                qs = decode(parsed)
                for kind in QUERY_KINDS:
                    for i in range(1, a.n + 1):
                        if enc.scheme == "joint" and kind in ("nsv", "nlv"):
                            with pytest.raises(RangeError, match="psv/plv only"):
                                qs.query(kind, i)
                        else:
                            assert qs.query(kind, i) == ORACLES[kind](a, i)

    def test_encode_preconditions(self):
        for scheme in ("joint", "colored"):
            with pytest.raises(PreconditionError, match=r"A\[2\] == A\[3\]"):
                encode(ValueArray([1, 2, 2]), scheme)
        with pytest.raises(ValueError):
            encode(ValueArray([1, 2]), "bogus")

    def test_threads_decode_one_parsed_container(self):
        # a parsed encoding holds no read state, so decodes of one object
        # may run at once; a short switch interval interleaves them often
        rng = make_rng(29)
        arrays = {"joint": random_no_equal_neighbours(rng, 2000),
                  "colored": random_no_equal_neighbours(rng, 2000),
                  "general": ValueArray([rng.randint(1, 3) for _ in range(2000)])}
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for scheme, a in arrays.items():
                enc = deserialize(serialize(encode(a, scheme)))
                expected = decode(enc).tables
                results, errors = [], []

                def work():
                    try:
                        for _ in range(3):
                            results.append(decode(enc).tables)
                    except Exception as exc:  # reported by the assert below
                        errors.append(exc)

                threads = [threading.Thread(target=work) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert errors == [], (scheme, errors)
                assert len(results) == 12
                assert all(r == expected for r in results), scheme
        finally:
            sys.setswitchinterval(old_interval)

    def test_hostile_general_header_rejected_cheaply(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact rank width computed for a bad header")
        monkeypatch.setattr(container, "subset_rank_width", refuse)
        big_n, big_k = 400_000, 200_000
        m = big_n - big_k - 1
        cases = [
            # segment lengths that do not fit n - k elements
            (big_n, big_k, [0, 0, 0, 0, 0], 0),
            # consistent segments, payload far short of the rank width
            (big_n, big_k, [0, 0, trit_pack_bits(m), m + 1, m + 1], 0),
            # consistent segments, payload longer than any rank width allows
            (20, 10, [0, 0, trit_pack_bits(9), 10, 10], 8),
        ]
        for n, k, lengths, payload_bytes in cases:
            buf = bytearray(MAGIC)
            buf += bytes([VERSION, SCHEME_GENERAL])
            for value in [n, k] + lengths:
                write_varint(buf, value)
            buf += bytes(payload_bytes)
            with pytest.raises(CorruptionError):
                deserialize(bytes(buf))

    def test_max_n_widths_near_an_integer_take_no_binomial(self, monkeypatch):
        # at L = MAX_N - 1 and k = L - m with m near 1e5, the lgamma sum
        # for log2 C(L, k) lies within its margin of an integer for about
        # 8 % of k; a container with such a header and the shortest
        # payload the cheap size check allows must be rejected without
        # C(L, k), a 1.6 Mbit binomial
        def refuse(*args):
            raise AssertionError("binomial computed for a hostile header")
        monkeypatch.setattr(bitio, "comb", refuse)
        n = container.MAX_N
        length = n - 1
        ks = [length - m for m in range(100_000, 100_400)
              if bitio._float_width(length, length - m) is None]
        assert len(ks) > 10
        for k in ks:
            # the colored part of n - k elements at g = 0
            lengths = [0, 0, trit_pack_bits(n - k - 1), n - k, n - k]
            buf = bytearray(MAGIC)
            buf += bytes([VERSION, SCHEME_GENERAL])
            for value in [n, k] + lengths:
                write_varint(buf, value)
            buf += bytes((sum(lengths) + length - k + 7) // 8)
            with pytest.raises(CorruptionError, match="segment lengths"):
                deserialize(bytes(buf))

    def test_max_n(self, monkeypatch):
        monkeypatch.setattr(container, "MAX_N", 5)
        for scheme in ("joint", "colored", "general"):
            data = serialize(encode(ValueArray([3, 1, 4, 2, 5]), scheme))
            assert deserialize(data).n == 5
            with pytest.raises(PreconditionError, match="MAX_N"):
                encode(ValueArray([3, 1, 4, 2, 5, 6]), scheme)
            monkeypatch.setattr(container, "MAX_N", 6)
            data = serialize(encode(ValueArray([3, 1, 4, 2, 5, 6]), scheme))
            monkeypatch.setattr(container, "MAX_N", 5)
            with pytest.raises(CorruptionError, match="MAX_N"):
                deserialize(data)

    def test_huge_n_rejected_before_decoding(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("big binomial work for a hostile header")
        monkeypatch.setattr(container, "subset_rank_width", refuse)
        # general, n = 2^40, k = n - 2: two runs, one of length n - 1
        assert len(HUGE_N_CONTAINER) == 29
        with pytest.raises(CorruptionError, match="MAX_N"):
            deserialize(HUGE_N_CONTAINER)

    def test_largest_n_with_two_runs_parses_without_sieving(self, monkeypatch):
        def refuse(n, k):
            raise AssertionError("sieved for C(%d, %d)" % (n, k))
        monkeypatch.setattr(bitio, "_prime_power_comb", refuse)
        n = container.MAX_N
        buf = bytearray(MAGIC)
        buf += bytes([VERSION, SCHEME_GENERAL])
        # the colored segments of [1, 2]: u_gb and v_bad empty, 2 packed
        # bits for one trit, two degree streams
        for value in [n, n - 2, 0, 0, 2, 2, 2]:
            write_varint(buf, value)
        width = (n - 2).bit_length()
        buf += BitStream("0" * width + "100010").to_bytes()
        enc = deserialize(bytes(buf))
        assert (enc.n, enc.k, len(enc.c_rank_bits)) == (n, n - 2, width)

    def test_magic_and_version(self):
        data = serialize(encode_general(ValueArray([1, 2])))
        assert data[:4] == MAGIC
        with pytest.raises(CorruptionError):
            deserialize(b"XXXX" + data[4:])
        with pytest.raises(CorruptionError):
            deserialize(data[:4] + b"\x09" + data[5:])
        with pytest.raises(CorruptionError):
            deserialize(data[:5] + b"\x07" + data[6:])

    def test_nonzero_padding_rejected(self):
        enc = encode_joint(build_min_heap(ValueArray([1, 2])),
                           build_max_heap(ValueArray([1, 2])))
        data = serialize(enc)
        broken = data[:-1] + bytes([data[-1] | 0x01])
        with pytest.raises(CorruptionError):
            deserialize(broken)

    def test_truncated_payload(self):
        data = serialize(encode_general(ValueArray([3, 1, 4, 1, 5])))
        with pytest.raises(CorruptionError):
            deserialize(data[:-1])


@pytest.fixture
def figure_file(tmp_path):
    path = tmp_path / "figure.txt"
    path.write_text("\n".join(map(str, FIGURE_VALUES)) + "\n")
    return path


class TestCli:
    def test_encode_joint_stats(self, figure_file, tmp_path, capsys):
        out = tmp_path / "fig.nlve"
        rc = main(["encode", "--scheme", "joint", "--in", str(figure_file),
                   "--out", str(out)])
        assert rc == 0
        line = capsys.readouterr().out
        assert "payload=26 bits" in line and "n=9" in line
        assert out.read_bytes()[:4] == MAGIC

    def test_encode_colored_stats(self, figure_file, tmp_path, capsys):
        out = tmp_path / "fig.nlve"
        rc = main(["encode", "--scheme", "colored", "--in", str(figure_file),
                   "--out", str(out)])
        assert rc == 0
        assert "payload=31 bits" in capsys.readouterr().out

    def test_encode_precondition_exit(self, tmp_path, capsys):
        src = tmp_path / "eq.txt"
        src.write_text("7\n7\n7\n")
        rc = main(["encode", "--scheme", "colored", "--in", str(src),
                   "--out", str(tmp_path / "o.nlve")])
        assert rc == 3
        assert "A[1] == A[2]" in capsys.readouterr().err

    def test_encode_parse_error(self, tmp_path, capsys):
        # the ASCII read lets "1_000" through, and int() would take it
        src = tmp_path / "bad.txt"
        for text, token in (("1 two 3\n", "two"), ("1 1_000 3\n", "1_000")):
            src.write_text(text)
            rc = main(["encode", "--scheme", "general", "--in", str(src),
                       "--out", str(tmp_path / "o.nlve")])
            assert rc == 2
            assert capsys.readouterr().err == "parse error: not an integer: %r\n" % token

    def test_encode_non_ascii_parse_error(self, tmp_path, capsys):
        src = tmp_path / "utf8.txt"
        src.write_bytes(b"3 1 \xc3\xa9 2")
        rc = main(["encode", "--scheme", "general", "--in", str(src),
                   "--out", str(tmp_path / "o.nlve")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("parse error: ")

    def test_query_colored(self, figure_file, tmp_path, capsys):
        out = tmp_path / "fig.nlve"
        main(["encode", "--scheme", "colored", "--in", str(figure_file),
              "--out", str(out)])
        capsys.readouterr()
        rc = main(["query", "--in", str(out), "--kind", "nsv", "--index", "1"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_query_joint_rejects_nsv(self, figure_file, tmp_path, capsys):
        out = tmp_path / "fig.nlve"
        main(["encode", "--scheme", "joint", "--in", str(figure_file),
              "--out", str(out)])
        capsys.readouterr()
        rc = main(["query", "--in", str(out), "--kind", "nsv", "--index", "1"])
        assert rc == 1
        assert "psv/plv only" in capsys.readouterr().err

    def test_query_out_of_range_same_message(self, figure_file, tmp_path, capsys):
        for scheme in ("joint", "colored", "general"):
            out = tmp_path / (scheme + ".nlve")
            main(["encode", "--scheme", scheme, "--in", str(figure_file),
                  "--out", str(out)])
            capsys.readouterr()
            for i in (0, 10):
                rc = main(["query", "--in", str(out), "--kind", "psv",
                           "--index", str(i)])
                assert rc == 1
                assert (capsys.readouterr().err
                        == "error: index %d out of range 1..9\n" % i)

    def test_query_general(self, tmp_path, capsys):
        src = tmp_path / "runs.txt"
        src.write_text("2\n1\n1\n3\n")
        out = tmp_path / "runs.nlve"
        main(["encode", "--scheme", "general", "--in", str(src),
              "--out", str(out)])
        capsys.readouterr()
        rc = main(["query", "--in", str(out), "--kind", "nsv", "--index", "1"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_query_all_kinds_match_oracle(self, tmp_path, capsys):
        from nlvcodec.arrays import ORACLES
        values = [4, 4, 2, 9, 9, 1, 3]
        a = ValueArray(values)
        src = tmp_path / "a.txt"
        src.write_text(" ".join(map(str, values)))
        out = tmp_path / "a.nlve"
        main(["encode", "--scheme", "general", "--in", str(src),
              "--out", str(out)])
        capsys.readouterr()
        for kind in ("psv", "plv", "nsv", "nlv"):
            for i in range(1, 8):
                rc = main(["query", "--in", str(out), "--kind", kind,
                           "--index", str(i)])
                assert rc == 0
                assert int(capsys.readouterr().out) == ORACLES[kind](a, i)

    def test_decode_dump_trees(self, figure_file, tmp_path, capsys):
        out = tmp_path / "fig.nlve"
        main(["encode", "--scheme", "colored", "--in", str(figure_file),
              "--out", str(out)])
        capsys.readouterr()
        rc = main(["decode", "--in", str(out), "--dump-trees"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "min: (0 (1b (2r) (3b (4b))) (5r) (6b (7b (8r) (9b))))" in text
        assert text.startswith("scheme=colored n=9")

    def test_decode_dump_trees_joint(self, figure_file, tmp_path, capsys):
        out = tmp_path / "fig.nlve"
        main(["encode", "--scheme", "joint", "--in", str(figure_file),
              "--out", str(out)])
        capsys.readouterr()
        rc = main(["decode", "--in", str(out), "--dump-trees"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "scheme=joint n=9 payload=26 bits",
            "min: (0 (1 (2) (3 (4))) (5) (6 (7 (8) (9))))",
            "max: (0 (1) (2 (3) (4 (5 (6))) (7)) (8 (9)))"]

    def test_decode_dump_trees_general(self, tmp_path, capsys):
        src = tmp_path / "runs.txt"
        src.write_text("2\n1\n1\n3\n")
        out = tmp_path / "runs.nlve"
        main(["encode", "--scheme", "general", "--in", str(src),
              "--out", str(out)])
        capsys.readouterr()
        rc = main(["decode", "--in", str(out), "--dump-trees"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "scheme=general n=4 payload=11 bits",
            "c: 010",
            "min: (0 (1r) (2b (3b)))",
            "max: (0 (1r (2b)) (3b))"]

    def test_decode_corrupt_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.nlve"
        bad.write_bytes(b"not a container")
        rc = main(["decode", "--in", str(bad)])
        assert rc == 4
        # a header error names the header and the bit of the field at fault
        assert (capsys.readouterr().err
                == "corruption error: bad magic (segment header, bit 0)\n")

    def test_decode_corrupt_names_segment(self, tmp_path, capsys):
        # containers that parse but whose payload breaks in the decode: the
        # figure's min stream one bit short (the max stream one long, so
        # the lengths still add up), and the figure's degree streams with
        # the side strings of an array with more neutral indices
        a = ValueArray(FIGURE_VALUES)
        joint = encode(a, "joint")
        fig = encode(a, "colored")
        other = encode(ValueArray([1, 2, 4, 6, 5, 3, 8, 7, 9]), "colored")
        cases = [
            (JointEncoding(9, joint.u, joint.t_min[:-1], joint.t_max + "0"),
             "bitstream truncated: read past end (segment t_min, bit 7)"),
            (ColoredEncoding(9, fig.t_min, fig.t_max, other.u_gb, other.v_bad,
                             other.v_neutral),
             "string v_neutral exhausted (segment v_neutral, trit %d)"
             % len(other.v_neutral))]
        cases = [(serialize(enc), message) for enc, message in cases]
        # an increasing array of 60 has 59 neutral trits, packed in a
        # 65-bit block of 41 and a 29-bit block of 18; all ones in the
        # second block is 2^29 - 1 >= 3^18
        up = encode(ValueArray(range(60)), "colored")
        packed = container._segments_of(up)[2]
        cases.append((with_segment(up, 2, packed[:65] + "1" * 29),
                      "trit block value 536870911 out of range "
                      "(segment packed_trits, bit 65)"))
        # the rank of the runs of [2, 2, 1, 1, 3, 1, 3, 3] is 6 bits
        # wide and below C(7, 3) = 35; all ones is 63
        runs = encode(ValueArray([2, 2, 1, 1, 3, 1, 3, 3]), "general")
        cases.append((with_segment(runs, 0, "1" * 6),
                      "subset rank out of range for C(7, 3) (segment c_rank)"))
        # header errors: at the bit where the field at fault starts (magic
        # 0, version 32, scheme 40, each varint at its first byte), at no
        # bit where two fields disagree; the figure's joint header is
        # n = 9 at byte 6, then the lengths of U, t_min and t_max, the
        # colored one n, then u_gb, v_bad, packed trits, t_min and t_max,
        # and the general one n, k, then the colored lengths
        jdata, cdata, gdata = (serialize(enc) for enc in (joint, fig,
                                                          encode(a, "general")))

        def patched(data, pos, new):
            return data[:pos] + bytes(new) + data[pos + 1:]
        cases += [
            (MAGIC + bytes([VERSION]), "truncated header (segment header, bit 40)"),
            (patched(jdata, 4, [2]), "unsupported version 2 (segment header, bit 32)"),
            (patched(jdata, 5, [9]), "unknown scheme 9 (segment header, bit 40)"),
            (jdata[:6] + b"\x80", "truncated varint (segment header, bit 48)"),
            (patched(jdata, 6, [0]), "n must be >= 1 (segment header, bit 48)"),
            (HUGE_N_CONTAINER, "n = %d exceeds MAX_N = %d (segment header, bit 48)"
             % (2 ** 40, container.MAX_N)),
            (patched(jdata, 7, [0x88, 0]),
             "non-canonical varint (segment header, bit 56)"),
            (patched(jdata, 7, [7]), "U segment has wrong length (segment header, bit 56)"),
            (patched(jdata, 8, [10]),
             "degree streams must total 2n = 18 bits, not 19 (segment header)"),
            # the colored part of a general container holds n - k = 5
            # elements; t_max's length is the varint at byte 12
            (patched(serialize(runs), 12, [6]),
             "degree streams must total 2(n-k) = 10 bits, not 11 (segment header)"),
            (patched(gdata, 7, [9]), "run count k out of range (segment header, bit 56)"),
            (patched(cdata, 9, [8]),
             "packed trit segment has wrong length (segment header, bit 72)"),
            (patched(cdata, 7, [2]), "|u_gb| must be twice |v_bad| (segment header)"),
            (jdata + b"\0", "segment lengths do not match payload size (segment header)"),
            # the figure's joint payload is 8 + 18 = 26 bits, then 6 bits
            # of padding
            (jdata[:-1] + bytes([jdata[-1] | 1]),
             "nonzero padding bits (segment padding, bit 26)"),
        ]
        for data, message in cases:
            path = tmp_path / "broken.nlve"
            path.write_bytes(data)
            for command in (["decode"], ["query", "--kind", "psv", "--index", "1"]):
                rc = main([command[0], "--in", str(path)] + command[1:])
                assert rc == 4
                err = capsys.readouterr().err
                assert err == "corruption error: %s\n" % message, err

    @pytest.mark.parametrize("step", ["kept_flags", "end_labels"])
    def test_out_of_memory_is_an_allocation_error(self, step, tmp_path,
                                                   monkeypatch, capsys):
        # a MemoryError in the run flags (which --dump-trees also needs)
        # or in the tables becomes AllocationError, and the CLI's exit 6
        def fail(*args):
            raise MemoryError
        monkeypatch.setattr(general, step, fail)
        enc = encode(ValueArray([2, 2, 1, 1, 3, 1, 3, 3]), "general")
        with pytest.raises(AllocationError, match="^cannot allocate the decode "
                           "tables for n = 8$"):
            decode(enc)
        if step == "kept_flags":
            with pytest.raises(AllocationError):
                general.decode_runs(enc)
        path = tmp_path / "runs.nlve"
        path.write_bytes(serialize(enc))
        commands = [["query", "--kind", "nsv", "--index", "1"]]
        if step == "kept_flags":
            commands.append(["decode", "--dump-trees"])
        for command in commands:
            assert main([command[0], "--in", str(path)] + command[1:]) == 6
            assert capsys.readouterr().err == (
                "allocation error: cannot allocate the decode tables for n = 8\n")

    @pytest.mark.parametrize("scheme", ["joint", "colored", "general"])
    def test_out_of_memory_in_the_shape_loop(self, scheme, tmp_path,
                                             monkeypatch, capsys):
        # a MemoryError in the shape loop, which every scheme's decode and
        # decode_shapes run, is an AllocationError naming the header's n,
        # and the CLI's decode and query exit 6 with no traceback
        def fail(*args, **kwargs):
            raise MemoryError
        values = [2, 2, 1, 1, 3, 1, 3, 3] if scheme == "general" else FIGURE_VALUES
        enc = encode(ValueArray(values), scheme)
        path = tmp_path / "shapes.nlve"
        path.write_bytes(serialize(enc))
        for module in (container, nlvcodec.colored, nlvcodec.joint):
            monkeypatch.setattr(module, "decode_heaps", fail)
        message = "cannot allocate the decode tables for n = %d" % enc.n
        for verb in (decode, container.decode_shapes):
            with pytest.raises(AllocationError, match="^%s$" % message):
                verb(enc)
        for command in (["decode", "--dump-trees"],
                        ["query", "--kind", "psv", "--index", "1"]):
            assert main([command[0], "--in", str(path)] + command[1:]) == 6
            assert capsys.readouterr().err == "allocation error: %s\n" % message

    def test_tables_too_large_for_memory_exit(self, tmp_path):
        # only ever decoded in a child whose address space is capped
        resource = pytest.importorskip("resource")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS,
                               (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))
        path = tmp_path / "max_n.nlve"
        path.write_bytes(MAX_N_CONTAINER)
        assert len(MAX_N_CONTAINER) == 26
        assert deserialize(MAX_N_CONTAINER).n == container.MAX_N
        src = os.path.dirname(os.path.dirname(os.path.abspath(nlvcodec.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys\n"
                 "from nlvcodec import AllocationError, NlvError, decode, deserialize\n"
                 "try:\n"
                 "    decode(deserialize(open(sys.argv[1], 'rb').read()))\n"
                 "except AllocationError as exc:\n"
                 "    assert isinstance(exc, NlvError) and isinstance(exc, MemoryError)\n"
                 "    print('AllocationError')\n")
        commands = [["-c", probe, str(path)],
                    ["-m", "nlvcodec", "decode", "--in", str(path)],
                    ["-m", "nlvcodec", "decode", "--in", str(path), "--dump-trees"],
                    ["-m", "nlvcodec", "query", "--in", str(path), "--kind", "nsv",
                     "--index", "5"]]
        for args in commands:
            run = subprocess.run([sys.executable] + args, env=env, preexec_fn=cap,
                                 capture_output=True, text=True, timeout=60)
            assert "Traceback" not in run.stderr, run.stderr
            if args[0] == "-c":
                assert (run.returncode, run.stdout) == (0, "AllocationError\n")
            else:
                assert run.returncode == 6, run.stderr
                assert "allocation error" in run.stderr

    def test_decode_huge_n_exit(self, tmp_path, capsys):
        bad = tmp_path / "huge.nlve"
        bad.write_bytes(HUGE_N_CONTAINER)
        rc = main(["decode", "--in", str(bad)])
        assert rc == 4
        assert "MAX_N" in capsys.readouterr().err

    def test_stats(self, figure_file, tmp_path, capsys):
        out = tmp_path / "fig.nlve"
        main(["encode", "--scheme", "general", "--in", str(figure_file),
              "--out", str(out)])
        capsys.readouterr()
        rc = main(["stats", "--in", str(out)])
        assert rc == 0
        assert "scheme=general" in capsys.readouterr().out

    def test_stats_joint_and_colored(self, figure_file, tmp_path, capsys):
        expected = {
            "joint": "n=9 scheme=joint payload=26 bits bits/n=2.8889 "
                     "bound=26.00 margin=0.00",
            "colored": "n=9 scheme=colored payload=31 bits bits/n=3.4444 "
                       "bound=31.00 margin=0.00",
        }
        for scheme, line in expected.items():
            out = tmp_path / (scheme + ".nlve")
            main(["encode", "--scheme", scheme, "--in", str(figure_file),
                  "--out", str(out)])
            capsys.readouterr()
            rc = main(["stats", "--in", str(out)])
            assert rc == 0
            assert capsys.readouterr().out.strip() == line

    def test_stats_at_the_colored_bound(self, tmp_path, capsys):
        # an increasing array has g = 0: its payload is the bound itself
        path = tmp_path / "up.txt"
        path.write_text("\n".join(map(str, range(1, 10**5 + 1))) + "\n")
        out = tmp_path / "up.nlve"
        main(["encode", "--scheme", "colored", "--in", str(path),
              "--out", str(out)])
        encoded = capsys.readouterr().out.strip()
        assert main(["stats", "--in", str(out)]) == 0
        assert capsys.readouterr().out.strip() == encoded == (
            "n=100000 scheme=colored payload=358535 bits bits/n=3.5854 "
            "bound=358535.00 margin=0.00")

    def test_fuzz_small(self, capsys):
        rc = main(["fuzz", "--count", "25", "--max-n", "12", "--alphabet",
                   "3", "--seed", "42"])
        assert rc == 0
        assert "0 failures" in capsys.readouterr().out

    def test_fuzz_failure_prints_a_minimized_reproducer(self, monkeypatch, capsys):
        # a planted failure on every array that holds a value of 4 or more
        # shrinks to one such element
        def check_array(a):
            return ["planted failure"] if max(a.values) >= 4 else []
        monkeypatch.setattr(fuzz, "check_array", check_array)
        report = fuzz.run_fuzz(20, 30, 5, 0)
        assert not report.ok and report.failures == ["planted failure"]
        assert report.arrays_checked == 1
        assert len(report.reproducer) == 1 and report.reproducer[0] >= 4
        rc = main(["fuzz", "--count", "20", "--max-n", "30", "--alphabet", "5"])
        assert rc == 5
        out = capsys.readouterr().out
        assert "FAIL on" in out and "planted failure" in out
        assert "minimized reproducer: %r" % (report.reproducer,) in out

    def test_fuzz_exhaustive(self, capsys):
        rc = main(["fuzz", "--max-n", "4", "--alphabet", "3", "--exhaustive"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "120 arrays checked" in out  # 3 + 9 + 27 + 81

    @pytest.mark.parametrize("args, option", [
        (["--max-n", "0"], "--max-n"), (["--alphabet", "0"], "--alphabet"),
        (["--count", "0"], "--count"), (["--count", "-3"], "--count"),
        (["--max-n", "3", "--alphabet", "0", "--exhaustive"], "--alphabet"),
        (["--max-n", "0", "--exhaustive"], "--max-n")])
    def test_fuzz_counts_below_one_are_usage_errors(self, args, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz"] + args)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "error: argument %s: must be at least 1" % option in captured.err
        assert "Traceback" not in captured.err
        assert "arrays checked" not in captured.out

    def test_module_entry_point(self):
        # python -m nlvcodec runs the CLI and passes its exit code on
        src = os.path.dirname(os.path.dirname(os.path.abspath(nlvcodec.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        ok = subprocess.run([sys.executable, "-m", "nlvcodec", "fuzz", "--count", "3",
                             "--max-n", "6"], env=env, capture_output=True,
                            text=True, timeout=60)
        assert ok.returncode == 0 and "0 failures" in ok.stdout
        bad = subprocess.run([sys.executable, "-m", "nlvcodec", "stats", "--in",
                              "/nonexistent/file.nlve"], env=env,
                             capture_output=True, timeout=60)
        assert bad.returncode == 1

    def test_usage_error_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--scheme", "bogus", "--in", "x", "--out", "y"])
        assert exc.value.code == 1

    def test_missing_file(self, capsys):
        rc = main(["decode", "--in", "/nonexistent/file.nlve"])
        assert rc == 1
