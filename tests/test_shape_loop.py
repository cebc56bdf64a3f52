"""The shape loop, ``joint.decode_heaps``, against the loop it replaced,
kept here as a reference: one ``str.find`` per unary degree code and a
bit cursor per stream.  Both must give the same (parent, right_sib,
blue) tables, or the same error type, message, ``segment`` and
``offset``, on the bad-input cases, on general decodes with their
node labels, and on streams with a degree of 256 or more below the
root, where the codes leave bytes (``joint._codes``)."""

from operator import length_hint

import pytest

from nlvcodec import CorruptionError, ValueArray, decode, encode
from nlvcodec.arrays import ORACLES, end_labels
from nlvcodec.bitio import TRUNCATED, BitStream
from nlvcodec.general import decode_runs
from nlvcodec.joint import _codes, _node, _root_degree, decode_heaps

from conftest import make_rng
from test_decode_bad_input import CASES, FIELDS, edited_case, random_case


def reference_decode_heaps(n, t_min, t_max, u=None, u_gb="", v_bad="",
                           v_neutral="", labels=None):
    """``decode_heaps`` with one ``str.find`` per code below the roots."""
    if n < 1:
        raise ValueError("a heap pair has at least one node")
    joint = u is not None
    if joint and len(u) != n - 1:
        raise CorruptionError("U must have length n-1")
    if labels is None:
        nodes, size = iter(range(1, n + 1)), n + 1
    else:
        nodes, size = filter(None, labels), len(labels)
    min_cursor, max_cursor = BitStream(t_min), BitStream(t_max)
    root_min = _root_degree(min_cursor, "t_min")
    root_max = _root_degree(max_cursor, "t_max")
    parent_min, parent_max = [None] * size, [None] * size
    sib_min, sib_max = [0] * size, [0] * size
    blue_min, blue_max = [], []
    # i is the node the last pass placed, by label, so each node is one
    # int object; node 1 is the root's first child in both heaps, and a
    # code of d bits leaves the cursor at bit d
    i = next(nodes)
    parent_min[i] = parent_max[i] = 0
    pos_min, pos_max = root_min, root_max
    more_min, more_max = root_min > 1, root_max > 1
    stack_min, left_min = ([0], [root_min - 1]) if more_min else ([], [])
    stack_max, left_max = ([0], [root_max - 1]) if more_max else ([], [])
    if more_min:
        sib_min[0] = i
    if more_max:
        sib_max[0] = i
    find_min, find_max = t_min.find, t_max.find
    gb_bits, bad_bits, trits = iter(u_gb), iter(v_bad), iter(v_neutral)
    # more_min and more_max say whether i gets a right sibling in each heap
    for k in nodes:
        # own_min: i is internal in the min heap
        if joint:
            own_min = u[i - 1] == "0"
        elif more_min == more_max:
            # good (siblings in neither heap) or bad (in both): the U bit
            b = next(gb_bits, None)
            if b is None:
                raise CorruptionError(TRUNCATED, segment="u_gb",
                                      offset=len(u_gb))
            own_min = b == "0"
            if more_min:  # bad: red where it is a leaf, v_bad where internal
                c = next(bad_bits, None)
                if c is None:
                    raise CorruptionError(TRUNCATED, segment="v_bad",
                                          offset=len(v_bad))
                if c == "1":
                    (blue_min if own_min else blue_max).append(i)
        else:
            # neutral: the trit colors i in the heap where it has right
            # siblings, and 2 says it is internal in the other one
            c = next(trits, None)
            if c == "2":
                own_min = more_max
            elif c is None:
                raise CorruptionError("string v_neutral exhausted",
                                      segment="v_neutral",
                                      offset=len(v_neutral))
            else:
                own_min = more_min
                if c == "1":
                    (blue_min if own_min else blue_max).append(i)
        if own_min:
            j = find_min("0", pos_min)
            if j < 0:
                raise CorruptionError(TRUNCATED, segment="t_min", offset=pos_min)
            parent_min[k] = i
            # d = j + 1 - pos_min, and i stays open iff d >= 2
            more_min = j > pos_min
            if more_min:
                sib_min[i] = k
                stack_min.append(i)
                left_min.append(j - pos_min)
            pos_min = j + 1
            try:
                q = stack_max[-1]
            except IndexError:
                raise CorruptionError("no open node to attach node %d"
                                      % _node(labels, k)) from None
            parent_max[k] = q
            sib_max[sib_max[q]] = k
            more = left_max[-1] - 1
            more_max = more > 0
            if more_max:
                sib_max[q] = k
                left_max[-1] = more
            else:
                sib_max[q] = 0
                stack_max.pop()
                left_max.pop()
        else:
            j = find_max("0", pos_max)
            if j < 0:
                raise CorruptionError(TRUNCATED, segment="t_max", offset=pos_max)
            parent_max[k] = i
            more_max = j > pos_max
            if more_max:
                sib_max[i] = k
                stack_max.append(i)
                left_max.append(j - pos_max)
            pos_max = j + 1
            try:
                p = stack_min[-1]
            except IndexError:
                raise CorruptionError("no open node to attach node %d"
                                      % _node(labels, k)) from None
            parent_min[k] = p
            sib_min[sib_min[p]] = k
            more = left_min[-1] - 1
            more_min = more > 0
            if more_min:
                sib_min[p] = k
                left_min[-1] = more
            else:
                sib_min[p] = 0
                stack_min.pop()
                left_min.pop()
        i = k
    for segment, bits, pos in (("t_min", t_min, pos_min), ("t_max", t_max, pos_max)):
        if pos != len(bits):
            raise CorruptionError("unconsumed trailing degree bits",
                                  segment=segment, offset=pos)
    for stack, left in ((stack_min, left_min), (stack_max, left_max)):
        if stack:
            raise CorruptionError("node %d still expects %d more children"
                                  % (_node(labels, stack[-1]), left[-1]))
    # a str iterator's length hint is the count of characters left
    for segment, text, it in (("u_gb", u_gb, gb_bits), ("v_bad", v_bad, bad_bits),
                              ("v_neutral", v_neutral, trits)):
        left = length_hint(it)
        if left:
            raise CorruptionError("unconsumed side-string characters",
                                  segment=segment, offset=len(text) - left)
    return (parent_min, sib_min, blue_min), (parent_max, sib_max, blue_max)


def outcome(loop, n, case, labels=None):
    """A loop's tables, or the type, message, segment and offset of what
    it raises."""
    try:
        return loop(n, labels=labels, **case)
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "segment", None),
                getattr(exc, "offset", None))


def assert_same(n, case, labels=None):
    """Both loops give the same outcome; returns it."""
    got = outcome(decode_heaps, n, case, labels)
    assert got == outcome(reference_decode_heaps, n, case, labels), (n, case)
    return got


def segments(enc, scheme):
    return {name: getattr(enc, name) for name in FIELDS[scheme]}


def edited(rng, case):
    """``case`` with one character substituted, inserted or deleted in one
    segment, or one bit moved from one degree stream to the other."""
    case = dict(case)
    name = rng.choice(sorted(case))
    text = case[name]
    alphabet = "012x" if name == "v_neutral" else "01"
    pos = rng.randint(0, len(text))
    edit = rng.choice(("substitute", "insert", "delete", "move"))
    if edit == "move" and case["t_min"] and case["t_max"]:
        if rng.random() < 0.5:
            case["t_min"], case["t_max"] = (case["t_min"][:-1],
                                            case["t_min"][-1] + case["t_max"])
        else:
            case["t_min"], case["t_max"] = (case["t_min"] + case["t_max"][0],
                                            case["t_max"][1:])
    elif edit == "insert":
        case[name] = text[:pos] + rng.choice(alphabet) + text[pos:]
    elif pos < len(text):
        replacement = "" if edit == "delete" else rng.choice(alphabet)
        case[name] = text[:pos] + replacement + text[pos + 1:]
    return case


def general_parts(a):
    """The colored part of a general encoding and its node labels, as
    ``general.decode_general`` passes them to the shape loop."""
    enc = encode(a, "general")
    return enc.colored, end_labels(decode_runs(enc))


def test_bad_input_cases():
    # the very cases test_decode_bad_input generates, in its order
    rng = make_rng(61)
    for scheme in ("joint", "colored"):
        decoded, failed = 0, set()
        for _ in range(CASES):
            for make in (random_case, edited_case):
                got = assert_same(*make(rng, scheme))
                if len(got) == 2:
                    decoded += 1
                else:
                    failed.add(got[2])
        assert 0 < decoded < 2 * CASES, scheme
        assert {"t_min", "t_max"} <= failed, (scheme, failed)


def test_general_decodes_with_labels():
    rng = make_rng(62)
    decoded, failed = 0, set()
    for _ in range(600):
        n = rng.randint(1, 30)
        alphabet = rng.randint(2, 5)
        col, labels = general_parts(ValueArray([rng.randint(1, alphabet)
                                                for _ in range(n)]))
        case = segments(col, "colored")
        got = assert_same(col.n, case, labels)
        assert len(got) == 2
        for _ in range(4):
            got = assert_same(col.n, edited(rng, case), labels)
            if len(got) == 2:
                decoded += 1
            else:
                failed.add(got[1].split(" ")[0])
    assert decoded
    # errors name nodes by label on the error path
    assert {"bitstream", "node", "unconsumed"} <= failed, failed


def star_arrays(d):
    """Arrays with a node of d children below the root: node 1 in the min
    heap, node 1 in the max heap, and node 3 in the max heap."""
    yield [1] + list(range(d + 1, 1, -1))
    yield [d + 1] + list(range(1, d + 1))
    yield [d + 5, d + 9, d + 3] + list(range(1, d + 1))


def long_code_variants(case):
    """``case`` as it is, and with each degree stream cut by one bit and
    extended by one bit, at its end and inside its longest code."""
    yield case
    for name in ("t_min", "t_max"):
        text = case[name]
        ones = max(text.split("0"), key=len)
        at = text.find(ones) + len(ones) // 2 if ones else 0
        for changed in (text[:-1], text + "0", text + "1",
                        text[:at] + text[at + 1:], text[:at] + "1" + text[at:]):
            yield dict(case, **{name: changed})


@pytest.mark.parametrize("d", [255, 256, 257, 600])
def test_large_degree_below_the_root(d):
    for values in star_arrays(d):
        a = ValueArray(values)
        for scheme in ("joint", "colored"):
            case = segments(encode(a, scheme), scheme)
            for variant in long_code_variants(case):
                assert_same(a.n, variant)
        # with an equal pair at the end, under the general scheme's labels
        col, labels = general_parts(ValueArray(values + values[-1:]))
        for variant in long_code_variants(segments(col, "colored")):
            assert_same(col.n, variant, labels)


class TestDegreesOf256And257:
    """Node 1 with exactly 256 and 257 children: d - 1 = 255 is the last
    code ``_codes`` yields in a bytes window, 256 the first it yields
    alone, as a 1-tuple."""

    @staticmethod
    def arrays(d):
        # 1 then decreasing: node 1 has d children in the min heap; the
        # equal pair at the end leaves the same reduced array
        star = [1] + list(range(d + 1, 1, -1))
        return {"star": star, "equal pair": star + [2]}

    @pytest.mark.parametrize("d", [256, 257])
    def test_codes_take_the_fallback_at_257(self, d):
        enc = encode(ValueArray(self.arrays(d)["star"]), "colored")
        # the root has one child, so its code is the one bit "0"
        assert enc.t_min == "0" + "1" * (d - 1) + "0"
        codes = list(_codes(enc.t_min, 1))
        assert codes == ([bytes([255])] if d == 256 else [(256,)])
        assert list(_codes(enc.t_min[:-1], 1)) == []

    @pytest.mark.parametrize("d", [256, 257])
    @pytest.mark.parametrize("scheme", ["joint", "colored", "general"])
    def test_every_answer(self, d, scheme):
        for label, values in self.arrays(d).items():
            if label == "equal pair" and scheme != "general":
                continue
            a = ValueArray(values)
            qs = decode(encode(a, scheme))
            kinds = ("psv", "plv") if scheme == "joint" else ORACLES
            for kind in kinds:
                assert [qs.query(kind, i) for i in range(1, a.n + 1)] == [
                    ORACLES[kind](a, i) for i in range(1, a.n + 1)], (label, kind)

    @pytest.mark.parametrize("d", [256, 257])
    def test_error_offsets(self, d):
        star = ValueArray(self.arrays(d)["star"])
        col, labels = general_parts(ValueArray(self.arrays(d)["equal pair"]))
        runs = [(star.n, segments(encode(star, "joint"), "joint"), None),
                (star.n, segments(encode(star, "colored"), "colored"), None),
                (col.n, segments(col, "colored"), labels)]
        for n, case, names in runs:
            t_min = case["t_min"]
            assert len(t_min) == d + 1
            # node 1's code, from bit 1, runs past the end
            cut = dict(case, t_min=t_min[:-1])
            assert outcome(decode_heaps, n, cut, names) == (
                "CorruptionError", TRUNCATED, "t_min", 1)
            for bit in "01":
                longer = dict(case, t_min=t_min + bit)
                assert outcome(decode_heaps, n, longer, names) == (
                    "CorruptionError", "unconsumed trailing degree bits",
                    "t_min", d + 1)
            assert_same(n, cut, names)

