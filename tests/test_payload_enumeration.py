"""The decoders accept exactly the payloads the encoders produce, at small n.

Every payload whose segment lengths fit the header is decoded.  The
accepted counts are pinned, and every accepted payload must be the
encoding of the heaps it decodes to.  The joint counts are the Baxter
numbers.  The general scheme's accepted containers are the answer
classes: one per distinct set of PSV/PLV/NSV/NLV tables over the n^n
arrays of n values, each the container of every array in its class.
"""

import itertools

from nlvcodec import (ColoredEncoding, CorruptionError, GeneralEncoding,
                      JointEncoding, ValueArray, decode, serialize)
from nlvcodec.arrays import ORACLES, QUERY_KINDS
from nlvcodec.bitio import subset_rank_width
from nlvcodec.colored import decode_colored, encode_colored
from nlvcodec.general import encode_general
from nlvcodec.joint import decode_joint, encode_joint

JOINT_ACCEPTED = {1: 1, 2: 2, 3: 6, 4: 22, 5: 92}
COLORED_ACCEPTED = {1: 1, 2: 2, 3: 8, 4: 40}
# the answer classes of n^n arrays
GENERAL_ACCEPTED = {1: 1, 2: 3, 3: 13, 4: 71}


def strings(alphabet, length):
    return ["".join(s) for s in itertools.product(alphabet, repeat=length)]


def streams(length):
    """Every bit str of ``length`` bits."""
    return strings("01", length)


def degree_stream_pairs(n):
    """Every (t_min, t_max) pair holding 2n bits in total."""
    for split in range(2 * n + 1):
        yield from itertools.product(streams(split), streams(2 * n - split))


def colored_payloads(n):
    """Every colored encoding of n elements: each degree stream pair, g
    and side strings of the lengths the constructor checks."""
    for g in range((n - 1) // 2 + 1):
        sides = itertools.product(streams(2 * g), streams(g),
                                  strings("012", n - 1 - 2 * g))
        for (t_min, t_max), (u_gb, v_bad, v_neutral) in itertools.product(
                degree_stream_pairs(n), sides):
            yield ColoredEncoding(n, t_min, t_max, u_gb, v_bad, v_neutral)


def answers(n, answer):
    """The four answer tables over 1..n, from ``answer(kind, i)``."""
    return tuple(tuple(answer(kind, i) for i in range(1, n + 1))
                 for kind in QUERY_KINDS)


def test_joint_accepts_exactly_encoder_output():
    for n, expected in JOINT_ACCEPTED.items():
        accepted = 0
        for (t_min, t_max), u in itertools.product(degree_stream_pairs(n),
                                                   streams(n - 1)):
            enc = JointEncoding(n, u, t_min, t_max)
            try:
                trees = decode_joint(enc)
            except CorruptionError:
                continue
            assert encode_joint(*trees) == enc
            accepted += 1
        assert accepted == expected, n


def test_colored_accepts_exactly_encoder_output():
    for n, expected in COLORED_ACCEPTED.items():
        accepted = 0
        for enc in colored_payloads(n):
            try:
                pair = decode_colored(enc)
            except CorruptionError:
                continue
            assert encode_colored(*pair) == enc
            accepted += 1
        assert accepted == expected, n


def test_general_accepts_exactly_the_answer_classes():
    for n, expected in GENERAL_ACCEPTED.items():
        # every container: a run count k, a rank str of its width and a
        # colored payload of the n - k elements left, keyed by the answers
        # it decodes to; no two may share them
        accepted = {}
        for k in range(n):
            ranks = streams(subset_rank_width(n - 1, k))
            for rank_bits, colored in itertools.product(ranks, colored_payloads(n - k)):
                enc = GeneralEncoding(n, k, rank_bits, colored)
                try:
                    qs = decode(enc)
                except CorruptionError:
                    continue
                key = answers(n, qs.query)
                assert key not in accepted, (n, key)
                accepted[key] = serialize(enc)
        # every array's container, keyed by its oracle answers; arrays of
        # one class share one container
        produced = {}
        for values in itertools.product(range(1, n + 1), repeat=n):
            a = ValueArray(values)
            key = answers(n, lambda kind, i: ORACLES[kind](a, i))
            data = serialize(encode_general(a))
            assert produced.setdefault(key, data) == data, values
        assert accepted == produced, n
        assert len(accepted) == expected, n
