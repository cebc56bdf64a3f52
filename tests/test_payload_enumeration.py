"""The decoders accept exactly the payloads the encoders produce, at small n.

Every payload whose segment lengths fit the header is decoded.  The
accepted counts are pinned, and every accepted payload must be the
encoding of the heaps it decodes to.  The joint counts are the Baxter
numbers.
"""

import itertools

from nlvcodec import ColoredEncoding, CorruptionError, JointEncoding
from nlvcodec.colored import decode_colored, encode_colored
from nlvcodec.joint import decode_joint, encode_joint

JOINT_ACCEPTED = {1: 1, 2: 2, 3: 6, 4: 22, 5: 92}
COLORED_ACCEPTED = {1: 1, 2: 2, 3: 8, 4: 40}


def strings(alphabet, length):
    return ["".join(s) for s in itertools.product(alphabet, repeat=length)]


def streams(length):
    """Every bit str of ``length`` bits."""
    return strings("01", length)


def degree_stream_pairs(n):
    """Every (t_min, t_max) pair holding 2n bits in total."""
    for split in range(2 * n + 1):
        yield from itertools.product(streams(split), streams(2 * n - split))


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
        for g in range((n - 1) // 2 + 1):
            sides = itertools.product(streams(2 * g), streams(g),
                                      strings("012", n - 1 - 2 * g))
            for (t_min, t_max), (u_gb, v_bad, v_neutral) in itertools.product(
                    degree_stream_pairs(n), sides):
                enc = ColoredEncoding(n, t_min, t_max, u_gb, v_bad, v_neutral)
                try:
                    pair = decode_colored(enc)
                except CorruptionError:
                    continue
                assert encode_colored(*pair) == enc
                accepted += 1
        assert accepted == expected, n
