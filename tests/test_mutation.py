"""Corrupt containers: every single-bit flip and every truncation of the
containers of small seeded arrays, under all three schemes.

A mutant must either be rejected with an NlvError, or decode to a
structure that re-serializes to the same bytes and answers every query
it supports with an index in range.  No other exception may escape.
"""

from nlvcodec import (NlvError, ValueArray, decode, deserialize, encode,
                      serialize)

from conftest import make_rng, random_no_equal_neighbours


def seeded_arrays():
    """30 arrays over 1..4 (general only, mostly) and 30 with no equal
    neighbours (all three schemes), n <= 40."""
    rng = make_rng(3)
    arrays = []
    for _ in range(30):
        n = rng.randint(1, 40)
        arrays.append(ValueArray([rng.randint(1, 4) for _ in range(n)]))
        arrays.append(random_no_equal_neighbours(rng, rng.randint(1, 40), hi=4))
    return arrays


def mutants(data):
    for pos in range(len(data)):
        for bit in range(8):
            yield data[:pos] + bytes([data[pos] ^ (1 << bit)]) + data[pos + 1:]
    for length in range(len(data)):
        yield data[:length]


def accepts(data):
    """False when the container is rejected; True when it decodes to a
    structure that passes every check."""
    try:
        enc = deserialize(data)
        qs = decode(enc)
    except NlvError:
        return False
    assert serialize(enc) == data
    n = enc.n
    for i in range(1, n + 1):
        assert 0 <= qs.psv(i) < i and 0 <= qs.plv(i) < i
        if enc.scheme != "joint":
            assert i < qs.nsv(i) <= n + 1 and i < qs.nlv(i) <= n + 1
    return True


def test_bit_flips_and_truncations():
    accepted = rejected = 0
    for a in seeded_arrays():
        schemes = ["general"]
        if a.has_consecutive_equal() is None:
            schemes += ["joint", "colored"]
        for scheme in schemes:
            for data in mutants(serialize(encode(a, scheme))):
                if accepts(data):
                    accepted += 1
                else:
                    rejected += 1
    # the split the decoders gave when this test was written; a change
    # means a decoder now accepts or rejects different containers
    assert (rejected, accepted) == (21577, 869)
