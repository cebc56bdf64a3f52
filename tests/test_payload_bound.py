"""Each encoding's ``payload_bound(n)``: what it computes, that every
payload meets it, and that the README's table states it."""

import math
import os
import re

import pytest

from nlvcodec import (MAX_N, ColoredEncoding, GeneralEncoding, JointEncoding,
                      ValueArray, encode)
from nlvcodec import fuzz
from nlvcodec.arrays import compute_runs, reduced_array
from nlvcodec.bitio import BITS_PER_BLOCK, TRITS_PER_BLOCK, trit_pack_bits

from conftest import make_rng

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")
ENCODINGS = {"joint": JointEncoding, "colored": ColoredEncoding,
             "general": GeneralEncoding}


def test_two_trits_cost_three_or_four_bits():
    """g = 0 gives the largest colored payload for every n, and the
    largest colored part of a general payload for every k.

    A colored payload of n elements with g good and g bad indices is
    2n + 3g + trit_pack_bits(n - 1 - 2g) bits.  Raising g by one adds a
    good/bad pair's 3 bits and takes away two trits, which saves
    step(m) = trit_pack_bits(m) - trit_pack_bits(m - 2) bits, m = n - 1 -
    2(g - 1).  trit_pack_bits depends on m only through divmod(m, 41),
    and the second loop shows trit_pack_bits(m + 41) = trit_pack_bits(m) +
    65 over one period, so step(m + 41) = step(m) at every m >= 2.  The
    first loop checks step(m) in {3, 4} at 41 consecutive m, one whole
    period, so it holds at every m: no g > 0 yields more than g = 0, at
    any n.  The general payload's colored part is the same sum with n - k
    elements in place of n, and its rank width does not depend on g, so
    g = 0 is also its maximum at every k, as ``_largest_general_payload``
    takes it.
    """
    for m in range(2, 2 + TRITS_PER_BLOCK):
        assert trit_pack_bits(m) - trit_pack_bits(m - 2) in (3, 4), m
    # one period of trit_pack_bits covers every m
    for m in range(TRITS_PER_BLOCK):
        assert trit_pack_bits(m + TRITS_PER_BLOCK) == trit_pack_bits(m) + BITS_PER_BLOCK


def test_colored_bound_is_the_largest_payload_over_g():
    for n in range(1, 301):
        largest = max(2 * n + 3 * g + trit_pack_bits(n - 1 - 2 * g)
                      for g in range((n - 1) // 2 + 1))
        assert ColoredEncoding.payload_bound(n) == largest, n


def test_colored_bound_meets_the_linear_gate():
    # the fuzz gate before the exact bound was 3.586n + 70
    for n in range(1, 10**6 + 1):
        assert ColoredEncoding.payload_bound(n) <= 3.586 * n + 70, n


def test_payloads_meet_their_bounds():
    rng = make_rng(61)
    for dist in fuzz.DISTRIBUTIONS:
        for _ in range(15):
            a = fuzz.random_array(rng, 2000, 5, dist)
            reduced = reduced_array(a, compute_runs(a))
            encs = [encode(reduced, "joint"), encode(reduced, "colored"),
                    encode(a, "general")]
            for enc in encs:
                assert enc.payload_bits() <= enc.payload_bound(enc.n), (dist, enc.scheme)
            assert encs[0].payload_bits() == encs[0].payload_bound(reduced.n)


def test_monotone_colored_payload_is_its_bound():
    # an increasing array has g = 0, the largest colored payload
    enc = encode(ValueArray(range(1, 1001)), "colored")
    assert enc.g == 0
    assert enc.payload_bits() == ColoredEncoding.payload_bound(1000)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: 41-trit blocks cost 4.0e-4 bits per trit over log2 3, "
    "so the general payload crosses its bound from about n = 3.84e5"))
def test_general_payload_meets_its_bound_at_5e5():
    # increasing with k = n/13 equal neighbours: the reduced array is
    # increasing, so g = 0 and the colored part has the most trits
    n = 500_000
    k = n // 13
    repeats = set(make_rng(62).sample(range(1, n), k))
    values = [1]
    for i in range(1, n):
        values.append(values[-1] + (i not in repeats))
    enc = encode(ValueArray(values), "general")
    if enc.k != k or enc.colored.g != 0:
        raise ValueError("not the monotone family with k = n/13 and g = 0")
    # 42.1 bits over while item 3 is open
    assert enc.payload_bits() <= GeneralEncoding.payload_bound(n)


# n at which the width-only check takes every k, and the log-spaced n
# from there to MAX_N at which it takes k within 64 of n/13
EVERY_K_UP_TO = 1500
WINDOW_NS = sorted({round(EVERY_K_UP_TO * (MAX_N / EVERY_K_UP_TO) ** (i / 149))
                    for i in range(150)})
# the general payload crosses its bound between 3.83e5 and 3.85e5
CROSSES_BOUND_AT = 384_000


def _ln_factorial(m):
    return math.lgamma(m + 1)


def _largest_general_payload(n, ks, ln_factorial=_ln_factorial):
    """The largest general payload of n elements over the run counts ks,
    at g = 0, from segment widths alone: the rank width, the degree
    streams and the packed trits of the colored part of n - k elements.
    The rank width is the ceiling of the lgamma sum for log2 C(n-1, k)
    plus the margin that ``subset_rank_width`` gives that sum, so it is
    never below the exact width and no binomial is computed."""
    length = n - 1
    whole = ln_factorial(length)
    margin = max(whole, 1.0) * 2.0 ** -40
    ln2 = math.log(2)
    return max(
        (0 if k in (0, length) else
         math.ceil((whole - ln_factorial(k) - ln_factorial(length - k)) / ln2
                   + margin))
        + 2 * (n - k) + trit_pack_bits(n - k - 1)
        for k in ks)


def test_joint_payload_is_exactly_its_bound():
    # U has n - 1 bits and the degree streams 2n, whatever the array
    for n in list(range(1, EVERY_K_UP_TO + 1)) + WINDOW_NS:
        assert JointEncoding.payload_bound(n) == (n - 1) + 2 * n == 3 * n - 1, n


@pytest.mark.parametrize("n", WINDOW_NS)
def test_colored_widths_peak_at_g_0(n):
    # g = 0..82 takes 2g = 0..164 trits away, four periods of 41: the
    # payload never grows with g, so its largest is the bound, at g = 0
    payloads = [2 * n + 3 * g + trit_pack_bits(n - 1 - 2 * g) for g in range(83)]
    assert payloads[0] == ColoredEncoding.payload_bound(n)
    assert all(a >= b for a, b in zip(payloads, payloads[1:]))


def test_general_widths_meet_the_bound_for_every_k():
    table = list(map(_ln_factorial, range(EVERY_K_UP_TO)))
    for n in range(1, EVERY_K_UP_TO + 1):
        assert (_largest_general_payload(n, range(n), table.__getitem__)
                <= GeneralEncoding.payload_bound(n)), n


@pytest.mark.parametrize("n", [
    n if n <= CROSSES_BOUND_AT else pytest.param(n, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "ROADMAP item 3: 41-trit blocks cost 4.0e-4 bits per trit over "
            "log2 3, so the general payload crosses its bound from about "
            "n = 3.84e5")))
    for n in WINDOW_NS])
def test_general_widths_meet_the_bound_near_n_over_13(n):
    # log2 C(n-1, k) + 2(n - k) + (n - k) log2 3 peaks at k = n/13
    centre = n // 13
    ks = range(max(centre - 64, 0), min(centre + 64, n - 1) + 1)
    assert _largest_general_payload(n, ks) <= GeneralEncoding.payload_bound(n)


def test_readme_table_states_each_bound():
    with open(README, encoding="utf-8") as fh:
        rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
                for line in fh if line.startswith("|")]
    column = rows[0].index("at n = 10⁵")
    stated = {row[0].strip("`"): row[column] for row in rows[2:]}
    assert sorted(stated) == sorted(ENCODINGS)
    for scheme, cls in ENCODINGS.items():
        bound = math.floor(cls.payload_bound(10**5))
        assert int(re.sub(r"\s", "", stated[scheme])) == bound, scheme


def test_fuzz_names_are_the_encodings_bounds():
    # the benchmark's correctness gate reads the bounds by these names
    assert fuzz.colored_payload_bound is ColoredEncoding.payload_bound
    assert fuzz.general_payload_bound is GeneralEncoding.payload_bound
