"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import time

from nlvcodec import (ColoredEncoding, GeneralEncoding, ValueArray,
                      deserialize, serialize)
from nlvcodec.arrays import ORACLES, QUERY_KINDS
from nlvcodec.colored import count_good_bad, decode_colored, encode_colored
from nlvcodec.general import LOG2_13, decode_general, encode_general
from nlvcodec.joint import encode_joint
from nlvcodec.queries import TREE_QUERIES
from nlvcodec.trees import (build_max_heap, build_min_heap,
                            check_leaf_internal_duality, check_red_leaf_rule,
                            colorize)

from conftest import FIGURE_VALUES, make_rng, random_no_equal_neighbours

C_STAR = 2 + math.log2(3)


def colored_encode(a):
    return encode_colored(colorize(build_min_heap(a), a),
                          colorize(build_max_heap(a), a))


def test_criterion_1_joint_size_exact():
    """Joint payload is exactly 3n-1 bits, with the published figure strings."""
    a = ValueArray(FIGURE_VALUES)
    enc = encode_joint(build_min_heap(a), build_max_heap(a))
    assert enc.payload_bits() == 26
    assert enc.u == "01011001"
    assert enc.t_min == "110100010"
    assert enc.t_max == "110110000"
    rng = make_rng(101)
    for _ in range(200):
        b = random_no_equal_neighbours(rng, rng.randint(1, 500), hi=10**6)
        e = encode_joint(build_min_heap(b), build_max_heap(b))
        assert e.payload_bits() == 3 * b.n - 1
    print("PASS criterion 1: joint payload exactly 3n-1 bits "
          "(figure strings verified)")


def test_criterion_2_colored_size_and_speed():
    """Colored payload <= 2n + trit_pack_bits(n-1) up to n = 1e5; figure
    array is 31 bits; < 1 s at n = 1e5."""
    a = ValueArray(FIGURE_VALUES)
    enc = colored_encode(a)
    assert enc.payload_bits() == 31
    assert enc.u_gb == "0100"
    assert enc.v_bad == "10"
    assert enc.v_neutral == "2022"
    rng = make_rng(102)
    for n in (1, 2, 3, 50, 1000, 20000, 10**5):
        b = random_no_equal_neighbours(rng, n, hi=max(2, n))
        elapsed = float("inf")
        for _ in range(2):  # best of two, to shrug off scheduler noise
            t0 = time.perf_counter()
            e = colored_encode(b)
            elapsed = min(elapsed, time.perf_counter() - t0)
        assert e.payload_bits() <= ColoredEncoding.payload_bound(n), n
        if n == 10**5:
            assert elapsed < 1.0, elapsed
    print("PASS criterion 2: colored payload <= 2n + trit_pack_bits(n-1) "
          "up to n=1e5, "
          "figure = 31 bits, %.2fs at n=1e5" % elapsed)


def test_criterion_3_general_size_and_speed():
    """General payload <= log2(13) n + 2 ceil(log2 n) + 96 across
    distributions up to n = 1e5; < 5 s per array at n = 1e5."""
    rng = make_rng(103)
    worst = 0.0
    cases = []
    for n in (1, 2, 7, 100, 5000, 10**5):
        cases.append(ValueArray([5] * n))                       # constant
        cases.append(ValueArray([rng.randint(1, 2) for _ in range(n)]))
        cases.append(ValueArray(rng.sample(range(4 * n), n)))   # distinct
    for a in cases:
        elapsed = float("inf")
        for _ in range(2 if a.n == 10**5 else 1):
            t0 = time.perf_counter()
            enc = encode_general(a)
            elapsed = min(elapsed, time.perf_counter() - t0)
        assert enc.payload_bits() <= GeneralEncoding.payload_bound(a.n), a.n
        if a.n == 10**5:
            assert elapsed < 5.0, elapsed
            worst = max(worst, elapsed)
    print("PASS criterion 3: general payload <= log2(13)n + 2ceil(log n) + 96 "
          "on constant/binary/distinct arrays, worst %.2fs at n=1e5" % worst)


def test_criterion_4_oracle_equivalence_exhaustive():
    """All 2187 arrays of length 7 over {1,2,3} (plus shorter ones): decoded
    answers equal the brute-force oracle, every index, every kind."""
    arrays = 0
    for n in range(1, 8):
        for values in itertools.product((1, 2, 3), repeat=n):
            a = ValueArray(values)
            qs = decode_general(encode_general(a))
            no_runs = a.has_consecutive_equal() is None
            if no_runs:
                dmin, dmax = decode_colored(colored_encode(a))
            for kind in QUERY_KINDS:
                oracle = ORACLES[kind]
                for i in range(1, n + 1):
                    expected = oracle(a, i)
                    assert qs.query(kind, i) == expected, (values, kind, i)
                    if no_runs:
                        tree = dmin if kind in ("psv", "nsv") else dmax
                        assert TREE_QUERIES[kind](tree, i) == expected
            arrays += 1
    assert arrays == sum(3 ** n for n in range(1, 8))
    print("PASS criterion 4: oracle equivalence on all %d arrays "
          "(scheme 3 always, scheme 2 when applicable)" % arrays)


def test_criterion_5_good_equals_bad():
    """g = b on 10,000 random no-consecutive-equals arrays and all small
    arrays."""
    rng = make_rng(105)
    for _ in range(10000):
        a = random_no_equal_neighbours(rng, rng.randint(1, 1000), hi=30)
        g, b = count_good_bad(build_min_heap(a), build_max_heap(a))
        assert g == b, list(a.values)
    for n in range(1, 7):
        for values in itertools.product((1, 2, 3), repeat=n):
            a = ValueArray(values)
            if a.has_consecutive_equal() is None:
                g, b = count_good_bad(build_min_heap(a), build_max_heap(a))
                assert g == b, values
    print("PASS criterion 5: good count equals bad count on 10,000 random "
          "and all exhaustive small arrays")


def test_criterion_6_structural_rules():
    """Leaf/internal duality and the red-leaf rule on every generated
    no-consecutive-equals array."""
    rng = make_rng(106)
    checked = 0
    pool = [random_no_equal_neighbours(rng, rng.randint(1, 400), hi=50)
            for _ in range(500)]
    pool += [ValueArray(v) for n in range(1, 7)
             for v in itertools.product((1, 2, 3), repeat=n)
             if ValueArray(v).has_consecutive_equal() is None]
    for a in pool:
        min_t = build_min_heap(a)
        max_t = build_max_heap(a)
        assert check_leaf_internal_duality(min_t, max_t) is None, list(a.values)
        assert check_red_leaf_rule(colorize(min_t, a)), list(a.values)
        assert check_red_leaf_rule(colorize(max_t, a)), list(a.values)
        checked += 1
    print("PASS criterion 6: leaf/internal duality and red-leaf rule "
          "hold on %d arrays" % checked)


def test_criterion_7_inequality_sweep():
    """c(n-k) + log2 C(n,k) <= log2(13) n + 1e-6 n for all n <= 2000 and all
    k; the maximizing k/n stays within 0.02 of 1/13 for n >= 500."""
    for n in range(1, 2001):
        log_binom = 0.0
        best_k, best_lhs = 0, C_STAR * n
        for k in range(n + 1):
            lhs = C_STAR * (n - k) + log_binom
            assert lhs <= LOG2_13 * n + 1e-6 * n, (n, k)
            if lhs > best_lhs:
                best_k, best_lhs = k, lhs
            if k < n:
                log_binom += math.log2((n - k) / (k + 1))
        if n >= 500:
            assert abs(best_k / n - 1 / 13) <= 0.02, (n, best_k)
    print("PASS criterion 7: inequality sweep n <= 2000, maximizer near k/n = "
          "1/13 for n >= 500")


def test_criterion_8_round_trip_bit_exact():
    """encode(decode(encode(A))) is bit-for-bit identical for all three
    schemes on fuzzed inputs."""
    rng = make_rng(108)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 300)
        a = ValueArray([rng.randint(1, rng.choice([1, 2, 4, 10**6]))
                        for _ in range(n)])
        encs = [encode_general(a)]
        if a.has_consecutive_equal() is None:
            min_t = build_min_heap(a)
            max_t = build_max_heap(a)
            encs.append(encode_joint(min_t, max_t))
            encs.append(colored_encode(a))
        for enc in encs:
            data = serialize(enc)
            assert serialize(deserialize(data)) == data
            checked += 1
        # decode to structures and re-encode: payloads must be identical
        if a.has_consecutive_equal() is None:
            from nlvcodec.joint import decode_joint
            assert encode_joint(*decode_joint(encs[1])) == encs[1]
            assert encode_colored(*decode_colored(encs[2])) == encs[2]
        ge = encs[0]
        assert encode_colored(*decode_colored(ge.colored)) == ge.colored
    print("PASS criterion 8: container round trips bit-exact "
          "(%d encodings)" % checked)
