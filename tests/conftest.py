import itertools
import random

import pytest

from nlvcodec import PreconditionError, ValueArray
from nlvcodec.colored import decode_colored, encode_colored
from nlvcodec.trees import build_max_heap, build_min_heap, colorize

FIGURE_VALUES = [3, 8, 5, 6, 3, 2, 7, 10, 9]


@pytest.fixture
def figure_array():
    """The running example array from the heap drawings."""
    return ValueArray(FIGURE_VALUES)


def random_no_equal_neighbours(rng, n, lo=1, hi=50):
    """Random array with no two consecutive equal values."""
    values = [rng.randint(lo, hi)]
    while len(values) < n:
        v = rng.randint(lo, hi)
        if v != values[-1]:
            values.append(v)
    return ValueArray(values)


def decoded_pair(a):
    """The decoded colored (min, max) heap pair of an array with no
    consecutive equal elements: the trees queries read."""
    return decode_colored(encode_colored(colorize(build_min_heap(a), a),
                                         colorize(build_max_heap(a), a)))


def monotone_runs_array(rng, n):
    """Increasing by 1 except at n // 13 seeded positions i with
    A[i] == A[i+1]: the general scheme's k = n/13 worst case."""
    equal_after = set(rng.sample(range(1, n), n // 13))
    return ValueArray(list(itertools.accumulate(
        0 if i in equal_after else 1 for i in range(n))))


def deep_stack_array(m, negate=False):
    """2, 4, ..., 2m, then 2m-1, 2m-3, ..., 1: n = 2m, and nodes 0..m-1
    of the min heap each have a second child, 2m - j for node j, that
    comes after node m, so the shape loop holds m frames open there.
    Negated, it does the same in the max heap."""
    values = list(range(2, 2 * m + 1, 2)) + list(range(2 * m - 1, 0, -2))
    return ValueArray([-v for v in values] if negate else values)


def scan_arrays():
    """(name, array) pairs on which the array path (``trees.scan_heaps``
    and one payload writer) must match the tree path: the figure, seeded
    arrays over alphabets of 2-6 values, with and without equal
    neighbours, a permutation and the monotone k = n/13 family at 2e4."""
    yield "figure", ValueArray(FIGURE_VALUES)
    rng = make_rng(51)
    for k in range(400):
        alphabet = 2 + k % 5
        n = rng.randint(1, 40)
        if k % 2:
            a = random_no_equal_neighbours(rng, n, hi=alphabet)
        else:
            a = ValueArray([rng.randint(1, alphabet) for _ in range(n)])
        yield "alphabet %d, #%d" % (alphabet, k), a
    values = list(range(1, 20_001))
    make_rng(52).shuffle(values)
    yield "permutation", ValueArray(values)
    yield "monotone runs", monotone_runs_array(make_rng(53), 20_000)


def outcome(encoder, *args):
    """What an encoder gives: its encoding, or the message and index of
    the PreconditionError it raises."""
    try:
        return encoder(*args)
    except PreconditionError as exc:
        return ("PreconditionError", str(exc), exc.index)


def stack_answers(a, kind):
    """Answers of one query kind for i = 1..n, in one monotone-stack scan:
    the linear-time equal of ``ORACLES[kind]`` at every index."""
    values = a.values
    n = len(values)
    forward = kind in ("psv", "plv")
    smaller = kind in ("psv", "nsv")
    out = [0] * n
    stack = []
    for i in (range(n) if forward else range(n - 1, -1, -1)):
        v = values[i]
        while stack and (values[stack[-1]] >= v if smaller
                         else values[stack[-1]] <= v):
            stack.pop()
        out[i] = stack[-1] + 1 if stack else (0 if forward else n + 1)
        stack.append(i)
    return out


def make_rng(seed):
    return random.Random(seed)

