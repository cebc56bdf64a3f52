import random

import pytest

from nlvcodec import (ValueArray, build_max_heap, build_min_heap,
                      colorize, decode_colored, encode_colored)

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

