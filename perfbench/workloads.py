"""Seeded workload generators, query lists and linear-time answer
references.

Every generator takes its random source as an argument, so one seed
always gives the same array and the same query list.  The library only
ever sees the integer text made from the array.
"""

import random
from collections import namedtuple

# Fixed here rather than taken from the library, so query lists do not
# change when the library does.
KINDS = ("psv", "plv", "nsv", "nlv")

Workload = namedtuple("Workload", "generate n scheme n_queries why")


def distinct(rng, n):
    """A random permutation of 1..n."""
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return values


def binary(rng, n):
    """i.i.d. fair bits."""
    return [rng.getrandbits(1) for _ in range(n)]


def monotone_runs(rng, n):
    """Strictly increasing except at floor(n/13) seeded positions i where
    A[i] == A[i+1]."""
    equal_after = set(rng.sample(range(1, n), n // 13))
    values = []
    v = 0
    for i in range(1, n + 1):
        values.append(v)
        if i not in equal_after:
            v += 1
    return values


# Query lists hold at least 1000 queries, so at least ten samples lie
# beyond p99.  n is small enough that one encode, setup or query pass
# takes 0.01-0.3 s, so a run repeats each phase tens of times and takes
# its medians over many samples.  Each decoded structure (4-8 MB)
# exceeds a 2 MB L2 cache but fits in a last-level cache of tens of MB or
# more, so no workload measures queries that miss every cache.
WORKLOADS = {
    "distinct": Workload(
        distinct, 20_000, "colored", 20_000,
        "colored scheme on a permutation: heap build, colorize, trit "
        "packing and bit I/O do the work; no subset rank; walks are short"),
    "binary": Workload(
        binary, 20_000, "general", 8_000,
        "general scheme with k about n/2: quadratic subset rank/unrank and "
        "long equal-sibling walks for next-value queries"),
    "monotone_runs": Workload(
        monotone_runs, 20_000, "general", 1_200,
        "general scheme at the log2(13) worst case k = n/13, g = 0: trit "
        "packing peaks and NSV climbs a path instead of walking siblings"),
}


def make_inputs(name, seed, n=None, n_queries=None):
    """The array and query list of workload ``name`` for ``seed``."""
    w = WORKLOADS[name]
    n = w.n if n is None else n
    n_queries = w.n_queries if n_queries is None else n_queries
    values = w.generate(random.Random("%s/%d/array" % (name, seed)), n)
    qrng = random.Random("%s/%d/queries" % (name, seed))
    # Each kind gets the same share of the list, so the mix of fast and
    # slow kinds, which sets throughput and where p50 falls, is the same
    # for every seed.  A kind's indices are stratified: one uniform draw
    # from each of as many equal slices of 1..n as the kind has queries.
    # Every index is still equally likely, but the list covers 1..n
    # evenly, so the total walk length, which grows with the distance
    # from an index to the end of the array, no longer swings with how a
    # seed's draws happen to cluster.  The slices are shuffled before the
    # draws, so the query tuples are made in list order and lie in memory
    # in the order a pass reads them, as when a caller makes queries on
    # the fly (tuples made in kind order and then shuffled cost distinct
    # 20% of its throughput in cache misses on the list itself).
    slices = []
    for k, kind in enumerate(KINDS):
        count = len(range(k, n_queries, len(KINDS)))
        slices += [(kind, j * n // count, max((j + 1) * n // count, j * n // count + 1))
                   for j in range(count)]
    qrng.shuffle(slices)
    query_list = [(kind, 1 + qrng.randrange(lo, hi)) for kind, lo, hi in slices]
    return values, query_list


def to_text(values):
    return " ".join(map(str, values))


def stack_references(values):
    """All four answers for every index, 1-based, in O(n) per kind.

    PSV/PLV answer 0 and NSV/NLV answer n+1 when no such index exists.
    """
    n = len(values)
    refs = {}
    for kind, left, smaller in (("psv", True, True), ("plv", True, False),
                                ("nsv", False, True), ("nlv", False, False)):
        out = [0] * n
        stack = []
        order = range(n) if left else range(n - 1, -1, -1)
        missing = 0 if left else n + 1
        for i in order:
            v = values[i]
            if smaller:
                while stack and values[stack[-1]] >= v:
                    stack.pop()
            else:
                while stack and values[stack[-1]] <= v:
                    stack.pop()
            out[i] = stack[-1] + 1 if stack else missing
            stack.append(i)
        refs[kind] = out
    return refs


def expected_answers(refs, query_list):
    return [refs[kind][i - 1] for kind, i in query_list]
