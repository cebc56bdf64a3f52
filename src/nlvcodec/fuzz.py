"""Randomized and exhaustive self-checks: encode, decode, query against
the brute-force oracles, and verify every structural invariant.

Deterministic per seed; used by both the CLI and the test suite.
"""

import itertools
import random

from .arrays import ORACLES, QUERY_KINDS, ValueArray, compute_runs, reduced_array
from .colored import (ColoredEncoding, count_good_bad, decode_colored,
                      encode_colored)
from .container import decode, deserialize, encode, serialize
from .errors import PreconditionError
from .general import GeneralEncoding, encode_general
from .joint import decode_joint, encode_joint
from .trees import (build_max_heap, build_min_heap, check_leaf_internal_duality, check_red_leaf_rule,
                    check_preorder_labels, check_sibling_monotonicity, colorize)

DISTRIBUTIONS = ("distinct", "alphabet", "runs", "monotone_runs")


def random_array(rng, max_n, alphabet, dist):
    n = rng.randint(1, max_n)
    if dist == "distinct":
        values = rng.sample(range(10 * n + 1), n)
    elif dist == "alphabet":
        values = [rng.randint(1, alphabet) for _ in range(n)]
    elif dist == "monotone_runs":  # k = n // 13 equal neighbours, g = 0
        equal_after = set(rng.sample(range(1, n), n // 13))
        step = rng.choice((1, -1))
        values = itertools.accumulate(0 if i in equal_after else step
                                      for i in range(n))
    else:  # long runs
        values = []
        while len(values) < n:
            values.extend([rng.randint(1, alphabet)] * rng.randint(1, max(2, n // 4)))
        values = values[:n]
    return ValueArray(values)


def all_arrays(max_n, alphabet):
    for n in range(1, max_n + 1):
        for combo in itertools.product(range(1, alphabet + 1), repeat=n):
            yield ValueArray(combo)


# the encodings' own bounds, under the names the benchmark reads
general_payload_bound = GeneralEncoding.payload_bound
colored_payload_bound = ColoredEncoding.payload_bound


def _check_container(name, enc, a, kinds, failures):
    """Round-trip ``enc`` through container bytes, then check every answer
    of its decoded structure against the oracles; returns the parsed one."""
    data = serialize(enc)
    parsed = deserialize(data)
    if serialize(parsed) != data:
        failures.append("%s container round-trip differs" % name)
    qs = decode(parsed)
    for kind in kinds:
        for i in range(1, a.n + 1):
            if qs.query(kind, i) != ORACLES[kind](a, i):
                failures.append("%s %s mismatch at %d" % (name, kind, i))
                break
    return parsed


def check_array(a):
    """Run every check on one array; returns a list of failure messages."""
    failures = []
    min_t = build_min_heap(a)
    max_t = build_max_heap(a)
    cmin = colorize(min_t, a)
    cmax = colorize(max_t, a)

    for tree, kind in ((min_t, "min"), (max_t, "max")):
        if not check_preorder_labels(tree):
            failures.append("preorder labels broken in %s heap" % kind)
        if not check_sibling_monotonicity(tree, a, kind):
            failures.append("sibling monotonicity broken in %s heap" % kind)

    equal_at = a.has_consecutive_equal()
    if equal_at is not None:
        # the array path raises at the first equal pair, as the trees do
        for scheme in ("joint", "colored"):
            try:
                encode(a, scheme)
            except PreconditionError as exc:
                if exc.index != equal_at:
                    failures.append("%s encode error names index %r, not %d"
                                    % (scheme, exc.index, equal_at))
            else:
                failures.append("%s encode accepted equal neighbours" % scheme)
    else:
        if check_leaf_internal_duality(min_t, max_t) is not None:
            failures.append("leaf/internal duality violated")
        if not (check_red_leaf_rule(cmin) and check_red_leaf_rule(cmax)):
            failures.append("red-leaf rule violated")
        g, b = count_good_bad(min_t, max_t)
        if g != b:
            failures.append("good count %d != bad count %d" % (g, b))

        joint = encode_joint(min_t, max_t)
        if encode(a, "joint") != joint:
            failures.append("joint array encode differs from the trees'")
        if joint.payload_bits() != joint.payload_bound(a.n):
            failures.append("joint payload is not 3n-1 bits")
        parsed = _check_container("joint", joint, a, ("psv", "plv"), failures)
        dmin, dmax = decode_joint(parsed)
        if dmin != min_t or dmax != max_t:
            failures.append("joint decode does not round-trip")
        if encode_joint(dmin, dmax) != joint:
            failures.append("joint re-encode differs")

        colored = encode_colored(cmin, cmax)
        if encode(a, "colored") != colored:
            failures.append("colored array encode differs from the trees'")
        if colored.payload_bits() > colored.payload_bound(a.n):
            failures.append("colored payload exceeds bound")
        parsed = _check_container("colored", colored, a, QUERY_KINDS, failures)
        qmin, qmax = decode_colored(parsed)
        if qmin != cmin or qmax != cmax:
            failures.append("colored decode does not round-trip")
        if encode_colored(qmin, qmax) != colored:
            failures.append("colored re-encode differs")

    general = encode_general(a)
    if general.payload_bits() > general.payload_bound(a.n):
        failures.append("general payload exceeds bound")
    reduced = reduced_array(a, compute_runs(a))
    if reduced.has_consecutive_equal() is not None:
        failures.append("reduced array still has equal neighbours")
    elif general.colored != encode_colored(colorize(build_min_heap(reduced), reduced),
                                           colorize(build_max_heap(reduced), reduced)):
        failures.append("general colored part differs from the reduced trees'")
    if encode_general(a) != general:
        failures.append("general encode is not deterministic")
    _check_container("general", general, a, QUERY_KINDS, failures)
    return failures


def shrink(values, fails):
    """Greedy minimization: drop elements, then shrink values, while the
    failure predicate keeps holding."""
    values = list(values)
    changed = True
    while changed and len(values) > 1:
        changed = False
        for i in range(len(values)):
            candidate = values[:i] + values[i + 1:]
            if candidate and fails(candidate):
                values = candidate
                changed = True
                break
    for i, v in enumerate(values):
        for smaller in (0, 1):
            if v > smaller:
                candidate = values[:i] + [smaller] + values[i + 1:]
                if fails(candidate):
                    values[i] = smaller
                    break
    return values


class FuzzReport:
    __slots__ = ("arrays_checked", "failures", "reproducer")

    def __init__(self):
        self.arrays_checked = 0
        self.failures = []
        self.reproducer = None

    @property
    def ok(self):
        return not self.failures


def run_fuzz(count, max_n, alphabet, seed, exhaustive=False, log=None):
    """Fuzz ``count`` random arrays (or every array up to max_n when
    exhaustive); deterministic per seed."""
    report = FuzzReport()
    if exhaustive:
        arrays = all_arrays(max_n, alphabet)
    else:
        rng = random.Random(seed)
        arrays = (random_array(rng, max_n, alphabet,
                               DISTRIBUTIONS[i % len(DISTRIBUTIONS)])
                  for i in range(count))
    for a in arrays:
        failures = check_array(a)
        report.arrays_checked += 1
        if failures:
            small = shrink(list(a.values),
                           lambda vs: bool(check_array(ValueArray(vs))))
            report.failures = failures
            report.reproducer = small
            if log:
                log("FAIL on %r: %s" % (list(a.values), "; ".join(failures)))
                log("minimized reproducer: %r" % (small,))
            return report
    if log:
        log("%d arrays checked, 0 failures" % report.arrays_checked)
    return report
