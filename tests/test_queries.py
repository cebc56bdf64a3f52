import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlvcodec import (RangeError, ValueArray, decode, deserialize, encode,
                      serialize)
from nlvcodec.arrays import (ORACLES, QUERY_KINDS, compute_runs, end_labels,
                             reduced_array)
from nlvcodec.general import decode_runs
from nlvcodec.joint import decode_heaps
from nlvcodec.queries import (TREE_QUERIES, nlv_from_tree, nsv_from_tree,
                              plv_from_tree, psv_from_tree)
from nlvcodec.trees import (SIB_BLUE, ColoredTree, OrdinalTree,
                            _next_value_table, build_max_heap, build_min_heap,
                            colorize)

from conftest import decoded_pair, make_rng, random_no_equal_neighbours


@pytest.fixture
def figure_cmin(figure_array):
    return decoded_pair(figure_array)[0]


@pytest.fixture
def figure_cmax(figure_array):
    return decoded_pair(figure_array)[1]


class TestParentQueries:
    def test_psv_figure(self, figure_cmin):
        assert psv_from_tree(figure_cmin, 9) == 7
        assert psv_from_tree(figure_cmin, 6) == 0

    def test_psv_chain(self):
        cmin = decoded_pair(ValueArray([1, 2, 3]))[0]
        assert psv_from_tree(cmin, 3) == 2

    def test_plv_figure(self, figure_cmax):
        assert plv_from_tree(figure_cmax, 9) == 8

    def test_range_errors(self, figure_cmin):
        with pytest.raises(RangeError):
            psv_from_tree(figure_cmin, 0)
        with pytest.raises(RangeError):
            nsv_from_tree(figure_cmin, 10)

    def test_range_errors_all_kinds(self, figure_cmin, figure_cmax):
        # the same message as QueryStructure.query's
        for kind, query in TREE_QUERIES.items():
            tree = figure_cmin if kind in ("psv", "nsv") else figure_cmax
            for i in (0, 10):
                with pytest.raises(RangeError, match=r"^index %d out of range 1\.\.9$" % i):
                    query(tree, i)


class TestColorWalk:
    def test_nsv_blue_hop(self, figure_cmin):
        # 1 is blue (equal-valued sibling 5), 5 is red with sibling 6
        assert nsv_from_tree(figure_cmin, 1) == 6

    def test_nsv_immediate_red(self, figure_cmin):
        assert nsv_from_tree(figure_cmin, 2) == 3

    def test_nsv_sentinel(self, figure_cmin):
        assert nsv_from_tree(figure_cmin, 9) == 10

    def test_nlv_climb(self, figure_cmax):
        # 5 has no right sibling; parent 4 has right sibling 7
        assert nlv_from_tree(figure_cmax, 5) == 7

    def test_nlv_sentinel_at_max(self, figure_cmax):
        assert nlv_from_tree(figure_cmax, 8) == 10

    def test_all_queries_figure(self, figure_array, figure_cmin, figure_cmax):
        for kind in ("psv", "nsv"):
            for i in range(1, 10):
                assert (TREE_QUERIES[kind](figure_cmin, i)
                        == ORACLES[kind](figure_array, i))
        for kind in ("plv", "nlv"):
            for i in range(1, 10):
                assert (TREE_QUERIES[kind](figure_cmax, i)
                        == ORACLES[kind](figure_array, i))


def _assert_all_queries_match(a):
    cmin, cmax = decoded_pair(a)
    for kind in ("psv", "nsv", "plv", "nlv"):
        tree = cmin if kind in ("psv", "nsv") else cmax
        for i in range(1, a.n + 1):
            assert TREE_QUERIES[kind](tree, i) == ORACLES[kind](a, i), \
                (list(a.values), kind, i)


class TestOracleEquivalence:
    def test_exhaustive_no_equal_neighbours(self):
        for n in range(1, 7):
            for values in itertools.product(range(1, 4), repeat=n):
                a = ValueArray(values)
                if a.has_consecutive_equal() is None:
                    _assert_all_queries_match(a)

    def test_randomized_larger(self):
        rng = make_rng(21)
        for _ in range(40):
            _assert_all_queries_match(
                random_no_equal_neighbours(rng, rng.randint(1, 120), hi=8))

    def test_walk_terminates_without_revisits(self, figure_cmin):
        # walk length bounded by depth + sibling hops; indirectly checked by
        # equivalence above, directly here on a long equal-plateau array
        # the colored codec takes no equal neighbours, so the decoded forms
        # are made straight from colorize's trees and their blue nodes with
        # a right sibling; the next-value tables are written over the
        # sibling lists, so they get copies
        a = ValueArray([2, 5, 5, 5, 5, 1][i % 6] for i in range(60))
        heaps = []
        for ct in (colorize(build_min_heap(a), a), colorize(build_max_heap(a), a)):
            blue = [i for i, code in enumerate(ct.codes) if code == SIB_BLUE]
            assert blue
            heaps.append((ct.parent, list(ct.right_sib), blue))
        cmin, cmax = (ColoredTree.from_decoded(parent, table) for (parent, _, _), table
                      in zip(heaps, _next_value_table(heaps)))
        for i in range(1, a.n + 1):
            assert nsv_from_tree(cmin, i) == ORACLES["nsv"](a, i)
            assert nlv_from_tree(cmax, i) == ORACLES["nlv"](a, i)


def _per_heap_table(parent, right_sib, blue, labels=None):
    """One heap's next-value table, from a top-down pass of its own: the
    reference for ``_next_value_table``'s one loop over both heaps."""
    n = len(parent) - 1
    table = right_sib
    table[0] = n + 1
    for j in range(1, n + 1) if labels is None else filter(None, labels):
        if not table[j]:
            table[j] = table[parent[j]]
    for i in reversed(blue):
        table[i] = table[table[i]]
    return table


@st.composite
def run_arrays(draw):
    """Arrays over an alphabet of 2-4 values, built from equal runs of
    length 1-12."""
    alphabet = draw(st.integers(2, 4))
    runs = draw(st.lists(st.tuples(st.integers(1, alphabet), st.integers(1, 12)),
                         min_size=1, max_size=24))
    return ValueArray([v for v, length in runs for _ in range(length)])


class TestNextValueTables:
    @given(run_arrays())
    @settings(max_examples=150, deadline=None)
    def test_decoded_tables_match_oracles(self, a):
        # joint and colored need no equal neighbours, which run arrays
        # almost never lack, so they take the run-compressed array
        reduced = reduced_array(a, compute_runs(a))
        for scheme, b in (("general", a), ("joint", reduced), ("colored", reduced)):
            qs = decode(deserialize(serialize(encode(b, scheme))))
            for kind, table in qs.tables.items():
                assert table[1:] == [ORACLES[kind](b, i)
                                     for i in range(1, b.n + 1)], (scheme, kind)

    def test_one_loop_equals_the_per_heap_reference(self):
        # colored containers of small alphabets have blue nodes in both
        # heaps; general ones of arrays in runs take run-end labels, with
        # 0 at every index inside a run
        rng = make_rng(26)
        cases = []
        for _ in range(60):
            cases.append((encode(random_no_equal_neighbours(
                rng, rng.randint(1, 150), hi=rng.choice((3, 5, 40))), "colored"), None))
            runs = ValueArray([v for _ in range(rng.randint(1, 30))
                               for v in [rng.randint(1, 4)] * rng.randint(1, 5)])
            enc = encode(runs, "general")
            cases.append((enc.colored, end_labels(decode_runs(enc))))
        blue_seen = [0, 0]
        inside_runs = 0
        for enc, labels in cases:
            heaps = decode_heaps(enc.n, enc.t_min, enc.t_max, u_gb=enc.u_gb,
                                 v_bad=enc.v_bad, v_neutral=enc.v_neutral,
                                 labels=labels)
            expected = [_per_heap_table(parent, list(sib), blue, labels)
                        for parent, sib, blue in heaps]
            assert list(_next_value_table(heaps, labels)) == expected
            for h, (_, _, blue) in enumerate(heaps):
                blue_seen[h] += len(blue)
            inside_runs += labels is not None and labels.count(0) > 1
        assert min(blue_seen) > 100
        assert inside_runs > 10

    def test_structure_holds_only_tables(self):
        cases = [("joint", [3, 1, 2, 5, 4]), ("colored", [3, 1, 2, 5, 4]),
                 ("general", [3, 3, 1, 2, 2, 2, 5, 4])]
        for scheme, values in cases:
            qs = decode(encode(ValueArray(values), scheme))
            assert type(qs).__slots__ == ("n", "tables")
            assert not hasattr(qs, "__dict__")
            assert qs.n == len(values)
            kinds = ("psv", "plv") if scheme == "joint" else QUERY_KINDS
            assert sorted(qs.tables) == sorted(kinds), scheme
            for table in qs.tables.values():
                assert type(table) is list and len(table) == qs.n + 1


def _monotone_runs(rng, n):
    equal_after = set(rng.sample(range(1, n), n // 13))
    values, v = [], 0
    for i in range(1, n + 1):
        values.append(v)
        v += i not in equal_after
    return ValueArray(values)


def test_no_query_walks(monkeypatch):
    rng = make_rng(5)
    cases = [("colored", ValueArray(rng.sample(range(1000), 300))),
             ("general", ValueArray([rng.getrandbits(1) for _ in range(300)])),
             ("general", _monotone_runs(rng, 300))]
    containers = [(a, serialize(encode(a, scheme))) for scheme, a in cases]

    def refuse(self, i):
        raise AssertionError("a query walked to a right sibling")
    monkeypatch.setattr(OrdinalTree, "right_sibling", refuse)
    for a, data in containers:
        qs = decode(deserialize(data))
        for kind in QUERY_KINDS:
            for i in range(1, a.n + 1):
                assert qs.query(kind, i) == ORACLES[kind](a, i), (kind, i)


@pytest.mark.parametrize("scheme", ["joint", "colored", "general"])
def test_unknown_query_kind(scheme):
    qs = decode(encode(ValueArray([3, 1, 2]), scheme))
    with pytest.raises(ValueError, match="unknown query kind 'bogus'"):
        qs.query("bogus", 1)


@pytest.mark.parametrize("scheme", ["joint", "colored", "general"])
def test_query_error_precedence(scheme):
    # the kind is judged before the index: unknown kind, then joint
    # nsv/nlv, then the range, whatever else is wrong
    qs = decode(encode(ValueArray([3, 1, 2]), scheme))
    for i in (0, 1, 4, -1):
        with pytest.raises(ValueError, match="unknown query kind 'bogus'"):
            qs.query("bogus", i)
    for kind in ("nsv", "nlv"):
        for i in (0, 2, 4):
            if scheme == "joint":
                with pytest.raises(RangeError, match="joint scheme"):
                    qs.query(kind, i)
            elif i == 2:
                assert qs.query(kind, i) == ORACLES[kind](ValueArray([3, 1, 2]), i)
            else:
                with pytest.raises(RangeError, match="out of range 1..3"):
                    qs.query(kind, i)
    for i in (0, 4):
        with pytest.raises(RangeError, match="index %d out of range 1..3" % i):
            qs.query("psv", i)


@pytest.mark.parametrize("scheme", ["joint", "colored", "general"])
def test_unhashable_kind_is_an_unknown_kind(scheme):
    qs = decode(encode(ValueArray([3, 1, 2]), scheme))
    for kind in (["psv"], {"psv": 1}, {"psv"}):
        for i in (0, 1, 4):
            with pytest.raises(ValueError, match=r"^unknown query kind %s$"
                               % re.escape(repr(kind))):
                qs.query(kind, i)


@pytest.mark.parametrize("scheme", ["joint", "colored", "general"])
def test_non_int_index_raises_type_error(scheme):
    qs = decode(encode(ValueArray([3, 1, 2]), scheme))
    for kind in ("psv", "plv"):
        for i in ("1", 1.5, None, [1]):
            with pytest.raises(TypeError):
                qs.query(kind, i)
    # an int index is still answered after a float one failed
    assert qs.query("psv", 3) == ORACLES["psv"](ValueArray([3, 1, 2]), 3)


@pytest.mark.parametrize("scheme", ["joint", "colored", "general"])
def test_error_order_with_an_unhashable_kind(scheme):
    # an unknown kind comes first, then joint nsv/nlv, then the range,
    # whatever the kind's type
    qs = decode(encode(ValueArray([3, 1, 2]), scheme))
    for i in (-1, 0, 2, 4):
        with pytest.raises(ValueError, match="unknown query kind"):
            qs.query(["nsv"], i)
    for i in (-1, 0, 4):
        if scheme == "joint":
            with pytest.raises(RangeError, match="joint scheme"):
                qs.query("nlv", i)
        else:
            with pytest.raises(RangeError, match=r"^index %d out of range 1\.\.3$" % i):
                qs.query("nlv", i)
