"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest -q perfbench
"""

import json
import os
import random

import pytest

import adapter
import run
import workloads
from tracing import Tracer, self_times

SMALL_N = 400
SMALL_Q = 60


def small(name, seed=7):
    return run.prepare(name, seed, n=SMALL_N, n_queries=SMALL_Q)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    first = workloads.make_inputs(name, 3, n=SMALL_N, n_queries=SMALL_Q)
    assert workloads.make_inputs(name, 3, n=SMALL_N, n_queries=SMALL_Q) == first
    assert workloads.make_inputs(name, 4, n=SMALL_N, n_queries=SMALL_Q) != first
    kinds = [kind for kind, _ in first[1]]
    assert all(kinds.count(kind) == SMALL_Q // 4 for kind in workloads.KINDS)


def test_each_kind_draws_one_index_from_each_slice():
    _, query_list = workloads.make_inputs("binary", 2, n=SMALL_N, n_queries=SMALL_Q)
    per_kind = SMALL_Q // 4
    bounds = [j * SMALL_N // per_kind for j in range(per_kind + 1)]
    for kind in workloads.KINDS:
        indices = sorted(i - 1 for k, i in query_list if k == kind)
        assert all(lo <= i < hi for i, lo, hi in zip(indices, bounds, bounds[1:]))
        assert len(indices) == per_kind


def test_monotone_runs_has_n_over_13_equal_neighbours():
    values, _ = workloads.make_inputs("monotone_runs", 1, n=1300, n_queries=1)
    steps = [b - a for a, b in zip(values, values[1:])]
    assert steps.count(0) == 100 and steps.count(1) == 1199


def test_stack_references_match_library_oracles():
    rng = random.Random(11)
    arrays = [[5], [2, 2, 2], [3, 1, 2, 1, 3]]
    arrays += [[rng.randint(0, 4) for _ in range(rng.randint(1, 40))] for _ in range(40)]
    arrays += [workloads.make_inputs(name, 1, n=60, n_queries=1)[0]
               for name in workloads.WORKLOADS]
    for values in arrays:
        refs = workloads.stack_references(values)
        a = adapter.ValueArray(values)
        for kind in adapter.QUERY_KINDS:
            assert refs[kind] == [adapter.ORACLES[kind](a, i)
                                  for i in range(1, len(values) + 1)], (kind, values)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_run_reports_every_metric_and_checks_answers(name):
    scheme, text, query_list, expected, info = small(name)
    values, units, tally = run.timed_run(scheme, text, query_list, expected, 0, info)
    assert list(values) == [m for m, _ in run.END_TO_END]
    assert all(v > 0 for v in values.values())
    assert tally.failed == 0 and tally.attempted >= run.MIN_REPS * SMALL_Q


def test_mid_mean_is_the_median_and_holds_still_across_a_gap():
    assert run.mid_mean(list(range(101))) == 50
    assert run.mid_mean([1] * 50 + [3] * 50) == 2
    assert run.mid_mean([7]) == 7


def test_host_speed_scales_by_the_reference_times_around_a_phase(monkeypatch):
    times = iter([run.REF_S, 3 * run.REF_S, run.REF_S])
    monkeypatch.setattr(run, "reference_s", lambda: next(times))
    speed = run.HostSpeed()
    assert speed.scale() == 0.5
    assert speed.scale() == 0.5
    assert speed.times == [run.REF_S, 3 * run.REF_S, run.REF_S]


def test_a_wrong_answer_is_counted_not_raised():
    scheme, text, query_list, expected, info = small("binary")
    expected = list(expected)
    expected[0] += 1
    _, _, tally = run.timed_run(scheme, text, query_list, expected, 0, info)
    # Once in the warm-up cycle, then in each tight and each clocked pass.
    assert tally.failed == 1 + 2 * info["query_passes"]


def test_a_raising_query_is_counted_and_kept():
    scheme, text, query_list, expected, info = small("distinct")
    bad = query_list[0]

    def querier(structure):
        query = scheme.querier(structure)
        return lambda kind, i: 1 // 0 if (kind, i) == bad else query(kind, i)
    _, _, tally = run.timed_run(scheme._replace(querier=querier), text, query_list,
                                expected, 0, info)
    # A tight pass stops at the raise and is not counted; each clocked
    # pass counts the query and goes on.
    assert tally.failed == query_list.count(bad) * (1 + info["query_passes"])
    assert isinstance(tally.first_error, ZeroDivisionError)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    results = []
    for attempt in range(2):
        scheme, text, query_list, expected, info = small(name)
        values, units, tally = run.trace_run(scheme, text, query_list, expected, 0,
                                             info, str(tmp_path / ("%d.json" % attempt)))
        assert tally.failed == 0
        assert list(values) == [m for m, _ in run.per_layer_names()]
        results.append({k: v for k, v in values.items()
                        if units[k] != "s" and k != "trace_overhead_frac"})
    assert results[0] == results[1]
    assert results[0]["bitio.BitStream.read_bit.calls"] > 0
    if name == "distinct":
        assert results[0]["bitio.subset_rank.calls"] == 0
        assert results[0]["queries.right_sibling.long_walk_frac"] == 0
    else:
        assert results[0]["bitio.subset_rank.calls"] == 1
    spans = json.loads((tmp_path / "1.json").read_text())["spans"]
    assert {s[0] for s in spans} >= {"request.encode", "request.setup", "request.query"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_are_non_negative_and_sum_to_the_root(name):
    scheme, text, query_list, expected, info = small(name)
    tracer = Tracer()
    with tracer.patched(adapter.MODULES, adapter.TRACE_SPANS, adapter.TRACE_COUNTERS):
        _, answers, _ = run.traced_cycle(scheme, text, query_list, tracer)
    assert answers == expected
    own = self_times(tracer.spans)
    assert all(t >= 0 for t in own)
    roots = {span[4]: span for span in tracer.spans if span[3] is None}
    assert len(roots) == 2 + len(query_list)
    per_request = dict.fromkeys(roots, 0)
    for span, t in zip(tracer.spans, own):
        per_request[span[4]] += t
    for request, root in roots.items():
        assert per_request[request] == root[2] - root[1]
    assert len(tracer.spans) > len(roots)


def test_patching_is_undone():
    owner, attr = adapter.TRACE_SPANS["bitio.subset_rank"]
    before = getattr(owner, attr)
    aliases = {mod.__name__: vars(mod).get(attr) for mod in adapter.MODULES}
    tree_queries = dict(adapter.queries.TREE_QUERIES)
    with Tracer().patched(adapter.MODULES, adapter.TRACE_SPANS, adapter.TRACE_COUNTERS):
        assert adapter.general.subset_rank is not before
        assert adapter.queries.TREE_QUERIES["nsv"] is not tree_queries["nsv"]
    assert getattr(owner, attr) is before
    assert {mod.__name__: vars(mod).get(attr) for mod in adapter.MODULES} == aliases
    assert adapter.queries.TREE_QUERIES == tree_queries


def test_benchmark_json_lists_the_metrics_the_run_prints():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(w.n_queries >= 1000 for w in workloads.WORKLOADS.values())
