"""nlvcodec benchmark: integer text -> container bytes -> query answers.

    python3 perfbench/run.py --workload distinct --seed 1 --seconds 30 --trace 0

One caller in one thread drives the library (closed loop).  With
``--trace 0`` the run repeats (encode, setup, passes over the query list)
until ``--seconds`` have passed, then measures setup's memory once
under tracemalloc, and reports the end-to-end metrics.  With ``--trace 1``
it alternates untraced and traced cycles for ``--seconds`` and reports
per-layer self times, exact counts and the tracing overhead; the spans of
the fastest traced cycle are written to ``perfbench/out/``.

Every answer is checked against linear-time references.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

Timing rules, chosen because they hold still from one process to the
next on a small shared host: CPU time (``time.process_time``) for each
phase, ``gc.collect()`` before each timed phase with GC left on, and the
median over repetitions.  Throughput is the median pass over the query
list with no per-call clock.  Query latency percentiles are taken over
the query list in each clocked pass (p50 as the mean of the middle
tenth), then the median is taken over passes.

Every time is reported at the host's nominal speed.  On a shared host the
CPU speed a process gets drifts with its neighbours' load, by 20% and
more over seconds to minutes, and a whole run can land in a slow or a
fast stretch; no estimator over one run's repetitions removes that.  So a
fixed pure-Python reference loop, which never calls the library, is
timed between every two timed phases, and each phase's CPU time is
multiplied by ``REF_S`` over the mean of the reference times on either
side of it.  A change to the library moves these figures exactly as it
moves CPU time; most of a change in the host's speed cancels out.
"""

import argparse
import gc
import json
import math
import os
import statistics
import sys
import traceback
import tracemalloc
from time import perf_counter, perf_counter_ns, process_time

import adapter
import workloads
from tracing import Tracer, layer_totals

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

MIN_REPS = 3
# Each repetition repeats its query passes for at least this much CPU
# time, so a fast pass (distinct: a few ms) still gives every query many
# samples spread over the run.  Throughput comes from a tight pass with
# no per-call clock; latency from a clocked pass right after it.
QUERY_SLICE_S = 0.1
LONG_WALK = 64  # right_sibling calls that make a query a long walk

# The reference loop: REF_ROUNDS steps of integer arithmetic, list
# indexing and stores and one call each, the operations the library's
# pure-Python code is made of.  It touches no memory beyond a small list:
# a variant that also read an 8 MB table at random (to follow the shared
# cache as well) left distinct's latency percentiles twice as spread out
# across runs.  REF_S is its typical CPU time on the 2-vCPU host the
# bounds in BENCHMARK.json were measured on; it only sets the scale of
# the reported times.
REF_ROUNDS = 40_000
REF_S = 0.0075

END_TO_END = (
    ("encode_s", "s"),
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("bits_per_elem", "bits"),
    ("query_struct_mb", "MB"),
    ("setup_peak_mb", "MB"),
)

SIZE_METRICS = ("bits.degree", "bits.gb", "bits.trits", "bits.trits_excess",
                "bits.rank", "counts.g", "counts.k", "counts.m")


def per_layer_names():
    """Every per-layer metric name with its unit, in output order."""
    names = [(span + ".self_s", "s") for span in adapter.TRACE_SPANS]
    names += [("request.%s.total_s" % kind, "s") for kind in ("encode", "setup", "query")]
    names += [("bitio.subset_rank.calls", "count"),
              ("bitio.subset_rank_width.calls", "count"),
              ("bitio.BitStream.read_bit.calls", "count"),
              ("queries.right_sibling.calls_mean", "count"),
              ("queries.right_sibling.calls_max", "count"),
              ("queries.right_sibling.long_walk_frac", "1")]
    names += [(name, "bits" if name.startswith("bits.") else "count")
              for name in SIZE_METRICS]
    names.append(("trace_overhead_frac", "1"))
    return names


class Tally:
    """Operations attempted and failed; a miss is counted, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def check(self, ok):
        self.attempted += 1
        self.failed += not ok

    def answers(self, got, expected):
        self.attempted += len(expected)
        misses = [g for g, e in zip(got, expected) if g != e]
        self.failed += len(misses)
        if self.first_error is None:
            self.first_error = next((g for g in misses if isinstance(g, Exception)), None)


def _ref_step(x, i):
    return (x * 31 + i) & 0xFFFF


def reference_s():
    """CPU seconds of one run of the reference loop."""
    table = list(range(256))
    x = 0
    t0 = process_time()
    for i in range(REF_ROUNDS):
        x = _ref_step(x, table[i & 255])
        table[x & 255] = i
    return process_time() - t0


class HostSpeed:
    """Scales CPU times to the host's nominal speed.

    ``scale()`` is called right after each timed phase: it times the
    reference loop and returns REF_S over the mean of that time and the
    one taken after the phase before, so a phase is judged by the speed
    the host had around it.
    """

    def __init__(self):
        self.times = [reference_s()]

    def scale(self):
        self.times.append(reference_s())
        return 2 * REF_S / (self.times[-2] + self.times[-1])


def ask(query, kind, i):
    """The answer, or the exception a failed query raised."""
    try:
        return query(kind, i)
    except Exception as exc:  # counted as a failed operation, reported once
        return exc


def plain_cycle(scheme, text, query_list):
    t0 = process_time()
    data = scheme.encode(text)
    query = scheme.querier(scheme.setup(data))
    answers = [ask(query, kind, i) for kind, i in query_list]
    return data, answers, process_time() - t0


def traced_cycle(scheme, text, query_list, tracer):
    """plain_cycle with one request span per encode, setup and query."""
    t0 = process_time()
    with tracer.request_span("encode"):
        data = scheme.encode(text)
    with tracer.request_span("setup"):
        structure = scheme.setup(data)
    query = scheme.querier(structure)
    answers = []
    for kind, i in query_list:
        with tracer.request_span("query"):
            answers.append(ask(query, kind, i))
    return data, answers, process_time() - t0


def request_kinds(tracer):
    return {span[4]: span[0][len("request."):]
            for span in tracer.spans if span[3] is None}


def walk_stats(tracer):
    """Mean, max and long-walk share of right_sibling calls per query."""
    kinds = request_kinds(tracer)
    calls = tracer.counts["queries.right_sibling"]
    per_query = [calls[r] for r, kind in kinds.items() if kind == "query"]
    return {"queries.right_sibling.calls_mean": statistics.fmean(per_query),
            "queries.right_sibling.calls_max": max(per_query),
            "queries.right_sibling.long_walk_frac":
                sum(c >= LONG_WALK for c in per_query) / len(per_query)}


def check_container(scheme, data, n, tally):
    """Round trip and payload bound; returns the exact sizes."""
    sizes = adapter.inspect(data)
    tally.check(sizes["roundtrip_equal"])
    tally.check(sizes["payload_bits"] <= scheme.payload_bound(n))
    for key in ("g", "k", "m"):
        sizes["counts." + key] = sizes[key]
    return sizes


def throughput_pass(query, query_list):
    """CPU seconds of one pass over the query list with no per-call clock,
    and its answers; (None, None) if a query raised."""
    t0 = process_time()
    try:
        answers = [query(kind, i) for kind, i in query_list]
    except Exception:
        return None, None
    return process_time() - t0, answers


def latency_pass(query, query_list):
    """CPU seconds, nanoseconds per query and answers of one clocked pass."""
    clock = perf_counter_ns
    latency = [0] * len(query_list)
    answers = [None] * len(query_list)
    t0 = process_time()
    for j, (kind, i) in enumerate(query_list):
        start = clock()
        answers[j] = ask(query, kind, i)
        latency[j] = clock() - start
    return process_time() - t0, latency, answers


def memory_pass(scheme, data):
    """(MB held by setup's result, MB peak during setup) under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        structure = scheme.setup(data)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del structure
    return held / 1e6, peak / 1e6


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def mid_mean(sorted_values, share=0.1):
    """Mean of the middle ``share`` of sorted values, as the median.

    With the kinds in equal shares, the middle of the list can fall in the
    gap between two kinds' latency clusters (binary: PSV/PLV below, NSV/NLV
    above), where the plain median is the mean of one cluster's largest
    and the other's smallest value and swings with them.
    """
    lo = int(len(sorted_values) * (1 - share) / 2)
    return statistics.fmean(sorted_values[lo:max(lo + 1, len(sorted_values) - lo)])


def timed_run(scheme, text, query_list, expected, seconds, info):
    n = info["n"]
    tally = Tally()
    # Warm-up cycle, also counting walk steps; its answers are checked too.
    tracer = Tracer()
    counter = {"queries.right_sibling": adapter.TRACE_COUNTERS["queries.right_sibling"]}
    with tracer.patched(adapter.MODULES, {}, counter):
        data, answers, _ = traced_cycle(scheme, text, query_list, tracer)
    tally.answers(answers, expected)
    info.update(walk_stats(tracer))
    sizes = check_container(scheme, data, n, tally)
    info.update((key, sizes[key]) for key in ("k", "g", "m"))
    del tracer, answers

    encode_s, setup_s, pass_s, p50_ns, p99_ns = [], [], [], [], []
    speed = HostSpeed()
    start = perf_counter()
    while len(encode_s) < MIN_REPS or perf_counter() - start < seconds:
        gc.collect()
        t0 = process_time()
        rep_data = scheme.encode(text)
        encode_s.append((process_time() - t0) * speed.scale())
        tally.check(rep_data == data)
        gc.collect()
        t0 = process_time()
        structure = scheme.setup(rep_data)
        setup_s.append((process_time() - t0) * speed.scale())
        query = scheme.querier(structure)
        gc.collect()
        passes_start = process_time()
        while True:
            tight_s, answers = throughput_pass(query, query_list)
            tight_scale = speed.scale()
            if answers is not None:
                tally.answers(answers, expected)
            clocked_s, latency, answers = latency_pass(query, query_list)
            clocked_scale = speed.scale()
            tally.answers(answers, expected)
            # A pass that raised is timed by the clocked pass, which kept going.
            pass_s.append(clocked_s * clocked_scale if tight_s is None
                          else tight_s * tight_scale)
            latency.sort()
            p50_ns.append(mid_mean(latency) * clocked_scale)
            p99_ns.append(nearest_rank(latency, 0.99) * clocked_scale)
            if process_time() - passes_start >= QUERY_SLICE_S:
                break
        del structure, query, rep_data, answers

    struct_mb, peak_mb = memory_pass(scheme, data)
    info.update(reps=len(encode_s), query_passes=len(pass_s),
                reference_s=statistics.median(speed.times),
                query_samples=len(query_list))
    med = statistics.median
    values = {
        "encode_s": med(encode_s),
        "setup_s": med(setup_s),
        "queries_per_s": len(query_list) / med(pass_s),
        "query_p50_us": med(p50_ns) / 1e3,
        "query_p99_us": med(p99_ns) / 1e3,
        "bits_per_elem": 8 * len(data) / n,
        "query_struct_mb": struct_mb,
        "setup_peak_mb": peak_mb,
    }
    return values, dict(END_TO_END), tally


def layer_metrics(tracer, sizes):
    totals = layer_totals(tracer.spans)
    values = {span + ".self_s": totals.get(span, (0, 0.0))[1]
              for span in adapter.TRACE_SPANS}
    kinds = request_kinds(tracer)
    for kind in ("encode", "setup", "query"):
        values["request.%s.total_s" % kind] = sum(
            end - start for name, start, end, parent, _ in tracer.spans
            if parent is None and name == "request." + kind) / 1e9
    values["bitio.subset_rank.calls"] = totals.get("bitio.subset_rank", (0,))[0]
    values["bitio.subset_rank_width.calls"] = totals.get("bitio.subset_rank_width", (0,))[0]
    read_bit = tracer.counts["bitio.BitStream.read_bit"]
    values["bitio.BitStream.read_bit.calls"] = sum(
        calls for r, calls in read_bit.items() if kinds[r] == "setup")
    values.update(walk_stats(tracer))
    values.update((name, sizes[name]) for name in SIZE_METRICS)
    return values


def trace_run(scheme, text, query_list, expected, seconds, info, out_path):
    n = info["n"]
    tally = Tally()
    data, answers, _ = plain_cycle(scheme, text, query_list)
    tally.answers(answers, expected)
    sizes = check_container(scheme, data, n, tally)
    info.update((key, sizes[key]) for key in ("k", "g", "m"))
    untraced, traced = [], []
    best = None
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        gc.collect()
        _, answers, total = plain_cycle(scheme, text, query_list)
        untraced.append(total)
        tally.answers(answers, expected)
        gc.collect()
        tracer = Tracer()
        with tracer.patched(adapter.MODULES, adapter.TRACE_SPANS, adapter.TRACE_COUNTERS):
            _, answers, total = traced_cycle(scheme, text, query_list, tracer)
        traced.append(total)
        tally.answers(answers, expected)
        if best is None or total < best[0]:
            best = (total, tracer)
        del tracer, answers
    values = layer_metrics(best[1], sizes)
    values["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    info["reps"] = len(traced)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump({"workload": info["workload"], "seed": info["seed"],
                   "span_fields": ["name", "start_ns", "end_ns", "parent", "request"],
                   "spans": best[1].spans}, fh)
    info["spans_file"] = os.path.relpath(out_path)
    return values, dict(per_layer_names()), tally


def prepare(workload, seed, n=None, n_queries=None):
    """The scheme, integer text, query list and expected answers of a run."""
    w = workloads.WORKLOADS[workload]
    values, query_list = workloads.make_inputs(workload, seed, n, n_queries)
    expected = workloads.expected_answers(workloads.stack_references(values), query_list)
    info = {"workload": workload, "seed": seed, "scheme": w.scheme, "n": len(values)}
    return adapter.SCHEMES[w.scheme], workloads.to_text(values), query_list, expected, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scheme, text, query_list, expected, info = prepare(args.workload, args.seed)
    if args.trace:
        out = os.path.join(OUT_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
        metrics, units, tally = trace_run(scheme, text, query_list, expected,
                                          args.seconds, info, out)
    else:
        metrics, units, tally = timed_run(scheme, text, query_list, expected,
                                          args.seconds, info)

    for key, value in info.items():
        print("%-38s %s" % (key, value))
    for name, value in metrics.items():
        print("%-38s %.6g %s" % (name, value, units[name]))
    print("%-38s %.6g 1 (%d failed of %d attempted)"
          % ("fail_frac", tally.failed / tally.attempted, tally.failed, tally.attempted))
    if tally.first_error is not None:
        traceback.print_exception(tally.first_error, file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
