"""In-memory span tracer that wraps library functions from outside.

A span is ``[name, start_ns, end_ns, parent, request]``: ``parent`` is the
index of the enclosing span (None for a request's root) and ``request``
numbers the encode, setup or query the span belongs to.  Spans stay in
memory until the caller writes them out.  Functions called too often for
a span each are counted per request instead.
"""

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # counter name -> request -> calls
        self.request = -1
        self._open = []

    @contextmanager
    def request_span(self, kind):
        """Open the root span of one request, named ``request.<kind>``."""
        self.request += 1
        span = ["request." + kind, 0, 0, None, self.request]
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span[1] = perf_counter_ns()
        try:
            yield self.request
        finally:
            span[2] = perf_counter_ns()
            self._open.pop()

    def _span_wrapper(self, name, func):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0, 0, open_[-1] if open_ else None, self.request]
            spans.append(span)
            open_.append(len(spans) - 1)
            span[1] = perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                open_.pop()
        return traced

    def _counter_wrapper(self, name, func):
        calls = self.counts[name]

        def counted(*args, **kwargs):
            calls[self.request] += 1
            return func(*args, **kwargs)
        return counted

    @contextmanager
    def patched(self, modules, spans, counters):
        """Wrap every function in the ``spans`` and ``counters`` tables
        (name -> (owner, attribute)) at its owner and at every alias in
        ``modules``, restoring all of them on exit."""
        undo = []
        try:
            for table, make in ((spans, self._span_wrapper),
                                (counters, self._counter_wrapper)):
                for name, (owner, attr) in table.items():
                    _rebind(owner, attr, name, make, modules, undo)
            yield self
        finally:
            for target, key, old in reversed(undo):
                if isinstance(target, dict):
                    target[key] = old
                else:
                    setattr(target, key, old)


def _rebind(owner, attr, name, make, modules, undo):
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        func = raw.__func__
        wrapper = make(name, func)
        undo.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper))
        return
    func = raw
    wrapper = make(name, func)
    targets = [(owner, attr)]
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is func and mod is not owner:
                targets.append((mod, key))
            elif isinstance(value, dict) and key != "__builtins__":
                targets.extend((value, k) for k, v in value.items() if v is func)
    for target, key in targets:
        if isinstance(target, dict):
            undo.append((target, key, target[key]))
            target[key] = wrapper
        else:
            undo.append((target, key, vars(target)[key]))
            setattr(target, key, wrapper)


def self_times(spans):
    """Per span: its duration minus the durations of its direct children.

    Spans of one thread nest, so children never overlap and the self
    times of a request sum to its root's duration.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_totals(spans):
    """name -> (calls, self seconds), summed over all spans."""
    calls = Counter()
    self_ns = Counter()
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_ns[span[0]] += own
    return {name: (calls[name], self_ns[name] / 1e9) for name in calls}
