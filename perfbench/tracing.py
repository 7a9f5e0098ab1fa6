"""Calls into the program, direct or traced.

A workload makes every call into the program through ``calls.call(name,
fn, *args)``.  :class:`Direct` just calls ``fn``; :class:`Tracer` records a
span around it (name, parent span, start, end) and keeps the spans in
memory until the run ends.  Root spans are the run's rounds: ``setup``,
``rep`` (one repetition of the timed unit) and ``replay``.  Counters are
attached to the round they were recorded in.  After each top-level call
both let the meter cut its timed segment (see ``meter.py``).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from statistics import median
from time import perf_counter


class Direct:
    traced = False

    def __init__(self, meter):
        self.meter = meter

    def call(self, name, fn, *args, **kwargs):
        value = fn(*args, **kwargs)
        self.meter.tick()
        return value

    def count(self, name, n):
        pass

    def round(self, kind):
        return nullcontext()


class Tracer:
    traced = True

    def __init__(self, meter):
        self.meter = meter
        self.spans: list[list] = []  # [name, parent id, start, end]
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        record = [name, self._stack[-1] if self._stack else None, perf_counter(), None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    round = span

    def call(self, name, fn, *args, **kwargs):
        if not self._stack:  # outside the rounds, e.g. in the checks
            return fn(*args, **kwargs)
        with self.span(name):
            value = fn(*args, **kwargs)
        if len(self._stack) == 1:
            self.meter.tick()
        return value

    def count(self, name, n):
        self.counts[self._stack[0]][name] += n

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span; used for the functions
        the builders module calls in coxeter, which the benchmark cannot
        reach any other way."""

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_times(self):
        """``{round id: {span name: self seconds}}``, rounds in run order."""
        child = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        root_of: list[int] = []
        per_round: dict[int, dict[str, float]] = {}
        for sid, (name, parent, start, end) in enumerate(self.spans):
            root = sid if parent is None else root_of[parent]
            root_of.append(root)
            if parent is None:
                per_round[sid] = defaultdict(float)
            else:
                per_round[root][name] += (end - start) - child[sid]
        return per_round

    def layer_metrics(self, time_layers, rates, byte_layers, scale):
        """Per-layer figures from the spans.

        ``<layer>_s`` is the median, over the rounds that call the layer,
        of the layer's self time in the round.  A rate ``(name, layer,
        counter)`` is the layer's total self time divided by the counter's
        total.  A byte figure is the median per round of its counter.  A
        layer or counter that a workload never reaches reads 0.  Times of
        the i-th round are multiplied by ``scale[i]``.
        """
        per_round = [
            {name: t * f for name, t in times.items()}
            for times, f in zip(self.self_times().values(), scale)
        ]
        out = {}
        for layer in time_layers:
            vals = [times[layer] for times in per_round if layer in times]
            out[f"{layer}_s"] = (median(vals) if vals else 0.0, "s")
        for name, layer, counter in rates:
            total = sum(times.get(layer, 0.0) for times in per_round)
            n = sum(c.get(counter, 0) for c in self.counts.values())
            out[name] = (total / n if n else 0.0, "s")
        for name, counter in byte_layers:
            vals = [c[counter] for c in self.counts.values() if counter in c]
            out[name] = (median(vals) if vals else 0, "bytes")
        return out

    def totals(self):
        """Every counter summed over the run."""
        out = defaultdict(int)
        for counts in self.counts.values():
            for name, n in counts.items():
                out[name] += n
        return dict(out)

    def dump(self):
        return {
            "spans": [[n, p, round(s, 9), round(e, 9)] for n, p, s, e in self.spans],
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }
