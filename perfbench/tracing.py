"""Span recording for the traced benchmark run.

The traced run rebinds public revgf2 functions to thin wrappers, from
benchmark code only; nothing under src/ changes.  A layer that is reached
only from inside another (circuit.apply from naive and ecgroup,
optimized_invert from ecgroup) is caught by rebinding the name in every
revgf2 module that imported it.  Spans are (name, start, end, parent)
records kept in memory; the benchmark writes them out once, at the end.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.gate_evals = 0
        self.rounds = 0
        self.rounds_ending_done = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _span(self, name: str, fn, on_call=None, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _count_gate_evals(self, circuit, state):
        self.gate_evals += len(circuit.gates)  # one basis state per call

    def _count_traced_rounds(self, traces):
        for trace in traces.values():
            self.rounds += trace.rounds
            self.rounds_ending_done += trace.h  # h ticks once per round ending done

    def _count_rounds(self, fn):
        def wrapper(state, *args, **kwargs):
            result = fn(state, *args, **kwargs)
            self.rounds += 1
            if state.done:  # the round ticked the halting counter h
                self.rounds_ending_done += 1
            return result

        return wrapper

    def _rebind(self, module, attr: str, wrapper, everywhere: bool):
        original = getattr(module, attr)
        if everywhere:
            targets = [
                mod
                for name, mod in list(sys.modules.items())
                if name.split(".")[0] == "revgf2" and vars(mod).get(attr) is original
            ]
        else:
            targets = [module]
        for mod in targets:
            self._patches.append((mod, attr, original))
            setattr(mod, attr, wrapper)

    def install(self, targets, oracles):
        """Wrap each layer target everywhere its name is bound, and each
        oracle only in its own module, so the library's internal calls to
        the same function are not counted as oracle time.

        `targets` and `oracles` hold (module, attribute, span name) triples.
        The span names "circuit.apply", "optimized.run_synchronized" and
        "optimized.run_round" also feed the gate-evaluation and round
        counters.  run_synchronized's rounds are read from the traces it
        returns; run_round gets a counter but no span, since it runs
        thousands of times per input, and is meant only for callers that
        return no trace.
        """
        for module, attr, name in targets:
            fn = getattr(module, attr)
            if name == "optimized.run_round":
                wrapper = self._count_rounds(fn)
            elif name == "circuit.apply":
                wrapper = self._span(name, fn, on_call=self._count_gate_evals)
            elif name == "optimized.run_synchronized":
                wrapper = self._span(name, fn, on_return=self._count_traced_rounds)
            else:
                wrapper = self._span(name, fn)
            self._rebind(module, attr, wrapper, everywhere=True)
        for module, attr, name in oracles:
            self._rebind(module, attr, self._span(name, getattr(module, attr)), everywhere=False)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans)


class SpanSummary:
    """Per-name call counts, total time, self time and top-level time.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the benchmark is one thread.
    """

    def __init__(self, spans):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.top_level = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[i]
            if parent is None:
                self.top_level[name] += end - start

    def count_under(self, name: str, ancestor: str, direct: bool = False) -> int:
        """Spans called `name` with `ancestor` as parent (direct) or as any
        enclosing span."""
        count = 0
        for span_name, _start, _end, parent in self.spans:
            if span_name != name:
                continue
            while parent is not None:
                if self.spans[parent][0] == ancestor:
                    count += 1
                    break
                if direct:
                    break
                parent = self.spans[parent][3]
        return count
