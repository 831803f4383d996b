"""Spans and counters for the traced runs, recorded from outside the program.

Tracer.installed() swaps the public names the program looks up at call time
for timing wrappers, and puts every original back when it exits. Each span
holds its name, start, end, the span that was open when it started and the
(repetition, generation) it belongs to. Spans opened on a pool thread with
nothing open on that thread take the main thread's innermost open span as
their parent, which is the offspring production that started the pool.
Spans stay in memory until the worker writes them out.
"""

from __future__ import annotations

import builtins
import itertools
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager

# the module-level names wrapped, as (module, attribute, span name)
WRAPPED = (
    ("moprompt.variation", "crossover", "variation.crossover"),
    ("moprompt.variation", "mutate", "variation.mutate"),
    ("moprompt.variation", "generate_text", "variation.generate_text"),
    ("moprompt.runner", "initialize", "runner.initialize"),
    ("moprompt.runner", "produce_offspring", "runner.produce_offspring"),
    ("moprompt.runner", "step", "runner.step"),
    ("moprompt.runner", "nsga2_select", "moea.nsga2_select"),
    ("moprompt.runner", "sms_emoa_select", "moea.sms_emoa_select"),
    ("moprompt.runner", "hypervolume_2d", "moea.hypervolume_2d"),
    ("moprompt.moea", "nondominated_sort", "moea.nondominated_sort"),
    ("moprompt.moea", "crowding_distance", "moea.crowding_distance"),
    ("moprompt.moea", "hv_contributions", "moea.hv_contributions"),
    ("moprompt.moea", "hv_subset_select", "moea.hv_subset_select"),
)

# which generation request a variation operator issues
_GENERATE_KIND = {
    "variation.crossover": "crossover",
    "variation.mutate": "mutation",
    "variation.generate_text": "story",
}
_FALLBACK_KIND = {
    "variation.crossover": "crossover",
    "variation.mutate": "mutation",
    "variation.generate_text": "generation",
}


class Tracer:
    def __init__(self):
        # one row per span: [index, name, start, end, parent, rep, gen, info]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.rep = -1
        self.gen = 0
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._main_stack: list[tuple[int, str]] = []
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self) -> list[tuple[int, str]]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: int = 1) -> None:
        with self._count_lock:
            self.counts[key] += amount

    def innermost(self) -> str | None:
        stack = self._stack() or self._main_stack
        return stack[-1][1] if stack else None

    def call(self, name: str, fn, args=(), kwargs=None, before=None, after=None):
        """Run fn(*args, **kwargs) inside a span. before(args, kwargs) runs
        first; after(args, kwargs, result) may return a number to keep with
        the span."""
        kwargs = kwargs or {}
        if before:
            before(args, kwargs)
        stack = self._stack()
        outer = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        index = next(self._ids)
        stack.append((index, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        self.spans.append([
            index, name, start, end, outer[0] if outer else None, self.rep, self.gen,
            after(args, kwargs, result) if after else None,
        ])
        return result

    def wrap(self, name: str, fn):
        before, after = self._hooks(name)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)

        return traced

    def wrap_backends(self, backends):
        """The same generator and classifier behind timing proxies."""
        from moprompt.backends import Backends

        return Backends(generator=_Generator(self, backends.generator),
                        classifier=_Classifier(self, backends.classifier))

    @contextmanager
    def installed(self):
        """Swap the wrapped names in for the duration of the block."""
        import importlib

        restore: list[tuple[object, str, object]] = []

        def swap(owner, attr, replacement):
            restore.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, replacement)

        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                swap(module, attr, self.wrap(name, getattr(module, attr)))
            report = importlib.import_module("moprompt.report")
            swap(report, "open", self._counting_open)
            swap(threading.Thread, "start", self._counting_start(threading.Thread.start))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def _hooks(self, name: str):
        """What a wrapped name records besides its span, as (before, after)."""
        if name == "runner.initialize":
            return self._enter_rep, lambda args, kwargs, result: self._count_evaluations(result)
        if name == "runner.produce_offspring":
            return self._enter_gen, lambda args, kwargs, result: self._count_evaluations(result)
        if name == "runner.step":
            return self._enter_gen, None
        if name in _FALLBACK_KIND:
            key = f"fallback.{_FALLBACK_KIND[name]}"

            def count_fallback(args, kwargs, result):
                self.count(key, result[1].fallback)
            return None, count_fallback
        if name in ("moea.nsga2_select", "moea.sms_emoa_select", "moea.hv_subset_select"):
            return None, lambda args, kwargs, result: len(args[0])
        if name == "moea.nondominated_sort":
            return None, lambda args, kwargs, result: len(result[0]) if result else 0
        return None, None

    def _enter_rep(self, args, kwargs) -> None:
        self.rep += 1
        self.gen = 0

    def _enter_gen(self, args, kwargs) -> None:
        self.gen = kwargs["generation"]

    def _count_evaluations(self, individuals) -> None:
        # variation fallbacks are counted where the operators return; only
        # failed evaluations are recorded by offspring production itself
        for individual in individuals:
            for record in individual.operator_trace:
                if record.kind == "evaluation":
                    self.count("fallback.evaluation", record.fallback)

    def _counting_open(self, file, *args, **kwargs):
        handle = builtins.open(file, *args, **kwargs)
        self.count("report.files_read")
        self.count("report.bytes_read", os.fstat(handle.fileno()).st_size)
        return handle

    def _counting_start(self, start):
        def counted(thread):
            self.count("threads_started")
            return start(thread)
        return counted


_MISSING = object()


class _Generator:
    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def complete(self, request, *args, **kwargs):
        kind = _GENERATE_KIND.get(self._tracer.innermost(), "other")
        return self._tracer.call(f"backends.generate.{kind}", self._inner.complete,
                                 (request, *args), kwargs)


class _Classifier:
    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def classify_emotions(self, text, *args, **kwargs):
        return self._tracer.call("backends.classify", self._inner.classify_emotions,
                                 (text, *args), kwargs)
