"""Spans around the public functions of each nucleus layer.

The benchmark records spans from its own code: ``instrument`` swaps the
named functions for timing wrappers for the length of a ``with`` block
and puts the originals back when it ends.  The package itself is not
changed.  Spans stay in memory and are written out once, when the run
ends.

A span records its name, start, end, parent and the run id.  Self time
is a span's duration minus the time its direct children cover.  A span
around a function that returns an iterator runs from its first item
until the iterator is exhausted, so it includes the consumer's time
between items; it is never a parent.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
import tracemalloc
import uuid
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    peak_bytes: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one run.

    With ``memory=True`` each span also records the peak of
    ``tracemalloc`` memory above its start, which slows big-integer code
    by an order of magnitude; keep such a tracer out of timed passes.
    """

    def __init__(self, memory: bool = False):
        self.run_id = uuid.uuid4().hex
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._base: list[int] = []   # traced memory when each open span started
        self._peak: list[int] = []   # highest traced memory seen under each open span

    def open(self, name: str, nest: bool = True) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        if nest:
            self._stack.append(span)
            if self.memory:
                current, peak = tracemalloc.get_traced_memory()
                if self._peak:
                    self._peak[-1] = max(self._peak[-1], peak)
                tracemalloc.reset_peak()
                self._base.append(current)
                self._peak.append(current)
        return span

    def close(self, span: Span, nest: bool = True) -> None:
        span.end = time.perf_counter()
        if not nest:
            return
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            highest = max(self._peak.pop(), peak)
            span.peak_bytes = highest - self._base.pop()
            if self._peak:
                self._peak[-1] = max(self._peak[-1], highest)
            tracemalloc.reset_peak()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def dump(self, path) -> None:
        records = [dict(asdict(span), run_id=self.run_id) for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(records, handle, default=str)
            handle.write("\n")


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Total and self seconds per span name."""
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.seconds
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"s": 0.0, "self_s": 0.0})
        entry["s"] += span.seconds
        entry["self_s"] += span.seconds - covered.get(span.span_id, 0.0)
    return totals


def _wrap(tracer: Tracer, name: str, fn, describe, iterates: bool):
    signature = inspect.signature(fn)

    if iterates:
        @functools.wraps(fn)
        def iterating(*args, **kwargs):
            span = tracer.open(name, nest=False)
            yielded = 0
            try:
                for item in fn(*args, **kwargs):
                    yielded += 1
                    yield item
            finally:
                tracer.close(span, nest=False)
                span.attrs["yielded"] = yielded
        return iterating

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if describe is not None:
            span.attrs.update(describe(signature.bind(*args, **kwargs).arguments, result))
        return result
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, targets: dict, iterators: frozenset = frozenset()):
    """Trace calls to ``targets`` while the block runs.

    ``targets`` maps ``module.function`` (a module of ``nucleus``) to
    ``None`` or to a function of the bound arguments and the result that
    returns span attributes.  Each function is replaced in every module of
    the package that holds it, so calls through ``from .x import f`` are
    traced too.  Names that no longer exist are skipped and their spans
    are simply absent, so a caller should treat a target without spans as
    a failure, not as zero time.
    """
    modules = [module for key, module in list(sys.modules.items())
               if key == "nucleus" or key.startswith("nucleus.")]
    undo = []
    try:
        for name, describe in targets.items():
            module_name, function_name = name.split(".")
            original = getattr(sys.modules.get(f"nucleus.{module_name}"), function_name, None)
            if original is None:
                continue
            wrapped = _wrap(tracer, name, original, describe, name in iterators)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapped)
        yield tracer
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)
