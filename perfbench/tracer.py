"""Span tracer for the benchmark's traced run.

Spans are opened by the benchmark around its calls into each layer. A span's
self time is its duration minus the time of the spans it encloses. Three
things are folded into the same span stack:

- cyclic-GC pauses, observed through ``gc.callbacks``: each pause is its own
  layer (``gc``) and is subtracted from the innermost span it interrupted;
- graph nodes: while an operation is traced, ``autodiff._make`` is wrapped so
  every node records the span that built it, is counted per op, and has its
  ``backward_fn`` wrapped in a span ``autodiff.backward.<building span>``;
- module functions named in ``patches`` (for example ``data.normalize``,
  which ``data.augment`` calls internally) run inside a span of their own.

Nothing here edits the program's source; patches exist only while an
operation is traced and are undone when it ends.
"""

from __future__ import annotations

import contextlib
import gc
import time
from collections import Counter, defaultdict

ROOT_SPAN = "op"


class Tracer:
    def __init__(self, autodiff, patches=()):
        self.autodiff = autodiff
        self.patches = list(patches)  # (module, attribute, span name)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.nodes: Counter = Counter()
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self.op_walls: list[float] = []
        self._stack: list[list] = []  # [name, start, time of enclosed spans]
        self._gc_start = None

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> float:
        name, start, enclosed = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_s[name] += dur - enclosed
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @contextlib.contextmanager
    def op(self):
        """One traced operation (a training step or a request): the root span."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in self.patches]
        make = self.autodiff._make
        for (mod, attr, fn), (_, _, name) in zip(originals, self.patches):
            setattr(mod, attr, self._spanned(fn, name))
        self.autodiff._make = self._tagging(make)
        gc.callbacks.append(self._on_gc)
        self.enter(ROOT_SPAN)
        try:
            yield
        finally:
            self.op_walls.append(self.exit())
            gc.callbacks.remove(self._on_gc)
            self.autodiff._make = make
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def _spanned(self, fn, name):
        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return call

    def _tagging(self, make):
        def tagged(data, parents, op, backward_fn):
            out = make(data, parents, op, backward_fn)
            if out.backward_fn is not None:
                self.nodes[op] += 1
                out.backward_fn = _SpannedBackward(self, "autodiff.backward." + self._stack[-1][0],
                                                   backward_fn)
            return out
        return tagged

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            pause = time.perf_counter() - self._gc_start
            self._gc_start = None
            self.gc_pause_s += pause
            self.gc_collections += 1
            if self._stack:
                self._stack[-1][2] += pause


class _SpannedBackward:
    """A node's backward_fn run inside a span named after the layer that built the node.

    One slotted object per node: a closure would add a function and three
    cells, and the extra GC-tracked objects would inflate the traced run's
    collection pauses.
    """

    __slots__ = ("tracer", "name", "fn")

    def __init__(self, tracer, name, fn):
        self.tracer, self.name, self.fn = tracer, name, fn

    def __call__(self, g):
        self.tracer.enter(self.name)
        try:
            self.fn(g)
        finally:
            self.tracer.exit()
