"""Span tracer that wraps the public functions of a package's modules.

Installing a Tracer replaces every public function defined in each listed
module with a wrapper that records a span (name, start, end, parent span)
and call/error counts. The wrapper is put at every binding site: a function
imported elsewhere with ``from .dsp import feature_matrix`` or re-exported by
the package ``__init__`` is replaced there too, so calls through any name are
seen. A deleted function is simply not wrapped, and a deleted module is
recorded as absent rather than raising, so the benchmark keeps running when a
later version removes code.

Spans stay in memory; ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# Errors an item extractor may raise when a wrapped function changed its
# arguments or result type; the item is then left uncounted.
_ITEM_ERRORS = (AttributeError, IndexError, KeyError, OSError, TypeError,
                ValueError)


class Tracer:
    """Records spans and counts for calls into ``package.<layer>`` modules.

    ``items`` maps a qualified function name (``"dsp.feature_matrix"``) to a
    function ``(args, kwargs, result) -> {counter: amount}`` whose amounts
    are added to that function's counters after each successful call.
    """

    def __init__(self, package: str, layers, items=None):
        self.package = package
        self.layers = tuple(layers)
        self.items = dict(items or {})
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.wrapped: set[str] = set()
        self.absent_layers: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in self.layers:
            try:
                module = importlib.import_module(f"{self.package}.{layer}")
            except ModuleNotFoundError:
                self.absent_layers.append(layer)
                continue
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(value)] = (value, self._wrap(name, value))
                self.wrapped.add(name)
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _package_modules(self):
        prefix = self.package + "."
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(prefix))]

    # --- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the caller opens itself, such as the root of a pass."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        item_fn = self.items.get(name)
        counters = self.counts[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counters["calls"] += 1
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters["errors"] += 1
                raise
            finally:
                self._close(index)
            if item_fn is not None:
                try:
                    for key, amount in item_fn(args, kwargs, result).items():
                        counters[key] += amount
                except _ITEM_ERRORS:
                    counters["items_unavailable"] += 1
            return result

        return traced

    # --- summaries ----------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per function name: (inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children, so nested layers are not counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            total[name] += end - start
            own[name] += end - start - covered
        return total, own

