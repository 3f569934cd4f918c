"""Span tracing of rmrouter's public functions, applied from outside the package.

A :class:`Tracer` wraps named functions (``"gaussian.posterior_update"``) by
rebinding every ``rmrouter.*`` module attribute that refers to the same
function object, so calls made through ``from .gaussian import ...`` names
are seen too.  Each call records one span (name, start, end, parent span,
operation id); the outermost span of a call tree opens a new operation id,
so every span of one replay or one training call shares it.  Spans stay in
memory until :meth:`Tracer.dump`.

A function that no longer exists is listed in :attr:`Tracer.absent` instead
of raising, so the tracer survives refactors that delete or rename it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _rmrouter_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "rmrouter" or name.startswith("rmrouter."))
    ]


class Tracer:
    """Records spans and counters while :meth:`install` has wrapped the targets.

    ``spans`` holds lists [name, start, end, parent index or -1, op id].
    ``counters`` holds exact counts keyed by metric name; ``gauges`` holds
    maxima that :meth:`mark` resets.  A hook is a context-manager factory
    ``hook(tracer, args, kwargs)`` entered around the wrapped call.
    """

    def __init__(self, targets, count_only=(), hooks=None):
        self.targets = list(targets)
        self.count_only = list(count_only)
        self.hooks = dict(hooks or {})
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.gauges: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_op = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        if self._stack:
            parent = self._stack[-1]
            op = self.spans[parent][4]
        else:
            parent = -1
            op = self._next_op
            self._next_op += 1
        self.spans.append([name, time.perf_counter(), 0.0, parent, op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counters[f"{name}.calls"] += 1
            idx = self._open(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                with hook(self, args, kwargs):
                    return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _count_wrapper(self, name, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------

    def _rebind(self, name: str, make_wrapper) -> None:
        module_name, _, attr = name.rpartition(".")
        module = sys.modules.get(f"rmrouter.{module_name}")
        fn = getattr(module, attr, None) if module is not None else None
        if not callable(fn):
            self.absent.append(name)
            return
        wrapper = make_wrapper(name, fn)
        for mod in _rmrouter_modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every target; call :meth:`uninstall` to put the originals back."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self.absent = []
        for name in self.targets:
            self._rebind(name, self._span_wrapper)
        for name in self.count_only:
            self._rebind(name, self._count_wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore = []

    # -- reading ---------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """Position to pass to :meth:`summary` for the work done after it."""
        self.gauges = {}
        return len(self.spans), dict(self.counters)

    def summary(self, since: tuple[int, dict[str, int]]) -> dict[str, float]:
        """Self time, total time, counter deltas and gauges since ``since``.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        first, counters_before = since
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[3] - first
            if parent >= 0:
                child_time[parent] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for span, children in zip(spans, child_time):
            duration = span[2] - span[1]
            out[f"{span[0]}.self_s"] += duration - children
            out[f"{span[0]}.total_s"] += duration
        for key, value in self.counters.items():
            out[key] = value - counters_before.get(key, 0)
        out.update(self.gauges)
        out["trace.spans"] = len(spans)
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as JSON lines [name, start, end, parent, op]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
