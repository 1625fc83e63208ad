"""In-memory spans around the benchmark's calls into ``structent``.

A :class:`Tracer` records spans (name, start, end, parent, thread) that the
benchmark opens itself, and can wrap public functions, methods and
properties of ``structent`` so that every call into them, from the
benchmark or from another layer of the program, opens a span.  Wrapping
replaces the attribute in each ``structent`` module that holds the
function, so the program's files are never touched; :meth:`Tracer.restore`
puts the originals back.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, parent id, start, end, thread id)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._patched: list[tuple] = []
        self.notes: dict = {}  # extra findings written with the spans

    # -------------------------------------------------------- spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, parent, start, end, threading.get_ident()))

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    # ------------------------------------------------------ wrapping

    def wrap_function(self, func, name: str, after=None) -> None:
        """Open a span ``name`` around every call of ``func``, through
        whichever ``structent`` module attribute the caller uses.  ``after``
        is called with ``(tracer, result, args)`` once the span is closed,
        to record counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = func(*args, **kwargs)
            if after is not None:
                after(tracer, result, args)
            return result

        for mod in _structent_modules():
            for attr, value in list(vars(mod).items()):
                if value is func:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def wrap_method(self, cls, attr: str, name: str) -> None:
        """Open a span around a method or property of a ``structent``
        class."""
        original = cls.__dict__[attr]
        tracer = self
        if isinstance(original, property):
            fget = original.fget

            def getter(obj):
                with tracer.span(name):
                    return fget(obj)

            replacement = property(getter, original.fset, original.fdel, original.__doc__)
        else:

            def replacement(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)

        self._patched.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # ------------------------------------------------------- summary

    def totals(self) -> dict[str, float]:
        """Seconds per span name.  A span nested inside a span of the same
        name in the same thread is not counted again."""
        by_id = {s[0]: s for s in self.spans}
        out: dict[str, float] = defaultdict(float)
        for sid, name, parent, start, end, _ in self.spans:
            p = parent
            nested = False
            while p:
                ps = by_id.get(p)
                if ps is None:
                    break
                if ps[1] == name:
                    nested = True
                    break
                p = ps[2]
            if not nested:
                out[name] += end - start
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child = defaultdict(float)
        for _, _, parent, start, end, _ in self.spans:
            if parent:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, _, start, end, _ in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def write(self, path: str, extra: dict) -> None:
        t0 = min((s[3] for s in self.spans), default=0.0)
        payload = dict(extra)
        payload["totals_s"] = self.totals()
        payload["self_s"] = self.self_times()
        payload["counts"] = dict(self.counts)
        payload.update(self.notes)
        payload["spans"] = [
            {"id": sid, "name": name, "parent": parent, "start_s": start - t0,
             "end_s": end - t0, "thread": thread}
            for sid, name, parent, start, end, thread in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _structent_modules():
    return [m for k, m in list(sys.modules.items()) if k == "structent" or k.startswith("structent.")]
