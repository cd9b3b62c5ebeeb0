"""Outside-in span recorder for the benchmark.

Functions of the program are wrapped by replacing module (or class)
attributes for the duration of a ``Recorder.installed()`` block, so the
program itself is not edited.  A call looked up through the patched
attribute is recorded; a call bound earlier by ``from x import f`` in
another module is not, which is why each target names the module the
caller looks the function up in.

Two kinds of record are kept in memory:

* spans: one ``Span`` per call with name, start, end and the index of
  the enclosing span, for layer-boundary calls;
* leaves: for hot functions called thousands of times per run, only a
  call count and total time per (enclosing span name, function name).
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    result: object = None


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.leaves: dict[tuple[str, str], list] = {}
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def _close(self, rec: Span) -> None:
        rec.end = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, keep_result: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if keep_result:
                rec.result = out
            return out

        return wrapper

    def leaf(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                parent = self.spans[self._stack[-1]].name if self._stack else ""
                acc = self.leaves.setdefault((parent, name), [0, 0.0])
                acc[0] += 1
                acc[1] += dt

        return wrapper

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    # -- installation ------------------------------------------------

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch ``targets`` while the block runs, then restore them.

        Each target is ``(owner, attribute, name, kind)``.  ``kind`` is
        ``"span"``, ``"span+result"`` (the span keeps the return value),
        ``"leaf"``, or ``"classmethod-leaf"`` for a classmethod.
        """
        saved = []
        try:
            for owner, attr, name, kind in targets:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, raw))
                if kind == "classmethod-leaf":
                    bound = getattr(owner, attr)
                    wrapped = self.leaf(name, lambda cls, *a, _f=bound, **k: _f(*a, **k))
                    setattr(owner, attr, classmethod(wrapped))
                elif kind == "leaf":
                    setattr(owner, attr, self.leaf(name, raw))
                else:
                    setattr(owner, attr, self.span(name, raw, keep_result=kind == "span+result"))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- queries -----------------------------------------------------

    def duration(self, index: int) -> float:
        s = self.spans[index]
        return s.end - s.start

    def self_time(self, index: int) -> float:
        """Span duration minus the time covered by its child spans."""
        covered = sum(self.duration(i) for i, s in enumerate(self.spans) if s.parent == index)
        return self.duration(index) - covered

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.named(name))

    def leaf_totals(self, name: str) -> dict[str, tuple[int, float]]:
        """Per enclosing span name: (calls, seconds) of leaf ``name``."""
        return {parent: (c, t) for (parent, leaf), (c, t) in self.leaves.items() if leaf == name}
