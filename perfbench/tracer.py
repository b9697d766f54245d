"""In-memory span tracer that wraps prfmap functions from outside the package.

A :class:`Tracer` replaces named attributes (module functions as seen by the
module that imports them, or methods on a class) with wrappers that record
one span per call: name, start, end and the enclosing span.  Spans live in
flat arrays and are only summarised after the traced work ends, so the
per-call cost is two clock reads and a few appends.  Nothing is patched
until :meth:`Tracer.__enter__` and everything is restored on exit.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

# A classifier maps a wrapped call's return value to an outcome tag (or
# None); tags are counted per span name, e.g. ("sampler.step", "applied").
Classifier = Callable[[Any], "tuple[str, ...] | str | None"]


@dataclass(frozen=True)
class Patch:
    owner: Any          # module or class holding the attribute
    attr: str
    span: str           # span name recorded for each call
    classify: Classifier | None = None


class Tracer:
    """Records spans for every call through the patched attributes."""

    def __init__(self, patches: list[Patch]):
        self.patches = patches
        self._saved: list[tuple[Any, str, Any]] = []
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.root = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._summary: tuple[int, dict] | None = None

    # -- patching ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for p in self.patches:
            orig = p.owner.__dict__[p.attr] if isinstance(p.owner, type) \
                else getattr(p.owner, p.attr)
            self._saved.append((p.owner, p.attr, orig))
            setattr(p.owner, p.attr, self._wrap(orig, p))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, fn, p: Patch):
        nid = self._name_id.setdefault(p.span, len(self.names))
        if nid == len(self.names):
            self.names.append(p.span)
        classify = p.classify
        counts = self.counts
        stack = self._stack
        name, parent, root = self.name, self.parent, self.root
        start, end, child = self.start, self.end, self.child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            root.append(stack[0] if stack else sid)
            start.append(0.0)
            end.append(0.0)
            child.append(0.0)
            stack.append(sid)
            t0 = clock()
            start[sid] = t0
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                end[sid] = t1
                if stack:
                    child[stack[-1]] += t1 - t0
            if classify is not None:
                tags = classify(out)
                if isinstance(tags, str):
                    counts[(p.span, tags)] += 1
                elif tags:
                    for tag in tags:
                        counts[(p.span, tag)] += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- summaries ---------------------------------------------------------

    def _table(self) -> dict[tuple[str, str], list[float]]:
        """(span, root span) -> [calls, total seconds, self seconds]."""
        if self._summary is None or self._summary[0] != len(self.name):
            table: dict[tuple[int, int], list[float]] = {}
            name, root = self.name, self.root
            start, end, child = self.start, self.end, self.child
            for i in range(len(name)):
                key = (name[i], name[root[i]])
                row = table.get(key)
                if row is None:
                    row = table[key] = [0, 0.0, 0.0]
                dur = end[i] - start[i]
                row[0] += 1
                row[1] += dur
                row[2] += dur - child[i]
            named = {(self.names[a], self.names[b]): row
                     for (a, b), row in table.items()}
            self._summary = (len(self.name), named)
        return self._summary[1]

    def _sum(self, span: str, under: str | None, col: int) -> float:
        return sum(row[col] for (name, root), row in self._table().items()
                   if name == span and (under is None or root == under))

    def calls(self, span: str, under: str | None = None) -> int:
        """Number of spans named ``span`` (optionally below root ``under``)."""
        return int(self._sum(span, under, 0))

    def total_s(self, span: str, under: str | None = None) -> float:
        """Summed duration of the named spans, children included."""
        return self._sum(span, under, 1)

    def self_s(self, span: str, under: str | None = None) -> float:
        """Summed duration minus the time covered by direct child spans."""
        return self._sum(span, under, 2)

    def durations(self, span: str) -> list[float]:
        nid = self._name_id.get(span)
        return [self.end[i] - self.start[i] for i in range(len(self.name))
                if self.name[i] == nid]

    def count(self, span: str, tag: str) -> int:
        return self.counts.get((span, tag), 0)
