"""In-memory spans around the calls into xorcert's layers.

The traced run replaces module-level names that the pipeline looks up at
call time (``xorcert.pipeline.decompose``, ``xorcert.sdp.inf1_upper``, ...)
with wrappers that record a span: its name, start, end and parent.  Spans
stay in memory and are written as JSON lines when the run ends.  Calls too
frequent for a span each (``SparseMat.matvec``) only bump a counter.  A
layer's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from functools import wraps


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def _patch(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr, None)
        if orig is None:  # the program moved the name; the metric reads 0
            print(f"trace: {owner.__name__}.{attr} not found, not traced", file=sys.stderr)
            return
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named `name` around every call of owner.attr."""
        def make(fn):
            @wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return traced
        self._patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count the calls of owner.attr under `name`, without spans."""
        counts = self.counts
        counts.setdefault(name, 0)

        def make(fn):
            @wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        self._patch(owner, attr, make)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    # -- derived figures ----------------------------------------------------

    def _root(self, idx: int) -> int:
        while self.spans[idx][3] >= 0:
            idx = self.spans[idx][3]
        return idx

    def _outermost(self, idx: int) -> bool:
        name, parent = self.spans[idx][0], self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return False
            parent = self.spans[parent][3]
        return True

    def layer(self, name: str, root: str | None = None) -> tuple[float, int]:
        """(total seconds, calls) of spans named `name`, nested repeats counted once.

        With `root`, only spans whose outermost ancestor is named `root`.
        """
        total, calls = 0.0, 0
        for i, (n, start, end, _) in enumerate(self.spans):
            if n != name or not self._outermost(i):
                continue
            if root is not None and self.spans[self._root(i)][0] != root:
                continue
            total += end - start
            calls += 1
        return total, calls

    def self_time(self, name: str) -> float:
        """Summed self time of every span named `name`."""
        child_time: dict[int, float] = {}
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        return sum(end - start - child_time.get(i, 0.0)
                   for i, (n, start, end, _) in enumerate(self.spans) if n == name)
