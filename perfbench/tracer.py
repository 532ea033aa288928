"""In-memory span tracer for the benchmark's traced run.

Spans are recorded by wrapping public names at the place where their
callers look them up (a module global, a package attribute or a class
attribute), so nothing under ``src/`` changes. Each span is
``(name, start_ns, end_ns, parent_index)``; spans of one process share one
monotonic clock, and ``time.perf_counter_ns`` is CLOCK_MONOTONIC on Linux,
so spans written by a child process can be merged under the parent span
that started it. Spans stay in memory, in flat integer columns (32 bytes a
span, since a verify run records about a million), until ``write`` is
called at exit.
"""

from __future__ import annotations

import collections
import functools
import json
import time
from array import array


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counters: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is the span name, or a function of ``(args, kwargs)``
        that returns it. Wraps nothing when the owner no longer has the
        attribute, so a later refactor that drops an import shows up as a
        zero count instead of a crash.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        naming = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(naming(args, kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)

        self._patch(owner, attr, wrapper)

    def count_draws(self, sampler_class, tier: str) -> None:
        """Count draws and sampler proposals of one ``draw_<tier>`` method."""
        attr = f"draw_{tier}"
        original = getattr(sampler_class, attr)
        counters = self.counters

        def counted(sampler, *args, **kwargs):
            before = sampler.proposals
            try:
                return original(sampler, *args, **kwargs)
            finally:
                counters[f"draws.{tier}"] += 1
                counters[f"proposals.{tier}"] += sampler.proposals - before

        self._patch(sampler_class, attr, counted)
        self.wrap(sampler_class, attr, f"verification.{attr}")

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def merge(self, spans: list[list], parent: int) -> None:
        """Append spans recorded elsewhere, re-rooted under ``parent``."""
        base = len(self.names)
        for name, start, end, local_parent in spans:
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent if local_parent < 0 else base + local_parent)

    # -- read-out ----------------------------------------------------------

    def spans(self):
        """Every span as ``(name, start_ns, end_ns, parent_index)``."""
        return zip(self.names, self.starts, self.ends, self.parents)

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [(end - start) * 1e-9 for n, start, end, _ in self.spans() if n == name]

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds for each span name.

        A span's self time is its duration minus the durations of its
        direct children; spans nest strictly in one thread, so that is
        the part of its interval no child covers.
        """
        child_ns = [0] * len(self.names)
        for _, start, end, parent in self.spans():
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans(), child_ns):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - inner) * 1e-9
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        inside = [False] * len(self.names)
        count = 0
        for i, (span_name, _, _, parent) in enumerate(self.spans()):
            above = parent >= 0 and (inside[parent] or self.names[parent] == ancestor)
            inside[i] = above
            if above and span_name == name:
                count += 1
        return count

    def write(self, path) -> None:
        """Write one JSON array per span: name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
