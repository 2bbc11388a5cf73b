"""In-memory span tracer and result hooks for the vmcone benchmark.

Every hook rebinds the name that the *calling* module uses (for example
``cone_evolver.deposit``, the name ``cone_evolver.step`` looks up), so the
program under ``src/`` is measured without being edited.  Spans are kept in
memory as ``[name, start, end, parent, op, work]`` and written out once the
run has ended.
"""

from __future__ import annotations

import time


class Hooks:
    """Installs wrappers on module attributes and restores them in reverse
    order, so stacked hooks (a capture under a span) unwind cleanly."""

    def __init__(self):
        self._installed = []

    def wrap(self, module, attr, make):
        """Rebind ``module.attr``; a name the program no longer has is left
        alone, so its figures stay at zero."""
        orig = getattr(module, attr, None)
        if orig is None:
            return
        setattr(module, attr, make(orig))
        self._installed.append((module, attr, orig))

    def restore(self):
        while self._installed:
            module, attr, orig = self._installed.pop()
            setattr(module, attr, orig)


class Capture:
    """Keeps the last result and call duration of a few once-per-command
    functions; installed for traced and untraced operations alike."""

    def __init__(self):
        self.results = {}
        self.seconds = {}
        self.hooks = Hooks()

    def add(self, module, attr, key):
        results, seconds = self.results, self.seconds

        def make(orig):
            def captured(*args, **kwargs):
                t0 = time.perf_counter()
                out = orig(*args, **kwargs)
                seconds[key] = time.perf_counter() - t0
                results[key] = out
                return out
            return captured

        self.hooks.wrap(module, attr, make)

    def clear(self):
        self.results.clear()
        self.seconds.clear()


class Tracer:
    """Span recorder.  ``span`` and ``count`` wrap layer functions,
    ``hooks.restore`` unwraps them; ``op`` is the id of the operation the
    next spans belong to."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = None
        self._stack = []
        self.hooks = Hooks()

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op,
                           None])
        self._stack.append(idx)
        return idx

    def close(self, idx, work=None):
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[5] = work
        self._stack.pop()

    def span(self, module, attr, name, work=None):
        """Wrap ``module.attr`` in a span; ``work(args, kwargs, result)``
        returns a dict of work counters attached to the span."""
        tracer = self

        def make(orig):
            def traced(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    out = orig(*args, **kwargs)
                except BaseException:
                    tracer.close(idx)
                    raise
                try:
                    counted = None if work is None else work(args, kwargs, out)
                except Exception:   # call shape changed: leave work unmeasured
                    counted = {"unmeasured": 1}
                tracer.close(idx, counted)
                return out
            return traced

        self.hooks.wrap(module, attr, make)

    def count(self, module, attr, name):
        """Count calls only, for functions called too often for a span."""
        tracer = self
        counts = self.counts

        def make(orig):
            def counted(*args, **kwargs):
                key = (name, tracer.op)
                counts[key] = counts.get(key, 0) + 1
                return orig(*args, **kwargs)
            return counted

        self.hooks.wrap(module, attr, make)

    # -- derived quantities -------------------------------------------------

    def self_times(self):
        """Span duration minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op, work in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def covered(self, names, op):
        """Seconds of operation ``op`` inside spans named in ``names``,
        counting a span only if no ancestor is also in ``names``."""
        names = set(names)
        total = 0.0
        for name, t0, t1, parent, span_op, work in self.spans:
            if span_op != op or name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += t1 - t0
        return total

    def to_json(self):
        return {"fields": ["name", "start", "end", "parent", "op", "work"],
                "spans": self.spans,
                "counts": [[name, op, n]
                           for (name, op), n in sorted(
                               self.counts.items(),
                               key=lambda kv: (kv[0][0], str(kv[0][1])))]}
