"""Outside-in span tracer: wraps functions of the program under test.

The program has no spans of its own. This tracer replaces module and
class attributes (and entries of dict tables such as ``autodiff.OPS``)
with timing wrappers, records one span per call, and puts every original
back on ``restore``. A span is ``(sid, name, start, end, parent, step,
thread, work)``: ``parent`` is the enclosing span on the same thread (or
None), ``step`` the benchmark step it ran in, and ``work`` an optional
tuple of counts computed from the call's arguments (flops, bytes,
floats). Spans stay in memory and are written out once, after the run.

Self time is a span's duration minus the durations of its children.
Children always run on their parent's thread, so they never overlap
each other and the subtraction is exact.
"""

import csv
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int
    step: int
    thread: int
    work: tuple

    @property
    def dur(self):
        return self.end - self.start


@dataclass
class Totals:
    """Per-name sums over a set of spans; times in seconds."""

    calls: int = 0
    incl: float = 0.0
    self_time: float = 0.0
    work: tuple = ()

    def add_work(self, work):
        if work is None:
            return
        if not self.work:
            self.work = tuple(work)
        else:
            self.work = tuple(a + b for a, b in zip(self.work, work))


class Tracer:
    """Records spans for wrapped callables until ``restore`` is called."""

    def __init__(self):
        self.spans = []
        self.step = -1
        self._ids = itertools.count()
        self._tls = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, work_fn, collapse):
        stack = self._stack()
        if collapse and stack and stack[-1][1] == name:
            # a re-entrant call of the same layer (one loss function
            # calling the other) belongs to the enclosing span
            return fn(*args, **kwargs)
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        work = work_fn(args, kwargs, result) if work_fn is not None else None
        self.spans.append(Span(sid, name, start, end, parent, self.step,
                               threading.get_ident(), work))
        return result

    def wrap(self, fn, name, work=None, collapse=False):
        """``fn`` with one span named ``name`` per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs, work, collapse)

        return traced

    def patch_attr(self, owner, attr, name, work=None, collapse=False):
        """Replace ``owner.attr`` (module or class) with a traced wrapper."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(original, name, work, collapse))
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_item(self, table, key, pos, name, work=None):
        """Trace element ``pos`` of the tuple stored at ``table[key]``."""
        original = table[key]
        entry = list(original)
        entry[pos] = self.wrap(entry[pos], name, work)
        table[key] = tuple(entry)
        self._undo.append(lambda: table.__setitem__(key, original))

    def restore(self):
        """Put every patched attribute and table entry back."""
        while self._undo:
            self._undo.pop()()

    def totals(self):
        """Per-name Totals over every recorded span."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.dur
        out = defaultdict(Totals)
        for s in self.spans:
            t = out[s.name]
            t.calls += 1
            t.incl += s.dur
            t.self_time += s.dur - child[s.sid]
            t.add_work(s.work)
        return out

    def write_csv(self, path):
        """One row per span, times in microseconds from the first span."""
        origin = min((s.start for s in self.spans), default=0.0)
        threads = {}
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sid", "name", "start_us", "end_us", "parent",
                             "step", "thread", "work"])
            for s in self.spans:
                writer.writerow([
                    s.sid, s.name,
                    f"{(s.start - origin) * 1e6:.1f}",
                    f"{(s.end - origin) * 1e6:.1f}",
                    "" if s.parent is None else s.parent,
                    s.step,
                    threads.setdefault(s.thread, len(threads)),
                    "" if s.work is None else " ".join(map(str, s.work)),
                ])
        return path
