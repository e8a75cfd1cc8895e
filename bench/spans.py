"""In-memory span tracing around the public entry points of ``sfgsim``.

A traced call records one span: name, start, end and the index of the
span that was open when it began (its parent).  Wrappers are set on the
attribute the *caller* looks up, e.g. ``sfgsim.trajectories.draw_block``
rather than ``sfgsim.noise.draw_block``, because ``trajectories`` binds
the name at import.  ``traced`` installs them and always restores the
original objects, so untraced runs execute the unmodified program.

Time arithmetic, for a span with duration d whose children cover the
union U of their intervals (clipped to the parent):

    self = d - |U|,   busy(children) = sum of child durations,

and on one thread children never overlap, so busy(children) + self = d.
"""

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root
    attrs: dict | None = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans = []
        self._open = []

    def call(self, name, fn, args, kwargs, attrs=None):
        parent = self._open[-1] if self._open else -1
        span = Span(name, 0.0, 0.0, parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        return result

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _wrapper(tracer, fn, name, attrs):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs)
    return wrapper


@contextmanager
def traced(tracer, targets):
    """Wrap every ``(owner, attribute, span name, attrs)`` target, then restore.

    ``attrs(args, kwargs, result)`` may return a dict of counts stored on
    the span.  Classes are patched through their ``__dict__`` so a method
    is restored as the plain function it was.
    """
    saved = []
    try:
        for owner, attr, name, attrs in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, original, name, attrs))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def children_of(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(spans, kids, i):
    s = spans[i]
    return s.duration - _covered([(spans[k].start, spans[k].end) for k in kids[i]],
                                 s.start, s.end)


def outermost(spans, names):
    """Indices of spans named in ``names`` with no ancestor also in ``names``."""
    names = set(names)
    out = []
    for i, s in enumerate(spans):
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            out.append(i)
    return out


def busy(spans, names):
    """Wall time inside any span of ``names``, nested repeats counted once."""
    return sum(spans[i].duration for i in outermost(spans, names))


def calls(spans, name):
    return sum(1 for s in spans if s.name == name)


def attr_sum(spans, name, key):
    return sum(s.attrs[key] for s in spans if s.name == name and s.attrs)


def to_rows(spans):
    """Compact, JSON-ready form: [name, start, end, parent] per span."""
    return [[s.name, s.start, s.end, s.parent] for s in spans]
