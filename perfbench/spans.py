"""In-memory span recorder and function wrappers for the traced run.

Standard library only.  A span is one timed call at a layer boundary:
name, start, end, parent span and, on the service workload, the request
it belongs to.  Spans stay in memory until :meth:`Recorder.write` dumps
them at the end of a run; self times are derived from them afterwards
(:func:`self_times`), so recording costs two clock reads and one append
per wrapped call.

:class:`Patcher` installs the wrappers and puts every original back on
:meth:`Patcher.restore`, so an untraced run in the same process never
sees one.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    thread: int = 0
    request: str | None = None
    #: numbers the wrapper read off the call's result (e.g. ``cycles``)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any number of threads; the open span of each
    thread is the parent of the next one started on that thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, request: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            next(self._ids), name, parent.id if parent else None,
            self.clock(), thread=threading.get_ident(), request=request,
        )
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        self.spans.append(span)

    def span(self, name: str, request: str | None = None):
        """Context manager form of :meth:`start`/:meth:`finish`."""
        return _SpanContext(self, name, request)

    def wrap(self, fn, name, on_result=None):
        """Wrapper that records a span per call of ``fn``.

        ``name`` is a string or ``name(args, kwargs)`` returning one;
        ``on_result(span, args, kwargs, result)`` may stash numbers from
        the call in ``span.attrs``.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = recorder.start(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.finish(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        return wrapper

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(asdict(span)) + "\n")


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str, request):
        self.recorder = recorder
        self.name = name
        self.request = request

    def __enter__(self) -> Span:
        self.span = self.recorder.start(self.name, self.request)
        return self.span

    def __exit__(self, *exc) -> None:
        self.recorder.finish(self.span)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children took.

    Children run on their parent's thread and inside its interval, so
    the self times of a span and all its descendants add up to the
    span's duration.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = (
                child_time.get(span.parent, 0.0) + span.duration
            )
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}


def covered(spans: list[Span], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of the spans."""
    total = 0.0
    reach = start
    for s0, s1 in sorted((s.start, s.end) for s in spans):
        s0, s1 = max(s0, reach), min(s1, end)
        if s1 > s0:
            total += s1 - s0
            reach = s1
    return total


class Patcher:
    """Replaces attributes and mapping entries, and restores every
    original on :meth:`restore` (also when used as a context manager)."""

    def __init__(self):
        self._undo: list = []

    def patch(self, owner, attr: str, new) -> None:
        old = getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, new)

    def patch_item(self, mapping, key, new) -> None:
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = new

    def patch_everywhere(self, original, new, prefix: str = "repro") -> int:
        """Rebind ``original`` to ``new`` in every loaded module under
        ``prefix`` that imported it by name; returns the bindings
        replaced."""
        count = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == prefix or modname.startswith(prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, new)
                    count += 1
        return count

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
