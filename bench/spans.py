"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its name, start and end
(``time.perf_counter`` seconds), the id of the span that caused it and
optional attributes. Spans are kept in memory and written out once, at
the end of a run. A call made on a helper thread with no open span of
its own is parented to the innermost span open on the main thread,
which is the call that handed the work to that thread.

Wrapping is done from outside the program: :meth:`SpanRecorder.patch_function`
rebinds every module attribute that refers to the function, so callers
that imported it by name are traced too, and :meth:`SpanRecorder.restore`
puts the originals back. Calls made in a forked child process run
untraced.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# pre(args, kwargs) -> state; post(state, args, kwargs, result) -> attrs or None
PreHook = Callable[[tuple, dict], Any]
PostHook = Callable[[Any, tuple, dict, Any], "dict[str, Any] | None"]


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._pid = os.getpid()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack

    def _hook(self, hook: Callable, *args: Any) -> Any:
        """Run a measurement hook inside a `tracing.hook` span.

        The hook's cost is then subtracted from the enclosing span's self
        time instead of being charged to the traced program.
        """
        with self.span("tracing.hook"):
            return hook(*args)

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span_id, parent, stack = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, threading.current_thread().name)
            )

    def wrap(self, name: str, fn: Callable, pre: PreHook | None = None,
             post: PostHook | None = None) -> Callable:
        """Return `fn` recording one span per call; hooks run outside the timed part."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != recorder._pid:
                return fn(*args, **kwargs)
            state = recorder._hook(pre, args, kwargs) if pre is not None else None
            span_id, parent, stack = recorder._open()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(span_id, name, start, end, parent, threading.current_thread().name)
                recorder.spans.append(span)
                if post is not None:
                    span.attrs = recorder._hook(post, state, args, kwargs, result) or {}

        return traced

    def patch_function(self, module_name: str, attr: str, name: str,
                       pre: PreHook | None = None, post: PostHook | None = None) -> int:
        """Trace `module.attr` everywhere it is bound in the program's modules.

        Returns how many bindings were replaced (0 when the function is gone).
        """
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            return 0
        package = module_name.split(".", 1)[0]
        traced = self.wrap(name, original, pre, post)
        count = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or (mod_name != package and not mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)
                    count += 1
        return count

    def patch_method(self, cls: type, attr: str, name: str,
                     pre: PreHook | None = None, post: PostHook | None = None) -> int:
        original = cls.__dict__.get(attr)
        if original is None:
            return 0
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, pre, post))
        return 1

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def dump(self, path: str, extra: dict[str, Any] | None = None) -> None:
        """Write every span, with self times, as one JSON document."""
        selfs = self_times(self.spans)
        rows = [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "thread": s.thread, "self": selfs[s.id], **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**(extra or {}), "spans": rows}, fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its child spans cover.

    Children on other threads may overlap each other; the union of their
    intervals, clipped to the parent, is what is subtracted.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None:
            children.setdefault(parent.id, []).append(
                (max(s.start, parent.start), min(s.end, parent.end))
            )
    return {
        s.id: s.duration - _covered([iv for iv in children.get(s.id, []) if iv[1] > iv[0]])
        for s in spans
    }
