"""Spans recorded around calls into the program's public functions.

Nothing under ``src/`` changes: :class:`Tracer` swaps a wrapper in for a
module- or class-level name while tracing is on and puts the original
back when it goes off.  Each span holds its name, start, end, parent
span (a per-thread stack), the request that caused it and an optional
count (rows written, cache hit...).  Spans stay in memory.

A name that no longer exists is recorded in :attr:`Tracer.missing` and
skipped, so a refactor shows up as a missing metric, not a crash.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

clock = time.perf_counter


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    thread: int
    start: float
    end: float
    parent: int | None
    request: str | None
    count: float | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("span_id", "name", "start", "parent", "request")

    def __init__(self, span_id, name, start, parent, request):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.parent = parent
        self.request = request


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``module:Owner.attr`` or ``module:function``.

    *request* maps ``(args, kwargs)`` to the request key a span belongs
    to; *count* maps ``(args, kwargs, result)`` to a number to record.
    ``kind`` is ``"call"``, ``"async"`` (a coroutine function: recorded
    as a root span, since coroutines interleave on the loop thread) or
    ``"write"`` (a context manager split into wait and hold spans).
    """

    path: str
    span: str
    request: Callable | None = None
    count: Callable | None = None
    kind: str = "call"


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.installed = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any, Callable]] = []
        self._resolved = False

    # -- span recording ------------------------------------------------------

    def set_request(self, request: str | None) -> None:
        """The request the calling thread is working on (load generator)."""
        self._local.request = request

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, request: str | None = None) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = self.current_request()
        frame = _Frame(next(self._ids), name, clock(),
                       parent.span_id if parent is not None else None,
                       request)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame, count: float | None = None) -> None:
        end = clock()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:
            stack.remove(frame)
        self.spans.append(Span(frame.span_id, frame.name,
                               threading.get_ident(), frame.start, end,
                               frame.parent, frame.request, count))

    def record(self, name: str, start: float, end: float,
               request: str | None = None, count: float | None = None,
               parent: int | None = None) -> None:
        """A span that is not pushed on the thread's stack."""
        self.spans.append(Span(next(self._ids), name, threading.get_ident(),
                               start, end, parent, request, count))

    def current(self) -> _Frame | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def current_request(self) -> str | None:
        """The request of the innermost open span, else the thread's."""
        frame = self.current()
        if frame is not None:
            return frame.request
        return getattr(self._local, "request", None)

    # -- wrapping ------------------------------------------------------------

    def _resolve(self) -> None:
        """Find every target once; names that no longer exist go to
        :attr:`missing`."""
        if self._resolved:
            return
        self._resolved = True
        for target in self.targets:
            module_name, _, attr_path = target.path.partition(":")
            try:
                owner: Any = importlib.import_module(module_name)
                *owners, attr = attr_path.split(".")
                for name in owners:
                    owner = getattr(owner, name)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target.path)
                continue
            self._patches.append((owner, attr, original,
                                  self._wrapper(target, original)))

    def _wrapper(self, target: Target, original: Callable) -> Callable:
        tracer = self

        def request_of(args, kwargs):
            if target.request is None:
                return None
            try:
                return target.request(args, kwargs)
            except Exception:        # noqa: BLE001 — a key is optional
                return None

        def count_of(args, kwargs, result):
            if target.count is None:
                return None
            try:
                return target.count(args, kwargs, result)
            except Exception:        # noqa: BLE001 — a count is optional
                return None

        if target.kind == "async":
            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                start = clock()
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.record(target.span, start, clock(),
                                  request_of(args, kwargs))
            return async_wrapper

        if target.kind == "write":
            @functools.wraps(original)
            def write_wrapper(*args, **kwargs):
                return _TimedWrite(tracer, target.span,
                                   original(*args, **kwargs))
            return write_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(target.span, request_of(args, kwargs))
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.exit(frame, count_of(args, kwargs, result))
        return wrapper

    def install(self) -> None:
        self._resolve()
        if self.installed:
            return
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.installed = False


class _TimedWrite:
    """``pool.write()`` split into the time to enter (waiting for the
    single writer) and the time held (the ``<span>_hold`` span, which is
    on the stack while the block runs)."""

    def __init__(self, tracer: Tracer, span: str, manager: Any):
        self._tracer = tracer
        self._span = span
        self._manager = manager
        self._frame: _Frame | None = None

    def __enter__(self):
        start = clock()
        value = self._manager.__enter__()
        current = self._tracer.current()
        request = self._tracer.current_request()
        self._tracer.record(f"{self._span}_wait", start, clock(), request,
                            parent=current.span_id if current else None)
        self._frame = self._tracer.enter(f"{self._span}_hold", request)
        return value

    def __exit__(self, *exc_info):
        try:
            return self._manager.__exit__(*exc_info)
        finally:
            if self._frame is not None:
                self._tracer.exit(self._frame)
