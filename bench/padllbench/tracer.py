"""Span tracing from outside the program.

The traced run wraps the layers' public callables *in this process* --
class attributes, module functions, and callables handed to public
constructors -- and records one span per call: name, start, end, the span
that caused it, and a trace id shared by everything under one root.  The
program is not edited; in-program tracing is ROADMAP item 5.

Spans are aggregated as they close (calls, total time, self time = total
minus the time covered by child spans), so the per-request path of
``sim_multistage_sharing`` -- millions of spans -- costs no memory; the
first ``keep`` spans are also retained whole and written out as JSONL.

Threads: each thread has its own span stack.  A span opened with
``remote=True`` (a wire request) is adopted as the parent of spans that
start on *another* thread with an empty stack while it is open -- the
benchmark's wire workload is closed-loop, one request in flight, so the
spans a reader thread records while a request is open were caused by it.
The request's self time is then exactly the hand-off: round trip minus
codec and handler.  Aggregates are updated without a lock for the same
reason (one thread runs at a time).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["SpanTracer", "Span"]

#: (span id, name, start ns, end ns, parent span id or 0, trace id)
Span = Tuple[int, str, int, int, int, int]

# Frame layout on the per-thread stack.
_ID, _NAME, _START, _CHILD, _TRACE, _PARENT = range(6)


class SpanTracer:
    def __init__(self, keep: int = 200_000) -> None:
        self.keep = keep
        self.spans: List[Span] = []
        self.dropped = 0
        #: name -> [calls, total ns, self ns]
        self._agg: Dict[str, List[int]] = {}
        #: name -> running sum of the values a wrapped callable returned
        self.sums: Dict[str, float] = {}
        #: name -> calls that raised
        self.errors: Dict[str, int] = {}
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._remote_parent: Optional[list] = None
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
            return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self._remote_parent
        span_id = next(self._ids)
        frame = [
            span_id,
            name,
            0,
            0,
            parent[_TRACE] if parent is not None else span_id,
            parent,
        ]
        stack.append(frame)
        frame[_START] = time.perf_counter_ns()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._tls.stack.pop()
        duration = end - frame[_START]
        name = frame[_NAME]
        agg = self._agg.get(name)
        if agg is None:
            agg = self._agg[name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[_CHILD]
        parent = frame[_PARENT]
        if parent is not None:
            parent[_CHILD] += duration
        if len(self.spans) < self.keep:
            self.spans.append(
                (
                    frame[_ID],
                    name,
                    frame[_START],
                    end,
                    parent[_ID] if parent is not None else 0,
                    frame[_TRACE],
                )
            )
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def spanning(
        self,
        fn: Callable[..., Any],
        name: str,
        *,
        key: Optional[Callable[..., str]] = None,
        sum_result: bool = False,
        remote: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` wrapped so each call is a span named ``name``.

        ``key(*args, **kwargs)`` appends ``[key]`` to the name (fabric calls
        are split by message type this way); ``sum_result`` adds the
        return value to ``sums[name]`` (ops served, ops granted);
        ``remote`` offers the open span to other threads as their parent.
        """
        open_, close, sums, errors = self._open, self._close, self.sums, self.errors

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = open_(name if key is None else f"{name}[{key(*args, **kwargs)}]")
            if remote:
                self._remote_parent = frame
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] = errors.get(name, 0) + 1
                raise
            finally:
                if remote:
                    self._remote_parent = None
                close(frame)
            if sum_result:
                sums[name] = sums.get(name, 0.0) + result
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching --------------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` and remember the original for :meth:`unpatch`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        """Replace the callable ``owner.attr`` by its spanning wrapper."""
        self.patch(owner, attr, self.spanning(owner.__dict__[attr], name, **options))

    def wrap_function(
        self, homes: Sequence[Any], attr: str, name: str, **options: Any
    ) -> None:
        """Wrap a module-level function in every module that imported it by
        name (``homes[0]`` defines it)."""
        wrapped = self.spanning(homes[0].__dict__[attr], name, **options)
        for module in homes:
            self.patch(module, attr, wrapped)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------------
    def take(self) -> Dict[str, Tuple[int, float, float]]:
        """Aggregates since the last call: name -> (calls, total s, self s)."""
        out = {
            name: (calls, total / 1e9, self_ns / 1e9)
            for name, (calls, total, self_ns) in self._agg.items()
        }
        self._agg = {}
        return out

    def write_jsonl(self, path: str) -> None:
        quoted: Dict[str, str] = {}
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, trace in self.spans:
                if name not in quoted:
                    quoted[name] = json.dumps(name)
                fh.write(
                    f'{{"id": {span_id}, "name": {quoted[name]}, "start_ns": {start}, '
                    f'"end_ns": {end}, "parent": {parent}, "trace": {trace}}}\n'
                )
