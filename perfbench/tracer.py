"""Span recorder that times calls into tollopt from outside the package.

``Tracer`` replaces chosen module or class attributes with timing wrappers
while it is active and puts the original objects back when it closes, so
code run outside the ``with`` block carries no wrapper.  Every call made
through a wrapped attribute becomes one span: its kind, start, end, the
span that was open when it began (its parent), and an optional info value
taken from the call's arguments and result.  Spans stay in memory until
the caller aggregates them with ``self_times``.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, NamedTuple

#: info(args, kwargs, result) -> any value kept with the span.
InfoFn = Callable[[tuple, dict, Any], Any]


class Span(NamedTuple):
    idx: int
    kind: str
    start: float
    end: float
    parent: int | None
    info: Any  # info(...) of the result, or the exception's class name
    raised: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Target(NamedTuple):
    owner: Any  # a module or a class
    attr: str
    kind: str
    info: InfoFn | None = None


class Tracer:
    def __init__(self, targets: tuple[Target, ...]):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next = 0
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        try:
            for t in self.targets:
                original = vars(t.owner)[t.attr]
                setattr(t.owner, t.attr, self._wrap(original, t.kind, t.info))
                self._saved.append((t.owner, t.attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, kind: str, info: InfoFn | None) -> Callable:
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = self._next
            self._next = idx + 1
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                spans.append(
                    Span(idx, kind, start, end, parent, type(exc).__name__, True)
                )
                raise
            finally:
                stack.pop()
            end = perf_counter()
            value = info(args, kwargs, out) if info is not None else None
            spans.append(Span(idx, kind, start, end, parent, value, False))
            return out

        return traced

    def self_times(self) -> dict[int, float]:
        """Span index -> duration minus the durations of its child spans."""
        child: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return {s.idx: s.duration - child[s.idx] for s in self.spans}
