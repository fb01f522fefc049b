"""In-memory span tracer that wraps functions and methods of the lhts modules
from outside, without editing them.

A span is (name, start, end, parent, data). Spans are appended in call
order and a parent is always appended before its children, so a span's
parent index is smaller than its own. The program is single-threaded, so
sibling spans never overlap and the time a set of descendants covers is the
sum of their durations.

``Tracer`` is a context manager: entering it replaces each target with a
wrapper everywhere the lhts modules bind it; leaving it, normally or by an
exception, puts every original object back.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the root
    data: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``owner`` is a module (for a function) or a class (for a method that
    the class itself defines). ``probe(result)`` may return a dict of
    numbers to store on the span, such as a row count.
    """

    owner: object
    attr: str
    name: str
    probe: Callable[[object], dict] | None = None


class Tracer:
    def __init__(self, targets: Iterable[Target], modules: Iterable[object] = ()):
        self.targets = list(targets)
        # modules whose from-imported bindings of a wrapped function are
        # replaced too, so that callers in other modules see the wrapper
        self.modules = list(modules)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                self._patch(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, target: Target) -> None:
        original = getattr(target.owner, target.attr)
        wrapper = self._wrap(original, target.name, target.probe)
        holders = [target.owner]
        if inspect.ismodule(target.owner):
            holders += [m for m in self.modules
                        if m is not target.owner and getattr(m, target.attr, None) is original]
        for holder in holders:
            self._saved.append((holder, target.attr, original))
            setattr(holder, target.attr, wrapper)

    def _restore(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def _wrap(self, fn, name: str, probe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx].start, spans[idx].end = start, end
            if probe is not None:
                spans[idx].data = probe(result)
            return result

        return traced

    @contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx].start, self.spans[idx].end = start, end


# -- arithmetic over spans -------------------------------------------------------

class SpanIndex:
    """Children lists and ancestor queries over a finished list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s.parent >= 0:
                self.children[s.parent].append(i)

    def has_ancestor(self, idx: int, names: set[str]) -> bool:
        p = self.spans[idx].parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

    def covered(self, idx: int, names: set[str] | None = None) -> float:
        """Time inside span ``idx`` covered by its descendants.

        With ``names`` None, the direct children count. Otherwise the
        topmost descendants whose name is in ``names`` count; a descendant
        nested in another counted one is not counted again.
        """
        total = 0.0
        todo = list(self.children[idx])
        while todo:
            c = todo.pop()
            if names is None or self.spans[c].name in names:
                total += self.spans[c].duration
            else:
                todo.extend(self.children[c])
        return total

    def self_time(self, names: set[str], within: str,
                  minus: set[str] | None = None) -> float:
        """Sum over spans named in ``names`` under a ``within`` span of their
        duration minus the time their children cover (``minus`` None) or the
        time covered by descendants named in ``minus``."""
        return sum(s.duration - self.covered(i, minus)
                   for i, s in enumerate(self.spans)
                   if s.name in names and self.has_ancestor(i, {within}))

    def total(self, names: set[str], within: str, inside: str | None = None) -> float:
        """Time covered by topmost spans named in ``names`` under a
        ``within`` span, and also under an ``inside`` span when given."""
        return sum(s.duration for i, s in enumerate(self.spans)
                   if s.name in names and not self.has_ancestor(i, names)
                   and self.has_ancestor(i, {within})
                   and (inside is None or self.has_ancestor(i, {inside})))

    def select(self, names: set[str], within: str) -> list[Span]:
        return [s for i, s in enumerate(self.spans)
                if s.name in names and self.has_ancestor(i, {within})]
