"""Spans recorded from outside the program under test.

The benchmark replaces the names that callers look up (a module global such
as ``extbloch.pipeline.psi_v`` or a class attribute such as
``extbloch.quantize.FuzzyIndex.key``) with wrappers that open a span around
the original.  Spans are kept in memory and written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
It is computed as the spans close, from a stack of open spans, so spans that
are only aggregated (hot leaves called millions of times) still have their
time taken out of their parent's self time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the nearest kept enclosing span
    op: int | None
    self_s: float


class _Frame:
    __slots__ = ("name", "start", "child_s", "index", "anchor")

    def __init__(self, name, start, index, anchor):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.index = index    # own slot in Tracer.spans, None when not kept
        self.anchor = anchor  # nearest kept span at or above this frame


class Tracer:
    """Collects spans, per-name call counts and self times, and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.marks: dict[int, Any] = {}  # objects tagged by one hook for another
        self.op: int | None = None
        self._stack: list[_Frame] = []

    def enter(self, name: str, keep: bool = True) -> _Frame:
        anchor = self._stack[-1].anchor if self._stack else None
        index = None
        if keep:
            index = len(self.spans)
            self.spans.append(None)  # filled in when the span closes
            anchor = index
        frame = _Frame(name, self.clock(), index, anchor)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        self._stack.pop()
        duration = end - frame.start
        own = duration - frame.child_s
        self.calls[frame.name] += 1
        self.self_s[frame.name] += own
        if self._stack:
            self._stack[-1].child_s += duration
        if frame.index is not None:
            parent = self._stack[-1].anchor if self._stack else None
            self.spans[frame.index] = Span(frame.name, frame.start, end,
                                           parent, self.op, own)

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if op is not None:
            self.op = op
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def write(self, path, header: dict) -> None:
        """One JSON object per line: the header, then every kept span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(
                        [s.name, s.start, s.end, s.parent, s.op, s.self_s])
                        + "\n")


@dataclass(frozen=True)
class Hook:
    """One wrapped name.

    target: dotted path of the name, as the caller looks it up.
    name:   span name; ``rename(tracer, args)`` may pick it per call.
    keep:   False aggregates calls and self time without storing spans.
    timed:  False only counts calls (no span, no clock reads).
    before: ``(args, kwargs) -> token``, run just before the call.
    after:  ``(tracer, token, result, args, kwargs)``, run after it.
    """

    target: str
    name: str
    keep: bool = True
    timed: bool = True
    rename: Callable[[Tracer, tuple], str] | None = None
    before: Callable[[tuple, dict], Any] | None = None
    after: Callable[..., None] | None = None


def resolve(target: str):
    """(owner, attribute) for a dotted name, or None when it is absent."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


def _wrap(tracer: Tracer, hook: Hook, fn):
    if not hook.timed:
        calls, name = tracer.calls, hook.name

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def traced(*args, **kwargs):
        name = hook.rename(tracer, args) if hook.rename else hook.name
        token = hook.before(args, kwargs) if hook.before else None
        frame = tracer.enter(name, hook.keep)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if hook.after:
            hook.after(tracer, token, result, args, kwargs)
        return result
    return traced


@contextmanager
def installed(tracer: Tracer, hooks: list[Hook]):
    """Wrap every hook's target for the duration of the block; targets that
    do not exist are listed in ``tracer.absent`` and left alone."""
    patches = []
    try:
        for hook in hooks:
            found = resolve(hook.target)
            if found is None:
                if hook.target not in tracer.absent:
                    tracer.absent.append(hook.target)
                continue
            owner, attr = found
            own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, _wrap(tracer, hook, original))
            patches.append((owner, attr, original, own))
        yield tracer
    finally:
        for owner, attr, original, own in reversed(patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
