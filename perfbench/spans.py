"""Spans recorded from outside the program, around its public calls.

A :class:`Tracer` patches a public attribute (a module-level function
or a class method) with a wrapper that opens a span around each call,
and puts the original back when the tracer closes.  Spans record id,
parent, name, layer, request id, start and end on the clock they are
given; with the program's own monotonic clock, campaign phase timers
recorded by a ``TelemetrySession`` can be added as child spans without
cross-calibration.  Spans stay in memory; :meth:`Tracer.dump` writes
them once.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("id", "parent", "name", "layer", "req", "start", "end",
                 "attrs")

    def __init__(self, id, parent, name, layer, req, start, end=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.req = req
        self.start = start
        self.end = end
        self.attrs: dict = {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "layer": self.layer, "req": self.req, "start": self.start,
            "end": self.end, "attrs": self.attrs,
        }


class Tracer:
    """In-memory span recorder plus attribute patching.

    Callers undo their patches with :meth:`restore` in a ``finally``,
    so the program is left as it was even when the traced code raised.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    @contextmanager
    def span(self, name: str, layer: str, req=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans) + 1,
            parent=parent.id if parent is not None else None,
            name=name, layer=layer, req=None, start=self.clock(),
        )
        if req is None:
            req = parent.req if parent is not None else span.id
        span.req = req
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Span) -> Span:
        """Record a span timed elsewhere (e.g. a telemetry phase)."""
        span = Span(len(self.spans) + 1, parent.id, name, layer,
                    parent.req, start, end)
        self.spans.append(span)
        return span

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr: str, layer: str, on_return=None) -> None:
        """Wrap ``owner.attr`` so each call runs inside a span.

        ``on_return(span, result)`` may copy counts from the returned
        object onto the span.  A returned generator is timed until it
        is exhausted, since that is when its work is done.
        """
        original = getattr(owner, attr)
        name = attr if inspect.ismodule(owner) else f"{owner.__name__}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name, layer) as span:
                result = original(*args, **kwargs)
                if on_return is not None:
                    on_return(span, result)
            if inspect.isgenerator(result):
                return tracer._timed(result, name, layer)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _timed(self, gen, name: str, layer: str):
        with self.span(f"{name}.consume", layer):
            yield from gen

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def children(self) -> dict:
        kids: dict = {}
        for span in self.spans:
            kids.setdefault(span.parent, []).append(span)
        return kids

    def self_time(self, span: Span, kids: dict) -> float:
        """Duration minus the part of it that its children cover."""
        covered = 0.0
        edge = span.start
        for child in sorted(kids.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, edge)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        return span.dur - covered

    def layer_self_times(self, roots) -> dict:
        """Self time per layer over the trees under ``roots``."""
        kids = self.children()
        totals: dict = {}
        todo = list(roots)
        while todo:
            span = todo.pop()
            totals[span.layer] = (
                totals.get(span.layer, 0.0) + self.self_time(span, kids)
            )
            todo.extend(kids.get(span.id, ()))
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"spans": [s.as_dict() for s in self.spans]}
        ))
