"""In-memory spans around the public functions of a set of modules.

``Tracer.install`` replaces each public function defined in one of the
given modules by a wrapper that records a span (name, start, end,
parent) and rebinds every alias of it: ``from .x import f`` copies the
reference into the importing module, so patching ``x.f`` alone would
miss calls made through the copy.  ``uninstall`` restores every binding.
The traced package itself is not modified on disk.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str  # "<module>.<function>", module without the package prefix
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# A probe sees a traced call's bound arguments and result and returns
# counters to attach to its span.  It runs after the span has ended.
Probe = Callable[[dict, object], dict]


class Tracer:
    def __init__(self, modules, probes: dict[str, Probe] | None = None, skip=()):
        self.modules = list(modules)
        self.probes = dict(probes or {})
        self.skip = set(skip)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                if name not in self.skip:
                    wrappers[obj] = self._wrap(name, obj)
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        probe = self.probes.get(name)
        signature = inspect.signature(fn) if probe is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = probe(bound.arguments, result)
            return result

        return traced


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON object per line: name, start, end, parent, attrs."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps({
                "name": span.name, "start": span.start, "end": span.end,
                "parent": span.parent, "attrs": span.attrs,
            }) + "\n")


# --- span arithmetic ---------------------------------------------------------


def children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            kids[span.parent].append(i)
    return kids


def covered(spans: list[Span], kids: list[list[int]], i: int, stop) -> float:
    """Total duration of the topmost descendants of span i matching ``stop``.

    With ``stop`` always true this is the time of i's direct children, so
    ``spans[i].duration - covered(...)`` is i's self time.
    """
    total = 0.0
    pending = list(kids[i])
    while pending:
        c = pending.pop()
        if stop(spans[c]):
            total += spans[c].duration
        else:
            pending.extend(kids[c])
    return total


def outermost(spans: list[Span], match) -> list[int]:
    """Indices of matching spans with no matching ancestor."""
    out = []
    for i, span in enumerate(spans):
        if not match(span):
            continue
        p = span.parent
        while p >= 0 and not match(spans[p]):
            p = spans[p].parent
        if p < 0:
            out.append(i)
    return out
