"""In-memory spans around the program's public functions, recorded from outside.

`Tracer.installed` swaps each named function for a timing wrapper in every
loaded `wlfiltration` module that binds it (the defining module and each
module that imported it), so calls the CLI makes internally are seen without
touching the program's files. A function that no longer exists is reported as
missing, and the layer metrics built on it are left out rather than failing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._children: dict[int | None, list[int]] = {}
        self.missing: set[str] = set()
        self._origin = time.perf_counter()
        # open spans; the traced functions are all called from one thread
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(Span(sid, name, 0.0, 0.0, parent))
        self._children.setdefault(parent, []).append(sid)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid].start = start
            self.spans[sid].end = end

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: dict[str, tuple[str, str]]):
        """Wrap `module.attr` for each span name -> (module, attr); undo on exit."""
        undo = []
        try:
            for span_name, (module_name, attr) in targets.items():
                original = getattr(importlib.import_module(module_name), attr, None)
                if original is None:
                    self.missing.add(span_name)
                    continue
                wrapper = self._wrap(original, span_name)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not mod_name.startswith("wlfiltration"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(undo):
                setattr(mod, key, original)

    def children(self, sid: int | None) -> list[Span]:
        """Direct children of span `sid`; with None, the top-level spans."""
        return [self.spans[c] for c in self._children.get(sid, ())]

    def descendants_named(self, sid: int, names: set[str]) -> list[Span]:
        """Outermost spans below `sid` whose name is in `names`."""
        found = []
        todo = self.children(sid)
        while todo:
            s = todo.pop()
            if s.name in names:
                found.append(s)
            else:
                todo.extend(self.children(s.sid))
        return found

    def as_records(self) -> list[dict]:
        return [
            {"id": s.sid, "name": s.name, "start": s.start - self._origin,
             "end": s.end - self._origin, "parent": s.parent, "workload": self.workload}
            for s in self.spans
        ]
