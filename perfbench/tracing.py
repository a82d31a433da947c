"""In-memory spans recorded around calls into spotform's modules.

The program is not edited: `install` swaps module attributes that spotform
looks up at call time (for example `spotform.harness.fit_nmf` or
`spotform.nmf.update_step`) for wrappers that record one span per call.
Every alias of a wrapped function across the loaded `spotform.*` modules is
swapped, so a call is traced whichever module it is made from.  A target
that no longer exists is reported absent; it never fails the run.

Pool workers forked while the wrappers are installed record spans in their
own copy of the tracer.  A target with a `ship` hook hands the spans of each
call back inside the value it returns, and `adopt` merges them in the parent;
perf_counter_ns is one system-wide monotonic clock, so times line up.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    row: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


# spans that start a unit of work; their id becomes the `row` of every span
# they contain
UNIT_SPANS = ("harness.row", "cli.main", "harness.prepare_pipeline")


class Tracer:
    """Records nested spans; single-threaded.  Worker spans come in by `adopt`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._swapped: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.pid = os.getpid()

    def begin(self, name: str, attrs: dict) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, name,
                    time.perf_counter_ns(), attrs=attrs)
        if name in UNIT_SPANS or parent is None:
            span.row = span.id
        else:
            span.row = parent.row
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn, describe=None, ship=None):
        tracer = self

        def traced(*args, **kwargs):
            attrs = {}
            if describe is not None:
                try:
                    attrs = describe(*args, **kwargs)
                except Exception:  # noqa: BLE001 - a changed signature drops attrs only
                    attrs = {}
            span = tracer.begin(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if ship is not None and os.getpid() != tracer.pid:
                ship(result, tracer.take(span.id))
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each (module, attribute, span name, describe, ship) target."""
        for module_name, attr, name, describe, ship in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, fn, describe, ship)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("spotform"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._swapped.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._swapped):
            setattr(mod, key, fn)
        self._swapped.clear()

    def take(self, first: int) -> list[dict]:
        """Remove span `first` and every later span; return them as records."""
        records = self.to_records(self.spans[first:])
        del self.spans[first:]
        return records

    def adopt(self, records: list[dict]) -> None:
        """Append spans recorded by a worker, renumbered into this tracer.

        A parent id the worker did not record itself is a span that was open
        here when the worker was forked, so it keeps its number.
        """
        ids = {}
        for r in records:
            ids[r["id"]] = len(self.spans)
            self.spans.append(Span(
                ids[r["id"]], ids.get(r["parent"], r["parent"]), r["name"],
                r["start_ns"], r["end_ns"], ids.get(r["row"], r["row"]),
                r["attrs"]))

    def self_ms(self) -> dict[int, float]:
        """Span id -> duration minus the part of it its children cover.

        Children of one span overlap when they ran in parallel workers, so
        the covered part is the union of their intervals.
        """
        children: dict[int, list[tuple[int, int]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
        out = {}
        for s in self.spans:
            covered, reach = 0, s.start_ns
            for start, end in sorted(children.get(s.id, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out[s.id] = (s.end_ns - s.start_ns - covered) / 1e6
        return out

    def ancestor(self, span: Span, name: str) -> Span | None:
        p = span.parent
        while p is not None:
            if self.spans[p].name == name:
                return self.spans[p]
            p = self.spans[p].parent
        return None

    def to_records(self, spans=None) -> list[dict]:
        return [
            {"id": s.id, "parent": s.parent, "name": s.name,
             "start_ns": s.start_ns, "end_ns": s.end_ns, "row": s.row,
             "attrs": s.attrs}
            for s in (self.spans if spans is None else spans)
        ]
