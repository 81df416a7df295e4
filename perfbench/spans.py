"""In-memory spans and the self-time arithmetic over them.

A span records one call across a layer boundary: its name, start and
end on the system-wide monotonic clock, the span that was open when it
started (its parent) and the id of the benchmark run it belongs to.
Spans are kept in memory and written out once, when the run ends.

A span's *self time* is its duration minus the part of its interval
that its child spans cover.  Children may overlap each other — page
loads running in two pool workers under one ``supervise.run`` span —
so the covered part is the length of the union of the children's
intervals, clipped to the parent's.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Counts = Callable[[Any, tuple, dict], Dict[str, float]]


@dataclass
class Span:
    span_id: str
    parent: Optional[str]
    name: str
    start: float
    end: float
    run_id: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` within ``[start, end]``."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    reach = start
    for a, b in clipped:
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time of every span, keyed by span id."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered(span.start, span.end, children.get(span.span_id, ()))
        for span in spans
    }


class Tracer:
    """Collects spans for one run.

    Ids embed the process id, so spans recorded in forked pool workers
    stay unique when they are merged back with :meth:`absorb`.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[str] = []
        self._ids = itertools.count(1)

    def _next_id(self) -> str:
        return f"{os.getpid()}:{next(self._ids)}"

    def record(self, name: str, fn: Callable, args: tuple, kwargs: dict,
               counts: Optional[Counts] = None) -> Any:
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``counts(result, args, kwargs)`` supplies the span's attributes
        when the call returns; a call that raises is still recorded,
        with ``counts(None, ...)`` and the exception's type name.
        """
        span_id = self._next_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        error: Optional[str] = None
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            attrs = counts(result, args, kwargs) if counts is not None else {}
            if error is not None:
                attrs["error"] = error
            self.spans.append(
                Span(span_id, parent, name, start, end, self.run_id, attrs)
            )

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span with no attributes."""
        return self.record(name, fn, args, kwargs)

    def wrap(self, name: str, fn: Callable, counts: Optional[Counts] = None) -> Callable:
        """``fn`` with every call recorded as a span."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.record(name, fn, args, kwargs, counts)

        return traced

    def take_local(self) -> List[Span]:
        """Remove and return the spans this process recorded (used by
        pool workers to ship their spans home)."""
        prefix = f"{os.getpid()}:"
        mine = [s for s in self.spans if s.span_id.startswith(prefix)]
        self.spans = [s for s in self.spans if not s.span_id.startswith(prefix)]
        return mine

    def absorb(self, spans: Iterable[Span]) -> None:
        self.spans.extend(spans)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def spans_to_json(spans: Sequence[Span]) -> str:
    return json.dumps([asdict(s) for s in spans])


def spans_from_json(text: str) -> List[Span]:
    return [Span(**raw) for raw in json.loads(text)]


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def layer_totals(spans: Sequence[Span], within: Optional[Span] = None) -> Dict[str, LayerTotals]:
    """Calls, busy time (summed durations) and self time per span name,
    optionally restricted to the descendants of ``within``."""
    if within is not None:
        spans = descendants(spans, within)
    selfs = self_times(spans)
    totals: Dict[str, LayerTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.busy_s += span.duration
        entry.self_s += selfs[span.span_id]
    return totals


def descendants(spans: Sequence[Span], root: Span) -> List[Span]:
    """``root`` and every span below it."""
    kids: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        kids.setdefault(span.parent, []).append(span)
    out: List[Span] = []
    frontier = [root]
    while frontier:
        span = frontier.pop()
        out.append(span)
        frontier.extend(kids.get(span.span_id, ()))
    return out


def time_table(spans: Sequence[Span], root: Span, title: str) -> str:
    """The "where the time went" table: self time per layer under
    ``root``, largest first, as a share of the root's wall time."""
    totals = layer_totals(spans, within=root)
    wall = root.duration
    lines = [
        f"where the time went: {title} ({wall:.3f} s traced wall)",
        f"  {'layer':<28} {'calls':>7} {'busy s':>9} {'self s':>9} {'share':>7}",
    ]
    for name, entry in sorted(totals.items(), key=lambda kv: -kv[1].self_s):
        share = entry.self_s / wall if wall > 0 else 0.0
        lines.append(
            f"  {name:<28} {entry.calls:>7} {entry.busy_s:>9.3f} "
            f"{entry.self_s:>9.3f} {share:>6.1%}"
        )
    return "\n".join(lines)
