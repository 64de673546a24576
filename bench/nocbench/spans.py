"""In-memory spans recorded by the benchmark's own code.

A span is one call into a layer: ``name``, ``layer``, ``start_ns``,
``end_ns``, ``parent`` (index of the span that caused it, or ``None``)
and ``workload``.  Spans are kept in a list and written once, when the
traced run ends.  A layer's *self time* is its spans' duration minus the
part of each interval that the span's children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Recorder",
    "span_cost_ns",
    "covered_ns",
    "self_times_ns",
    "layer_self_times_ns",
    "child_coverage",
    "write_trace",
]

TRACE_SCHEMA = "nocbench/trace/v1"


class Recorder:
    """Collects spans; a disabled recorder runs the same code and keeps none."""

    def __init__(
        self,
        workload: str,
        enabled: bool = True,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.workload = workload
        self.enabled = enabled
        self.clock = clock
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @property
    def current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def add(
        self,
        name: str,
        layer: str,
        start_ns: int,
        end_ns: int,
        parent: Optional[int] = None,
    ) -> Optional[int]:
        """Record a finished span (e.g. rebuilt from progress callbacks)."""
        if not self.enabled:
            return None
        self.spans.append({
            "name": name,
            "layer": layer,
            "start_ns": start_ns,
            "end_ns": max(end_ns, start_ns),
            "parent": parent,
            "workload": self.workload,
        })
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Optional[int]]:
        """Time the body as a child of the innermost open span."""
        if not self.enabled:
            yield None
            return
        index = self.add(name, layer, self.clock(), 0, self.current)
        assert index is not None
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            span = self.spans[index]
            span["end_ns"] = max(self.clock(), span["start_ns"])


def span_cost_ns(n: int = 20000) -> float:
    """Calibrated cost of recording one empty span, in nanoseconds."""
    rec = Recorder("calibration")
    t0 = time.perf_counter_ns()
    for _ in range(n):
        with rec.span("empty", "bench"):
            pass
    return (time.perf_counter_ns() - t0) / n


def covered_ns(intervals: Sequence[Tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    reach: Optional[int] = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _children(spans: Sequence[dict]) -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            kids.setdefault(span["parent"], []).append(index)
    return kids


def _clipped_child_cover(spans: Sequence[dict], index: int, kids: List[int]) -> int:
    lo, hi = spans[index]["start_ns"], spans[index]["end_ns"]
    return covered_ns([
        (max(spans[k]["start_ns"], lo), min(spans[k]["end_ns"], hi))
        for k in kids
    ])


def self_times_ns(spans: Sequence[dict]) -> List[int]:
    """Per span: duration minus the union of its children, clipped to it.

    Overlapping siblings are counted once, a child that sticks out of its
    parent counts only for the part inside, and a zero-length span has
    zero self time.
    """
    kids = _children(spans)
    out = []
    for index, span in enumerate(spans):
        duration = span["end_ns"] - span["start_ns"]
        out.append(duration - _clipped_child_cover(spans, index, kids.get(index, [])))
    return out


def layer_self_times_ns(spans: Sequence[dict]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for span, self_ns in zip(spans, self_times_ns(spans)):
        totals[span["layer"]] = totals.get(span["layer"], 0) + self_ns
    return totals


def child_coverage(spans: Sequence[dict], index: int) -> float:
    """Share of span ``index`` that its direct children cover."""
    duration = spans[index]["end_ns"] - spans[index]["start_ns"]
    if duration <= 0:
        return 1.0
    return _clipped_child_cover(spans, index, _children(spans).get(index, [])) / duration


def write_trace(path: Path, workload: str, spans: Sequence[dict], fingerprint: dict) -> None:
    layers = layer_self_times_ns(spans)
    doc = {
        "schema": TRACE_SCHEMA,
        "workload": workload,
        "fingerprint": fingerprint,
        "layer_self_s": {k: v / 1e9 for k, v in sorted(layers.items())},
        "spans": list(spans),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
