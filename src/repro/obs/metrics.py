"""Metric instruments, the registry, and structured warnings.

The registry follows the Prometheus data model scaled down for a
single-process simulator: an *instrument* is identified by a name plus
a frozen label set (``counter("credit_stalls", router=5)``), lookups
are memoized so hot paths can re-fetch instruments cheaply, and
counters are **cumulative** -- a consumer diffs consecutive samples to
recover per-interval rates.

Samples serialize to JSONL rows (one instrument per line) so time
series can be streamed to disk while a simulation runs and grepped or
loaded with one ``json.loads`` per line afterwards::

    {"kind": "sample", "cycle": 1200, "name": "sa_grants",
     "type": "counter", "labels": {"router": 12}, "value": 841,
     "ctx": {"injection_rate": 0.2}}

Structured warnings give library code a way to report data-quality
problems (e.g. an underfilled batch-means estimate) without printing to
stderr: :func:`emit_warning` fans the warning out to registered sinks
(an active :class:`~repro.obs.observer.SimObserver` writes them into
its metrics JSONL) and keeps a bounded in-memory ring for inspection.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StructuredWarning",
    "add_warning_sink",
    "remove_warning_sink",
    "emit_warning",
    "recent_warnings",
    "clear_recent_warnings",
]

_log = logging.getLogger("repro.obs")


class Counter:
    """Monotonically increasing cumulative count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def serialize(self) -> int:
        return self.value


class Gauge:
    """Point-in-time value, overwritten at each sample."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def serialize(self) -> float:
        return self.value


class Histogram:
    """Cumulative histogram with fixed upper-bound buckets.

    ``bounds`` are inclusive upper edges; observations above the last
    bound land in an implicit overflow bucket.  ``counts`` has
    ``len(bounds) + 1`` entries.
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "count", "total")

    DEFAULT_BOUNDS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64)

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds or self.DEFAULT_BOUNDS)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def serialize(self) -> Dict[str, Any]:
        return {
            "le": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
        }


LabelKey = Tuple[str, Tuple[Tuple[str, Any], ...]]


class MetricsRegistry:
    """Named, labelled instruments with memoized lookup.

    ``counter(name, **labels)`` returns the same object for the same
    (name, labels) pair, so call sites can fetch-and-increment without
    caching instruments themselves (though hot paths may).
    """

    def __init__(self) -> None:
        self._instruments: Dict[LabelKey, Any] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def _get(self, name: str, labels: Dict[str, Any], factory) -> Any:
        key = (name, tuple(sorted(labels.items())))
        inst = self._instruments.get(key)
        if inst is None:
            inst = factory()
            self._instruments[key] = inst
        return inst

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(name, labels, Gauge)

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        return self._get(name, labels, lambda: Histogram(bounds))

    # ------------------------------------------------------------------
    def rows(
        self, cycle: int, ctx: Optional[Dict[str, Any]] = None
    ) -> Iterator[Dict[str, Any]]:
        """One JSON-ready sample row per instrument."""
        for (name, labels), inst in self._instruments.items():
            row: Dict[str, Any] = {
                "kind": "sample",
                "cycle": cycle,
                "name": name,
                "type": inst.kind,
                "labels": dict(labels),
                "value": inst.serialize(),
            }
            if ctx:
                row["ctx"] = ctx
            yield row

    def totals(self, name: str) -> Dict[Tuple[Tuple[str, Any], ...], Any]:
        """Current value of every instrument called ``name``, by labels."""
        return {
            labels: inst.serialize()
            for (n, labels), inst in self._instruments.items()
            if n == name
        }

    def total(self, name: str) -> float:
        """Sum of every scalar instrument called ``name`` across labels."""
        return sum(
            inst.value
            for (n, _), inst in self._instruments.items()
            if n == name and hasattr(inst, "value")
        )


# ----------------------------------------------------------------------
# structured warnings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StructuredWarning:
    """A machine-readable warning emitted by library code."""

    code: str
    message: str
    context: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "warning",
            "code": self.code,
            "message": self.message,
            "context": self.context,
        }


WarningSink = Callable[[StructuredWarning], None]

_sinks: List[WarningSink] = []
_recent: deque = deque(maxlen=256)


def add_warning_sink(sink: WarningSink) -> None:
    """Register a callable invoked for every structured warning."""
    _sinks.append(sink)


def remove_warning_sink(sink: WarningSink) -> None:
    """Detach ``sink``; a sink that was never added is not an error."""
    try:
        _sinks.remove(sink)
    except ValueError:
        pass


def emit_warning(code: str, message: str, **context: Any) -> StructuredWarning:
    """Emit a structured warning to all sinks and the recent ring.

    Never raises: a failing sink is logged and skipped so diagnostics
    can't take down a simulation.
    """
    warning = StructuredWarning(code, message, context)
    _recent.append(warning)
    _log.debug("%s: %s %s", code, message, context)
    for sink in list(_sinks):
        try:
            sink(warning)
        except Exception:  # pragma: no cover - defensive
            _log.exception("warning sink failed for %s", code)
    return warning


def recent_warnings() -> List[StructuredWarning]:
    """The most recent structured warnings (bounded ring, oldest first)."""
    return list(_recent)


def clear_recent_warnings() -> None:
    """Empty the recent-warnings ring (tests start from a clean slate)."""
    _recent.clear()
