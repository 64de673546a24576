"""repro.obs -- opt-in observability for the cycle-accurate simulator.

Three layers, all zero-overhead when disabled (the simulator carries a
single ``observer is None`` check per hook site -- the null-object fast
path):

``repro.obs.metrics``
    Generic instruments (counters, gauges, histograms) behind a
    :class:`MetricsRegistry`, plus structured warnings
    (:func:`emit_warning`) that route to pluggable sinks instead of
    spamming stderr.
``repro.obs.tracing``
    A flit lifecycle tracer recording per-packet events (inject, VC
    allocation, switch grant, ejection) and exporting Chrome
    trace-event JSON loadable in Perfetto, plus a packet-latency
    breakdown (source queueing vs. allocation vs. traversal cycles).
``repro.obs.observer``
    :class:`SimObserver`, the object the simulator hooks call.  Attach
    one to a network (``run_simulation(cfg, observer=...)``) to collect
    per-router/per-VC metrics on a configurable cadence into a JSONL
    time series and/or a flit trace.

``repro.obs.profiling``
    :class:`PhaseProfiler`, the phase-attribution profiler for the
    per-cycle simulator loop (``run_simulation(cfg, profiler=...)``)
    behind the same ``profiler is None`` fast path; all simulator
    wall-clock reads live there.

``repro.obs.telemetry`` adds structured *sweep* telemetry: a
:class:`JsonlReporter` for the sweep engine, per-run manifests, and the
``repro report`` summarizer.  ``repro.obs.perf_report`` renders the
self-contained HTML performance dashboard behind ``repro perf report``.

Every name below is resolved on first access (:mod:`repro._lazy`), so
importing one layer never loads the others.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import (
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        StructuredWarning,
        add_warning_sink,
        clear_recent_warnings,
        emit_warning,
        recent_warnings,
        remove_warning_sink,
    )
    from .observer import NullObserver, SimObserver
    from .profiling import PHASES, PROFILE_SCHEMA, PhaseProfiler, profile_point
    from .telemetry import (
        JsonlReporter,
        build_run_manifest,
        summarize_metrics_dir,
        write_run_manifest,
    )
    from .tracing import FlitTracer, LatencyBreakdown

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StructuredWarning",
    "add_warning_sink",
    "clear_recent_warnings",
    "emit_warning",
    "recent_warnings",
    "remove_warning_sink",
    "NullObserver",
    "SimObserver",
    "FlitTracer",
    "LatencyBreakdown",
    "PHASES",
    "PROFILE_SCHEMA",
    "PhaseProfiler",
    "profile_point",
    "JsonlReporter",
    "build_run_manifest",
    "write_run_manifest",
    "summarize_metrics_dir",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".metrics": [
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "StructuredWarning",
            "add_warning_sink",
            "clear_recent_warnings",
            "emit_warning",
            "recent_warnings",
            "remove_warning_sink",
        ],
        ".observer": ["NullObserver", "SimObserver"],
        ".profiling": [
            "PHASES",
            "PROFILE_SCHEMA",
            "PhaseProfiler",
            "profile_point",
        ],
        ".tracing": ["FlitTracer", "LatencyBreakdown"],
        ".telemetry": [
            "JsonlReporter",
            "build_run_manifest",
            "write_run_manifest",
            "summarize_metrics_dir",
        ],
    },
)
