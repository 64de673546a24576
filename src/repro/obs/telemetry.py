"""Structured sweep telemetry: JSONL reporter, run manifests, report.

Three pieces sit on top of the sweep engine (:mod:`repro.eval.runner`):

* :class:`JsonlReporter` -- a :class:`~repro.eval.runner.SweepReporter`
  that streams one JSON line per event (``sweep_started``, ``point``,
  ``sweep_finished``) with the full config, result summary and progress
  counters, flushed after every point so a killed sweep still leaves a
  usable log.

* :func:`build_run_manifest` / :func:`write_run_manifest` -- a per-run
  provenance record: config hashes, simulator revision, wall time,
  cache statistics and host info.  ``repro sweep`` writes it next to
  the sweep cache (``<cache>.manifest.json``) and, when ``--metrics``
  is given, into the metrics directory as ``manifest.json``.

* :func:`summarize_metrics_dir` -- the ``repro report`` backend: reads
  ``manifest.json`` / ``sweep.jsonl`` / ``metrics.jsonl`` from a
  telemetry directory and renders top stall sources, switch-allocator
  matching efficiency vs. injection rate, latency percentiles and the
  packet-latency breakdown.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import IO, Any, Dict, Iterable, List, Optional, Sequence, TextIO

from ..eval.runner import SweepReporter, SweepStats, config_key
from ..eval.tables import format_table
from ..netsim.config import SIMULATOR_REV, SimulationConfig, SimulationResult
from .metrics import emit_warning

__all__ = [
    "MANIFEST_SCHEMA",
    "EmptyTelemetryError",
    "JsonlReporter",
    "host_info",
    "build_run_manifest",
    "write_run_manifest",
    "read_jsonl",
    "summarize_metrics_dir",
]

MANIFEST_SCHEMA = "repro-run-manifest/1"


class EmptyTelemetryError(ValueError):
    """A telemetry directory exists but holds no recognized artifacts.

    Raised by :func:`summarize_metrics_dir` so callers (``repro
    report``) can exit with a clear message instead of printing an
    empty summary.
    """


class JsonlReporter(SweepReporter):
    """Append-structured sweep progress to a JSONL file or stream.

    Each line is self-contained JSON.  ``point`` rows carry the full
    config (plus its cache key) and the flat result summary, so a sweep
    log can be joined back to the result cache or replayed without the
    original script.
    """

    def __init__(self, path_or_stream: "Path | str | IO[str]") -> None:
        if hasattr(path_or_stream, "write"):
            self.path: Optional[Path] = None
            self._stream: Optional[IO[str]] = path_or_stream  # type: ignore[assignment]
            self._owns_stream = False
        else:
            self.path = Path(path_or_stream)  # type: ignore[arg-type]
            self._stream = None
            self._owns_stream = True

    def _write(self, row: Dict[str, Any], durable: bool = False) -> None:
        if self._stream is None:
            assert self.path is not None
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = self.path.open("w")
        self._stream.write(json.dumps(row) + "\n")
        self._stream.flush()
        if durable and self._owns_stream:
            # Completed point rows must survive a SIGKILL: flush() only
            # reaches the OS page cache, so fsync the file as well.  A
            # killed sweep then loses at most the in-flight row.
            try:
                os.fsync(self._stream.fileno())
            except (OSError, ValueError):
                pass  # stream without a real descriptor (tests, pipes)

    def sweep_started(self, stats: SweepStats) -> None:
        self._write(
            {"kind": "sweep_started", "total": stats.total, "ts": time.time()}
        )

    def point_done(
        self,
        cfg: SimulationConfig,
        result: SimulationResult,
        cached: bool,
        stats: SweepStats,
    ) -> None:
        self._write(
            {
                "kind": "point",
                "key": config_key(cfg),
                "config": cfg.to_dict(),
                "result": result.to_dict(),
                "cached": cached,
                "completed": stats.completed,
                "total": stats.total,
                "cache_hits": stats.cache_hits,
                "elapsed_s": stats.elapsed,
            },
            durable=True,
        )

    def point_failed(self, cfg, failure, stats: SweepStats) -> None:
        self._write(
            {
                "kind": "point_failed",
                "key": config_key(cfg),
                "config": cfg.to_dict(),
                "failure": failure.to_dict(),
                "completed": stats.completed,
                "total": stats.total,
                "elapsed_s": stats.elapsed,
            },
            durable=True,
        )

    def sweep_finished(self, stats: SweepStats) -> None:
        self._write(
            {
                "kind": "sweep_finished",
                "completed": stats.completed,
                "total": stats.total,
                "cache_hits": stats.cache_hits,
                "simulated": stats.simulated,
                "failed": stats.failed,
                "retries": stats.retries,
                "elapsed_s": stats.elapsed,
                "sims_per_sec": stats.sims_per_sec,
                "ts": time.time(),
            }
        )
        self.close()

    def close(self) -> None:
        if self._stream is not None and self._owns_stream:
            self._stream.close()
            self._stream = None


# ----------------------------------------------------------------------
# run manifest
# ----------------------------------------------------------------------
def host_info() -> Dict[str, Any]:
    """Host fingerprint of a run manifest, from ``os.uname()``.

    ``platform`` is ``sysname-release-machine``: ``platform.platform()``
    without its ``-with-glibcX.Y`` suffix, which costs the ``platform``,
    ``socket`` and ``subprocess`` imports, a ``uname -p`` child and a scan
    of the interpreter binary.  Without ``os.uname`` (Windows) the
    platform is ``sys.platform`` and the hostname ``COMPUTERNAME``.
    """
    uname = getattr(os, "uname", None)
    if uname is None:
        hostname = os.environ.get("COMPUTERNAME", "")
        platform = sys.platform
    else:
        u = uname()
        hostname = u.nodename
        platform = f"{u.sysname}-{u.release}-{u.machine}"
    return {
        "hostname": hostname,
        "platform": platform,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
    }


def build_run_manifest(
    configs: Sequence[SimulationConfig],
    *,
    wall_time_s: float,
    stats: Optional[SweepStats] = None,
    cache: Optional[Any] = None,
    command: Optional[Sequence[str]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Provenance record for one sweep invocation."""
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "created": time.time(),
        "simulator_rev": SIMULATOR_REV,
        "wall_time_s": wall_time_s,
        "points": {
            "total": len(configs),
            "cached": stats.cache_hits if stats is not None else None,
            "simulated": stats.simulated if stats is not None else None,
            "failed": stats.failed if stats is not None else None,
            "retries": stats.retries if stats is not None else None,
        },
        "config_keys": [config_key(cfg) for cfg in configs],
        "cache": (
            {
                "path": str(cache.path),
                "hits": cache.hits,
                "misses": cache.misses,
                "entries": len(cache),
            }
            if cache is not None
            else None
        ),
        "host": host_info(),
        "command": list(command) if command is not None else None,
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_run_manifest(path: "Path | str", manifest: Dict[str, Any]) -> Path:
    """Write ``manifest`` as JSON to ``path``, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=1))
    return path


# ----------------------------------------------------------------------
# `repro report` backend
# ----------------------------------------------------------------------
def read_jsonl(path: "Path | str") -> List[Dict[str, Any]]:
    """The rows of a JSONL file, skipping blank lines.

    A writer killed mid-append leaves a torn last line; like the sweep
    checkpoint's loader, skip what does not parse as a row -- wherever
    it sits -- and say how many lines went in one structured warning.
    """
    rows = []
    skipped = 0
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            row = None
        if isinstance(row, dict):
            rows.append(row)
        else:
            skipped += 1
    if skipped:
        emit_warning(
            "telemetry_partial_lines",
            f"skipped {skipped} unparsable line(s) in {path}",
            path=str(path),
            skipped=skipped,
        )
    return rows


def _read_manifest(path: Path) -> Optional[Dict[str, Any]]:
    """The run manifest at ``path``; a file that is not one JSON object
    is skipped with one structured warning."""
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError:
        manifest = None
    if isinstance(manifest, dict):
        return manifest
    emit_warning(
        "telemetry_bad_manifest",
        f"skipped unparsable manifest {path}",
        path=str(path),
    )
    return None


def _rate_of(row: Dict[str, Any]) -> Optional[float]:
    return row.get("ctx", {}).get("injection_rate")


def _final_counter_totals(
    samples: Iterable[Dict[str, Any]], name: str
) -> Dict[Any, Dict[int, float]]:
    """Last cumulative value of counter ``name`` per (rate, router).

    Rows stream in cycle order, so the last occurrence per key is the
    end-of-run total.  Keyed ``{injection_rate: {router: value}}``.
    """
    out: Dict[Any, Dict[int, float]] = {}
    for row in samples:
        if row.get("name") != name:
            continue
        rate = _rate_of(row)
        router = row.get("labels", {}).get("router", -1)
        out.setdefault(rate, {})[router] = row["value"]
    return out


def summarize_metrics_dir(
    directory: "Path | str", top: int = 5, stream: Optional[TextIO] = None
) -> str:
    """Human-readable summary of a telemetry directory's contents.

    Raises :class:`FileNotFoundError` when ``directory`` does not exist
    (or is not a directory) and :class:`EmptyTelemetryError` when it
    holds none of the expected artifacts, so callers fail loudly instead
    of rendering an empty report.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(
            f"{directory} is not a directory (expected a telemetry "
            "directory written by `repro sweep --metrics DIR`)"
        )
    sections: List[str] = []

    manifest_path = directory / "manifest.json"
    m = _read_manifest(manifest_path) if manifest_path.exists() else None
    if m is not None:
        host = m.get("host", {})
        pts = m.get("points", {})
        sections.append(
            f"run manifest: {pts.get('total')} point(s) "
            f"({pts.get('cached')} cached, {pts.get('simulated')} simulated), "
            f"sim rev {m.get('simulator_rev')}, "
            f"{m.get('wall_time_s', 0.0):.1f}s wall on "
            f"{host.get('hostname', '?')} "
            f"(python {host.get('python', '?')}, "
            f"{host.get('cpu_count', '?')} cpus)"
        )

    sweep_path = directory / "sweep.jsonl"
    if sweep_path.exists():
        points = [r for r in read_jsonl(sweep_path) if r.get("kind") == "point"]
        if points:
            rows = []
            for r in points:
                res = r.get("result", {})
                rows.append(
                    [
                        res.get("injection_rate"),
                        res.get("avg_latency"),
                        res.get("p50"),
                        res.get("p95"),
                        res.get("p99"),
                        "sat" if res.get("saturated") else "",
                        "cache" if r.get("cached") else "sim",
                    ]
                )
            sections.append(
                format_table(
                    ["inj rate", "latency", "p50", "p95", "p99", "", "source"],
                    rows,
                    title="sweep points (sweep.jsonl)",
                )
            )

    metrics_path = directory / "metrics.jsonl"
    if metrics_path.exists():
        rows_all = read_jsonl(metrics_path)
        samples = [r for r in rows_all if r.get("kind") == "sample"]
        warnings = [r for r in rows_all if r.get("kind") == "warning"]
        breakdowns = [r for r in rows_all if r.get("kind") == "breakdown"]

        # Switch-allocator matching efficiency vs injection rate:
        # grants over requests, summed across routers, end-of-run.
        grants = _final_counter_totals(samples, "sa_grants")
        req_ns = _final_counter_totals(samples, "sa_requests_nonspec")
        req_sp = _final_counter_totals(samples, "sa_requests_spec")
        stalls = _final_counter_totals(samples, "credit_stalls")
        if grants:
            eff_rows = []
            for rate in sorted(grants, key=lambda r: (r is None, r)):
                g = sum(grants.get(rate, {}).values())
                rq = sum(req_ns.get(rate, {}).values()) + sum(
                    req_sp.get(rate, {}).values()
                )
                st = sum(stalls.get(rate, {}).values())
                eff_rows.append(
                    [rate, int(rq), int(g), (g / rq) if rq else None, int(st)]
                )
            sections.append(
                format_table(
                    ["inj rate", "SA requests", "SA grants", "efficiency",
                     "credit stalls"],
                    eff_rows,
                    title="switch-allocator matching efficiency (metrics.jsonl)",
                )
            )

        # Top stall sources across the whole run, by router.
        per_router: Dict[int, float] = {}
        for by_router in stalls.values():
            for router, value in by_router.items():
                per_router[router] = per_router.get(router, 0) + value
        starved = _final_counter_totals(samples, "vc_starved")
        starved_by_router: Dict[int, float] = {}
        for by_router in starved.values():
            for router, value in by_router.items():
                starved_by_router[router] = (
                    starved_by_router.get(router, 0) + value
                )
        if per_router:
            worst = sorted(
                per_router.items(), key=lambda kv: kv[1], reverse=True
            )[:top]
            sections.append(
                format_table(
                    ["router", "credit stalls", "vc starved"],
                    [
                        [rid, int(n), int(starved_by_router.get(rid, 0))]
                        for rid, n in worst
                    ],
                    title=f"top {len(worst)} stall sources",
                )
            )

        if breakdowns:
            rows = []
            for b in breakdowns:
                v = b.get("value", {})
                rows.append(
                    [
                        _rate_of(b),
                        v.get("packets"),
                        v.get("avg_total"),
                        v.get("avg_source_queue"),
                        v.get("avg_va_wait"),
                        v.get("avg_sa_wait"),
                        v.get("avg_traversal"),
                    ]
                )
            sections.append(
                format_table(
                    ["inj rate", "packets", "total", "src queue", "va wait",
                     "sa wait", "traversal"],
                    rows,
                    title="packet latency breakdown (cycles)",
                )
            )

        if warnings:
            counts: Dict[str, int] = {}
            for w in warnings:
                counts[w.get("code", "?")] = counts.get(w.get("code", "?"), 0) + 1
            sections.append(
                format_table(
                    ["warning code", "count"],
                    sorted(counts.items()),
                    title="structured warnings",
                )
            )

    if not sections:
        raise EmptyTelemetryError(
            f"no telemetry found under {directory}: expected "
            "manifest.json, sweep.jsonl or metrics.jsonl "
            "(written by `repro sweep --metrics DIR`)"
        )
    text = "\n\n".join(sections)
    if stream is not None:
        print(text, file=stream)
    return text
