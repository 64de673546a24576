#!/usr/bin/env python
"""Validate a telemetry directory produced by ``repro sweep --metrics``.

CI runs this against a tiny instrumented sweep to catch schema drift in
the observability layer: every JSONL row must parse and carry its
required keys, the run manifest must match the documented schema, and
the trace file must be loadable Chrome trace JSON with paired async
events.  Exits non-zero with a description of the first problem found.

Beyond sweep telemetry, ``--resilience FILE`` validates a ``repro
resilience`` degradation-curve artifact and ``--serve STATE_DIR``
validates a sweep server's state directory:
the ``serve_event`` scheduling log (``telemetry/server.jsonl``) and
every per-sweep ``telemetry/sweep-*.jsonl`` written by ``repro serve``.

Usage::

    python scripts/validate_telemetry.py [DIR] [--trace FILE]
        [--resilience resilience.json] [--serve STATE_DIR]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SAMPLE_KEYS = {"kind", "cycle", "name", "type", "labels", "value"}
POINT_KEYS = {"kind", "key", "config", "result", "cached", "completed", "total"}
MANIFEST_KEYS = {
    "schema", "created", "simulator_rev", "wall_time_s", "points",
    "config_keys", "host",
}
MANIFEST_SCHEMA = "repro-run-manifest/1"
INSTRUMENT_TYPES = {"counter", "gauge", "histogram"}
RESILIENCE_SCHEMA = "repro/resilience/v1"
RESILIENCE_KEYS = {
    "schema", "topology", "total_vcs", "injection_rate", "sw_alloc_arch",
    "vc_alloc_arch", "speculation", "cycles", "seed", "fault_counts",
    "faulted_links", "curves",
}
RESILIENCE_POINT_KEYS = {"link_faults", "delivered_fraction", "degraded_mode"}
# serve_event rows (repro serve scheduling log): per-event required
# fields beyond the common {kind, event, ts} envelope.
SERVE_EVENT_FIELDS = {
    "server_started": {"host", "port", "cached_entries"},
    "server_stopped": set(),
    "handshake_refused": {"reason"},
    "worker_connected": {"worker"},
    "worker_disconnected": {"worker"},
    "client_connected": {"client"},
    "client_disconnected": {"client"},
    "sweep_submitted": {"client", "signature", "points", "recovered"},
    "enqueued": {"client", "tasks"},
    "lease": {"key", "worker"},
    "requeue": {"key", "reason", "worker", "lease_attempts"},
    "retry": {"key", "worker", "attempt", "delay_s"},
    "point_done": {"key", "worker"},
    "point_failed": {"key", "fail_kind", "error", "attempts"},
    "sweep_done": {"signature", "completed", "failed", "cache_hits"},
    "sweep_abandoned": {"signature", "remaining"},
}


def fail(msg: str) -> "None":
    print(f"validate_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_jsonl(path: Path):
    rows = []
    for i, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            fail(f"{path}:{i}: invalid JSON ({exc})")
    return rows


def check_metrics(path: Path) -> None:
    rows = load_jsonl(path)
    if not rows:
        fail(f"{path}: empty")
    samples = [r for r in rows if r.get("kind") == "sample"]
    if not samples:
        fail(f"{path}: no sample rows")
    for r in samples:
        missing = SAMPLE_KEYS - set(r)
        if missing:
            fail(f"{path}: sample row missing keys {sorted(missing)}: {r}")
        if r["type"] not in INSTRUMENT_TYPES:
            fail(f"{path}: unknown instrument type {r['type']!r}")
        if r["type"] == "histogram":
            v = r["value"]
            if set(v) != {"le", "counts", "count", "sum"}:
                fail(f"{path}: malformed histogram value {v}")
            if len(v["counts"]) != len(v["le"]) + 1:
                fail(f"{path}: histogram bucket/bound count mismatch")
    names = {r["name"] for r in samples}
    for required in ("sa_requests_nonspec", "sa_grants", "buffer_occupancy"):
        if required not in names:
            fail(f"{path}: required instrument {required!r} never sampled")
    print(f"  metrics.jsonl: {len(rows)} rows, {len(names)} instruments")


def check_sweep(path: Path) -> None:
    rows = load_jsonl(path)
    kinds = [r.get("kind") for r in rows]
    if kinds[:1] != ["sweep_started"] or kinds[-1:] != ["sweep_finished"]:
        fail(f"{path}: expected sweep_started ... sweep_finished, got {kinds}")
    points = [r for r in rows if r.get("kind") == "point"]
    if not points:
        fail(f"{path}: no point rows")
    for r in points:
        missing = POINT_KEYS - set(r)
        if missing:
            fail(f"{path}: point row missing keys {sorted(missing)}")
    print(f"  sweep.jsonl: {len(points)} point(s)")


def check_manifest(path: Path) -> None:
    manifest = json.loads(path.read_text())
    missing = MANIFEST_KEYS - set(manifest)
    if missing:
        fail(f"{path}: missing keys {sorted(missing)}")
    if manifest["schema"] != MANIFEST_SCHEMA:
        fail(f"{path}: schema {manifest['schema']!r} != {MANIFEST_SCHEMA!r}")
    pts = manifest["points"]
    if pts["total"] != len(manifest["config_keys"]):
        fail(f"{path}: points.total != len(config_keys)")
    print(f"  manifest.json: {pts['total']} point(s), "
          f"sim rev {manifest['simulator_rev']}")


def check_trace(path: Path) -> None:
    doc = json.loads(path.read_text())
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")
    begins = sorted(e["id"] for e in events if e.get("ph") == "b")
    ends = sorted(e["id"] for e in events if e.get("ph") == "e")
    if begins != ends:
        fail(f"{path}: unpaired async events "
             f"({len(begins)} begins vs {len(ends)} ends)")
    for e in events:
        if e.get("ph") == "X" and e.get("dur", 0) < 0:
            fail(f"{path}: negative duration in event {e}")
    bd = doc.get("otherData", {}).get("breakdown")
    if not bd or bd.get("packets", 0) <= 0:
        fail(f"{path}: missing/empty latency breakdown in otherData")
    print(f"  trace: {len(events)} events, {len(begins)} packets paired")


def check_resilience(path: Path) -> None:
    artifact = json.loads(path.read_text())
    missing = RESILIENCE_KEYS - set(artifact)
    if missing:
        fail(f"{path}: missing keys {sorted(missing)}")
    if artifact["schema"] != RESILIENCE_SCHEMA:
        fail(f"{path}: schema {artifact['schema']!r} "
             f"!= {RESILIENCE_SCHEMA!r}")
    counts = artifact["fault_counts"]
    if not isinstance(counts, list) or not counts:
        fail(f"{path}: fault_counts must be a non-empty list")
    curves = artifact["curves"]
    if not isinstance(curves, dict) or not curves:
        fail(f"{path}: curves must map routing modes to point lists")
    points_total = 0
    for mode, points in curves.items():
        if len(points) != len(counts):
            fail(f"{path}: mode {mode!r} has {len(points)} point(s) for "
                 f"{len(counts)} fault count(s)")
        for point in points:
            if point.get("failed"):
                # A recorded point failure carries only its x coordinate.
                if "link_faults" not in point:
                    fail(f"{path}: failed {mode} point lacks link_faults")
                continue
            missing = RESILIENCE_POINT_KEYS - set(point)
            if missing:
                fail(f"{path}: {mode} point missing keys "
                     f"{sorted(missing)}: {point}")
            frac = point["delivered_fraction"]
            if not isinstance(frac, (int, float)) or not 0 <= frac <= 1:
                fail(f"{path}: {mode} k={point['link_faults']}: "
                     f"delivered_fraction {frac!r} outside [0, 1]")
            points_total += 1
    for key, links in artifact["faulted_links"].items():
        if not links:
            fail(f"{path}: faulted_links[{key!r}] is empty")
        if len(links) != int(key):
            fail(f"{path}: faulted_links[{key!r}] lists {len(links)} "
                 f"link(s)")
    print(f"  resilience: {len(curves)} mode(s), {points_total} "
          f"simulated point(s)")


def check_serve(state_dir: Path) -> None:
    log = state_dir / "telemetry" / "server.jsonl"
    if not log.exists():
        fail(f"{log}: no server event log")
    rows = load_jsonl(log)
    if not rows:
        fail(f"{log}: empty")
    events = []
    for i, row in enumerate(rows, 1):
        if row.get("kind") != "serve_event":
            fail(f"{log}:{i}: kind {row.get('kind')!r} != 'serve_event'")
        event = row.get("event")
        if event not in SERVE_EVENT_FIELDS:
            fail(f"{log}:{i}: unknown serve event {event!r}")
        if not isinstance(row.get("ts"), (int, float)):
            fail(f"{log}:{i}: missing/bad timestamp")
        missing = SERVE_EVENT_FIELDS[event] - set(row)
        if missing:
            fail(f"{log}:{i}: {event} row missing keys {sorted(missing)}")
        events.append(event)
    if events[0] != "server_started":
        fail(f"{log}: first event {events[0]!r} != 'server_started'")
    done = events.count("point_done")
    leases = events.count("lease")
    if done > leases:
        fail(f"{log}: {done} point_done event(s) but only {leases} lease(s)")
    print(f"  server.jsonl: {len(rows)} event(s), {leases} lease(s), "
          f"{done} point(s) done, {events.count('requeue')} requeue(s)")
    sweep_logs = sorted((state_dir / "telemetry").glob("sweep-*.jsonl"))
    if not sweep_logs:
        fail(f"{state_dir}: no per-sweep telemetry written")
    for sweep_log in sweep_logs:
        check_sweep(sweep_log)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dir", nargs="?", default=None,
                        help="telemetry directory (--metrics DIR)")
    parser.add_argument("--trace", default=None,
                        help="trace file (defaults to DIR/trace.json if "
                             "present)")
    parser.add_argument("--resilience", default=None,
                        help="resilience artifact (repro resilience "
                             "--output) to validate")
    parser.add_argument("--serve", default=None, metavar="STATE_DIR",
                        help="sweep-server state dir (repro serve "
                             "--state-dir) to validate")
    args = parser.parse_args(argv)

    if args.dir is None and args.resilience is None and args.serve is None:
        fail("nothing to validate: give a telemetry DIR, --resilience "
             "or --serve")
    if args.dir is not None:
        directory = Path(args.dir)
        if not directory.is_dir():
            fail(f"{directory} is not a directory")
        print(f"validating telemetry in {directory}")
        check_metrics(directory / "metrics.jsonl")
        check_sweep(directory / "sweep.jsonl")
        check_manifest(directory / "manifest.json")
        trace = Path(args.trace) if args.trace else directory / "trace.json"
        if trace.exists():
            check_trace(trace)
    if args.resilience is not None:
        resilience = Path(args.resilience)
        if not resilience.exists():
            fail(f"{resilience} does not exist")
        print(f"validating resilience artifact {resilience}")
        check_resilience(resilience)
    if args.serve is not None:
        state_dir = Path(args.serve)
        if not state_dir.is_dir():
            fail(f"{state_dir} is not a directory")
        print(f"validating sweep-server state in {state_dir}")
        check_serve(state_dir)
    print("validate_telemetry: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
