"""Self-contained HTML performance dashboard (``repro perf report``).

Aggregates the repo's performance artifacts into one static page:

* a result file of the repo benchmark (``python3 bench/run.py``,
  schema ``nocbench/result/v1``) -- the end-to-end metrics per workload
  with failed/attempted operation counts and the run's fingerprint and,
  for traced runs, throughput per kernel, a phase-stacked bar showing
  where the simulator's wall time went and self time per layer;
* a sweep telemetry directory (``repro sweep --metrics DIR``) -- point
  table with latency percentiles, cache hit rate and fault counters;
* a resilience artifact (``repro resilience --output FILE``) --
  degradation curves (delivered fraction vs faulted links) per routing
  mode, rendered as per-point bars (docs/ROBUSTNESS.md).

The output embeds all styling inline and draws charts with plain
HTML/CSS bars -- no JavaScript, no external assets -- so
the file renders identically as a CI artifact, over ``file://`` or in
an air-gapped review environment.

Every input is optional: missing artifacts render as a note rather than
an error.  Only when *no* input exists does :func:`build_perf_report`
raise ``FileNotFoundError`` (the CLI maps it to exit code 2).
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

from .profiling import PHASES

__all__ = ["build_perf_report"]

#: What ``python3 bench/run.py`` stamps on every result file.
BENCH_SCHEMA = "nocbench/result/v1"

#: Fixed per-phase palette so the same phase has the same color in every
#: chart (and across report generations).
_PHASE_COLORS = {
    "setup": "#9e9e9e",
    "delivery": "#8e6fb8",
    "event_calendar": "#5d9cec",
    "traffic": "#48b0a0",
    "routing": "#f0a04b",
    "vc_alloc": "#d9534f",
    "sw_alloc": "#c9a227",
    "link_traversal": "#5cb85c",
    "stats": "#777777",
}

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em auto;
       max-width: 70em; color: #222; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2em;
     border-bottom: 1px solid #ddd; padding-bottom: .25em; }
table { border-collapse: collapse; font-size: .9em; }
th, td { padding: .3em .8em; text-align: right; border-bottom: 1px solid #eee; }
th { background: #f7f7f7; } td:first-child, th:first-child { text-align: left; }
.bar { display: flex; height: 1.4em; width: 34em; max-width: 100%;
       border-radius: 3px; overflow: hidden; background: #f0f0f0; }
.bar span { display: block; height: 100%; }
.legend span { display: inline-block; margin-right: 1em; font-size: .85em; }
.legend i { display: inline-block; width: .8em; height: .8em;
            margin-right: .3em; border-radius: 2px; vertical-align: -1px; }
.note { color: #888; font-style: italic; }
.fingerprint { color: #888; font-size: .8em; font-family: monospace; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _phase_bar(phases: Dict[str, float]) -> str:
    """One horizontal stacked bar; segment width = share of the total."""
    total = sum(phases.values())
    if total <= 0:
        return '<div class="note">no phase data</div>'
    cells = []
    for name in PHASES:
        secs = phases.get(name, 0.0)
        if secs <= 0:
            continue
        share = secs / total
        cells.append(
            f'<span style="width:{share * 100:.2f}%;'
            f'background:{_PHASE_COLORS.get(name, "#bbb")}" '
            f'title="{_esc(name)}: {secs:.3f}s ({share:.1%})"></span>'
        )
    return f'<div class="bar">{"".join(cells)}</div>'


def _phase_legend() -> str:
    items = "".join(
        f'<span><i style="background:{color}"></i>{_esc(name)}</span>'
        for name, color in _PHASE_COLORS.items()
    )
    return f'<div class="legend">{items}</div>'


def _num(value: Any, spec: str = ",.4g") -> str:
    """A metric value; a probe that failed left ``null``."""
    return "-" if value is None else format(value, spec)


def _pivot(metrics: Dict[str, Any], prefix: str) -> Dict[str, Dict[str, Any]]:
    """``{point: {middle: value}}`` over the metrics named
    ``<prefix>.<middle>.<point>``, both in file order."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, value in metrics.items():
        if name.startswith(prefix + "."):
            middle, _, point = name[len(prefix) + 1:].partition(".")
            out.setdefault(point, {})[middle] = value
    return out


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------
def _end_to_end_table(groups: Dict[str, List[Dict[str, Any]]]) -> str:
    """One row per workload (and set): the median of each end-to-end
    metric over its runs, and the operations that failed."""
    names: List[str] = []
    by_row: Dict[str, List[Dict[str, Any]]] = {}
    for label, runs in groups.items():
        for run in runs:
            if not run.get("trace"):
                by_row.setdefault(f"{run.get('workload')}{label}", []).append(run)
                names = names or list(run.get("metrics", {}))
    if not by_row:
        return '<p class="note">no end-to-end run in this file</p>'
    body = []
    for row, runs in by_row.items():
        cells = [f"<td>{_esc(row)}</td>"]
        for name in names:
            values = [r["metrics"][name] for r in runs
                      if r["metrics"].get(name) is not None]
            cells.append(f"<td>{_num(median(values) if values else None)}</td>")
        failed = sum(r.get("failed", 0) for r in runs)
        attempted = sum(r.get("attempted", 0) for r in runs)
        cells.append(f"<td>{failed} / {attempted}</td><td>{len(runs)}</td>")
        body.append("<tr>" + "".join(cells) + "</tr>")
    return (
        "<table><tr><th>workload</th>"
        + "".join(f"<th>{_esc(name)}</th>" for name in names)
        + "<th>failed / attempted</th><th>runs (median shown)</th></tr>"
        + "".join(body) + "</table>"
    )


def _traced_block(run: Dict[str, Any], label: str) -> str:
    """One traced run: self time per layer of the replayed workload,
    throughput per kernel and the phase breakdown of the probed points."""
    metrics = run.get("metrics", {})
    details = run.get("details", {})
    parts = [f"<h3>{_esc(run.get('workload'))}{_esc(label)}, "
             f"seed {_esc(run.get('seed'))}</h3>"]

    layers = details.get("replay_layer_self_s") or {}
    total = sum(layers.values())
    if total > 0:
        rows = "".join(
            f"<tr><td>{_esc(layer)}</td><td>{secs:.3f}</td>"
            f"<td>{secs / total:.1%}</td></tr>"
            for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1])
        )
        parts.append("<table><tr><th>layer</th><th>self time (s)</th>"
                     "<th>share</th></tr>" + rows + "</table>")

    by_point = _pivot(metrics, "netsim.cycles_per_s")
    if by_point:
        kernels = list(dict.fromkeys(k for row in by_point.values() for k in row))
        rows = "".join(
            f"<tr><td>{_esc(point)}</td>"
            + "".join(f"<td>{_num(row.get(k), ',.0f')}</td>" for k in kernels)
            + "</tr>"
            for point, row in by_point.items()
        )
        parts.append(
            "<table><tr><th>point</th>"
            + "".join(f"<th>{_esc(k)} cyc/s</th>" for k in kernels)
            + "</tr>" + rows + "</table>"
        )

    rows = ""
    for point, phases in _pivot(metrics, "netsim.phase_s").items():
        phases = {name: secs or 0.0 for name, secs in phases.items()}
        coverage = metrics.get(f"netsim.phase_coverage.{point}")
        rows += (
            f"<tr><td>{_esc(point)}</td><td>{_phase_bar(phases)}</td>"
            f"<td>{sum(phases.values()):.3f}s</td>"
            f"<td>{_num(coverage, '.1%')}</td></tr>"
        )
    if rows:
        parts.append("<table><tr><th>point</th><th>phase breakdown</th>"
                     "<th>in phases</th><th>coverage</th></tr>" + rows
                     + "</table>")

    for layer, error in (details.get("probe_errors") or {}).items():
        parts.append(f'<p class="note">probe_error[{_esc(layer)}]: '
                     f"{_esc(error)}</p>")
    return "".join(parts)


def _bench_section(result: Any, source: Path) -> str:
    """The one reader of the one schema: a ``nocbench/result/v1`` file in
    either shape ``bench/run.py`` writes -- ``runs``, or the ``sets`` of
    a ``--selfcheck``."""
    schema = result.get("schema") if isinstance(result, dict) else None
    if schema != BENCH_SCHEMA:
        return (
            '<h2>Benchmark</h2><p class="note">unsupported schema '
            f"{_esc(repr(schema))} in {_esc(source)}: expected "
            f"{_esc(repr(BENCH_SCHEMA))}, as <code>python3 bench/run.py"
            "</code> writes it</p>"
        )
    if "sets" in result:
        groups = {f" (set {side})": runs for side, runs in result["sets"].items()}
    else:
        groups = {"": result.get("runs", [])}
    traced = [
        _traced_block(run, label)
        for label, runs in groups.items() for run in runs if run.get("trace")
    ]
    if traced:
        per_layer = _phase_legend() + "".join(traced)
    else:
        per_layer = (
            '<p class="note">no traced run in this file &mdash; rerun with '
            "<code>python3 bench/run.py --trace</code>.</p>"
        )
    fp = result.get("fingerprint", {})
    sha = (fp.get("git_sha") or "?")[:12] + ("+dirty" if fp.get("git_dirty") else "")
    sizes = "smoke sizes" if fp.get("smoke") else f"{fp.get('seconds')} s per run"
    return (
        "<h2>Benchmark, end to end</h2>"
        f'<p class="fingerprint">source: {_esc(source)} (git {_esc(sha)}, '
        f"simulator rev {_esc(fp.get('simulator_rev'))}, "
        f"python {_esc(fp.get('python_full'))}, numpy {_esc(fp.get('numpy'))}, "
        f"{_esc(fp.get('nproc'))} cpu(s), seed {_esc(fp.get('seed'))}, "
        f"{_esc(sizes)}, {_esc(fp.get('started_at'))})</p>"
        + _end_to_end_table(groups)
        + "<h2>Benchmark, layer by layer</h2>" + per_layer
    )


def _metrics_section(metrics_dir: Path) -> str:
    from .telemetry import read_jsonl

    parts: List[str] = [f"<h2>Sweep telemetry</h2>"
                        f'<p class="fingerprint">source: {_esc(metrics_dir)}/'
                        "</p>"]
    sweep_path = metrics_dir / "sweep.jsonl"
    if sweep_path.exists():
        rows_all = read_jsonl(sweep_path)
        points = [r for r in rows_all if r.get("kind") == "point"]
        failed = [r for r in rows_all if r.get("kind") == "point_failed"]
        if points:
            cached = sum(1 for r in points if r.get("cached"))
            body = []
            for r in points:
                res = r.get("result", {})
                body.append(
                    f"<tr><td>{res.get('injection_rate')}</td>"
                    f"<td>{res.get('avg_latency')}</td>"
                    f"<td>{res.get('p50')}</td><td>{res.get('p95')}</td>"
                    f"<td>{res.get('p99')}</td>"
                    f"<td>{'cache' if r.get('cached') else 'sim'}</td></tr>"
                )
            parts.append(
                "<table><tr><th>inj rate</th><th>latency</th><th>p50</th>"
                "<th>p95</th><th>p99</th><th>source</th></tr>"
                + "".join(body) + "</table>"
                f"<p>{len(points)} point(s), cache hit rate "
                f"{cached / len(points):.0%}"
                + (f", <b>{len(failed)} failed</b>" if failed else "")
                + "</p>"
            )
    metrics_path = metrics_dir / "metrics.jsonl"
    if metrics_path.exists():
        rows_all = read_jsonl(metrics_path)
        fault_rows = [
            r for r in rows_all if r.get("kind") == "fault_counters"
        ]
        if fault_rows:
            totals: Dict[str, float] = {}
            for r in fault_rows:
                for name, value in (r.get("value") or {}).items():
                    if isinstance(value, (int, float)):
                        totals[name] = totals.get(name, 0) + value
            body = "".join(
                f"<tr><td>{_esc(name)}</td><td>{totals[name]:,.0f}</td></tr>"
                for name in sorted(totals)
            )
            parts.append(
                "<h3>Fault counters</h3><table><tr><th>counter</th>"
                "<th>total</th></tr>" + body + "</table>"
            )
        warnings = [r for r in rows_all if r.get("kind") == "warning"]
        if warnings:
            counts: Dict[str, int] = {}
            for w in warnings:
                code = w.get("code", "?")
                counts[code] = counts.get(code, 0) + 1
            body = "".join(
                f"<tr><td>{_esc(code)}</td><td>{n}</td></tr>"
                for code, n in sorted(counts.items())
            )
            parts.append(
                "<h3>Structured warnings</h3><table><tr><th>code</th>"
                "<th>count</th></tr>" + body + "</table>"
            )
    if len(parts) == 1:
        parts.append(
            '<p class="note">directory holds no sweep.jsonl / '
            "metrics.jsonl</p>"
        )
    return "".join(parts)


def _delivery_bar(fraction: float) -> str:
    """One delivered-fraction bar: green for the delivered share, red
    for the lost share -- 1.0 renders as a solid green bar."""
    delivered = max(0.0, min(1.0, fraction))
    cells = (
        f'<span style="width:{delivered * 100:.2f}%;background:#5cb85c" '
        f'title="delivered {delivered:.1%}"></span>'
    )
    if delivered < 1.0:
        cells += (
            f'<span style="width:{(1 - delivered) * 100:.2f}%;'
            f'background:#d9534f" title="lost {1 - delivered:.1%}"></span>'
        )
    return f'<div class="bar" style="width:12em">{cells}</div>'


def _resilience_section(artifact: Dict[str, Any], source: Path) -> str:
    counts = artifact.get("fault_counts", [])
    curves = artifact.get("curves", {})
    blocks: List[str] = []
    for mode in curves:
        by_count = {p.get("link_faults"): p for p in curves[mode]}
        rows = []
        for count in counts:
            p = by_count.get(count)
            if p is None or p.get("failed"):
                rows.append(
                    f"<tr><td>{_esc(count)}</td>"
                    '<td colspan="5" class="note">point failed</td></tr>'
                )
                continue
            frac = p.get("delivered_fraction", 0.0)
            flags = []
            if p.get("degraded_mode"):
                flags.append("degraded")
            if p.get("packets_unroutable"):
                flags.append(f"{p['packets_unroutable']} unroutable")
            if p.get("escape_reroutes"):
                flags.append(f"{p['escape_reroutes']} reroutes")
            rows.append(
                f"<tr><td>{_esc(count)}</td>"
                f"<td>{frac:.4f} {_delivery_bar(frac)}</td>"
                f"<td>{p.get('accepted_flit_rate', 0.0):.4f}</td>"
                f"<td>{_esc(p.get('p99', '-'))}</td>"
                f"<td>{_esc(p.get('packets_lost', '-'))}</td>"
                f"<td>{_esc(', '.join(flags) or '-')}</td></tr>"
            )
        blocks.append(
            f"<h3>{_esc(mode)} routing</h3>"
            "<table><tr><th>faulted links</th><th>delivered fraction</th>"
            "<th>accepted flits/cyc</th><th>p99</th><th>lost</th>"
            "<th>notes</th></tr>" + "".join(rows) + "</table>"
        )
    return (
        "<h2>Resilience (degradation vs permanent link faults)</h2>"
        f'<p class="fingerprint">source: {_esc(source)} '
        f"(mesh V={_esc(artifact.get('total_vcs'))}, "
        f"{_esc(artifact.get('sw_alloc_arch'))}/"
        f"{_esc(artifact.get('speculation'))}, "
        f"rate {_esc(artifact.get('injection_rate'))}, "
        f"seed {_esc(artifact.get('seed'))})</p>"
        + "".join(blocks)
    )


# ----------------------------------------------------------------------
def build_perf_report(
    bench_path: Optional[Path] = None,
    metrics_dir: Optional[Path] = None,
    resilience_path: Optional[Path] = None,
) -> str:
    """Render the dashboard from whichever artifacts exist.

    Raises ``FileNotFoundError`` when none of the given inputs exists.
    """
    sections: List[str] = []
    missing: List[str] = []

    if bench_path is not None and bench_path.exists():
        try:
            result = json.loads(bench_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            sections.append(
                f'<h2>Benchmark</h2><p class="note">unreadable '
                f"result file {_esc(bench_path)}: {_esc(exc)}</p>"
            )
        else:
            sections.append(_bench_section(result, bench_path))
    elif bench_path is not None:
        missing.append(str(bench_path))

    if metrics_dir is not None and metrics_dir.is_dir():
        sections.append(_metrics_section(metrics_dir))
    elif metrics_dir is not None:
        missing.append(str(metrics_dir))

    if resilience_path is not None and resilience_path.exists():
        from ..eval.resilience import load_resilience_artifact

        try:
            artifact = load_resilience_artifact(resilience_path)
        except (OSError, ValueError) as exc:  # incl. JSONDecodeError
            sections.append(
                f'<h2>Resilience</h2><p class="note">unreadable '
                f"resilience artifact {_esc(resilience_path)}: "
                f"{_esc(exc)}</p>"
            )
        else:
            sections.append(_resilience_section(artifact, resilience_path))
    elif resilience_path is not None:
        missing.append(str(resilience_path))

    if not sections:
        raise FileNotFoundError(
            "no performance artifacts found; looked for: "
            + (", ".join(missing) or "nothing (no inputs given)")
            + " -- run `python3 bench/run.py` and/or "
            "`repro sweep --metrics DIR` first"
        )
    for path in missing:
        sections.append(
            f'<p class="note">skipped missing input: {_esc(path)}</p>'
        )
    body = "".join(sections)
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        "<title>repro performance report</title>"
        f"<style>{_STYLE}</style></head><body>"
        "<h1>repro performance report</h1>"
        '<p class="note">Becker &amp; Dally SC\'09 allocator study &mdash; '
        "generated by <code>repro perf report</code>; fully "
        "self-contained, no external assets.</p>"
        + body + "</body></html>"
    )
