"""Compare two sets of runs of the benchmark, one row per workload and metric.

A pair *regresses* when the second median is worse than the first by more
than the metric's bound.  Where the run-to-run spread of either side is
wider than the bound the pair is *unresolved*, not unchanged -- unless
every run of the second set reads better than every run of the first.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

from .catalog import END_TO_END, PER_LAYER
from .stats import spread

__all__ = ["load_runs", "compare_runs", "exact_mismatches", "failed_operations",
           "format_rows", "main"]

# Per-layer values that are modelled-hardware statistics or counts of
# work done: deterministic, so two runs of one seed must agree exactly.
# bench.spans is left out: a time-triggered cache flush adds a span.
EXACT_PREFIXES = ("netsim.sim.", "core.sw_match_quality.")
EXACT_NAMES = {
    n for n, unit, _ in PER_LAYER if unit == "count" and n != "bench.spans"
} | {"eval.cache_hit_ratio_warm"}


def load_runs(path: Path) -> List[dict]:
    doc = json.loads(Path(path).read_text())
    if "runs" not in doc:
        raise ValueError(f"{path}: not a benchmark result file (no 'runs')")
    return doc["runs"]


def _samples(runs: Sequence[dict], traced: bool) -> Dict[str, Dict[str, List[float]]]:
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        if bool(run.get("trace")) != traced:
            continue
        per = out.setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            if value is not None:
                per.setdefault(name, []).append(value)
    return out


def compare_runs(a_runs: Sequence[dict], b_runs: Sequence[dict]) -> List[dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    a, b = _samples(a_runs, False), _samples(b_runs, False)
    rows = []
    for workload in a:
        for name, unit, better, bound in END_TO_END:
            xs, ys = a[workload].get(name), b.get(workload, {}).get(name)
            if not xs or not ys:
                continue
            med_a, med_b = statistics.median(xs), statistics.median(ys)
            sign = 1.0 if better == "lower" else -1.0
            worse_by = sign * (med_b - med_a) / med_a
            spread_a, spread_b = spread(xs), spread(ys)
            all_better = (max(ys) < min(xs)) if better == "lower" else (min(ys) > max(xs))
            if max(spread_a, spread_b) > bound and not all_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "regression"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "unit": unit, "better": better,
                "bound": bound, "median_a": med_a, "median_b": med_b,
                "n_a": len(xs), "n_b": len(ys),
                "ratio_b_over_a": med_b / med_a,
                "spread_a": spread_a, "spread_b": spread_b, "verdict": verdict,
            })
    return rows


def exact_mismatches(a_runs: Sequence[dict], b_runs: Sequence[dict]) -> List[str]:
    """``sim.`` values and counts that differ between the sets' traced runs
    of the same workload and seed."""
    def keyed(runs):
        return {(r["workload"], r["seed"]): r["metrics"] for r in runs if r.get("trace")}

    a, b = keyed(a_runs), keyed(b_runs)
    out = []
    for key in sorted(set(a) & set(b)):
        for name in a[key]:
            if name.startswith(EXACT_PREFIXES) or name in EXACT_NAMES:
                if a[key][name] != b[key].get(name):
                    out.append(f"{key[0]} seed {key[1]}: {name} "
                               f"{a[key][name]!r} != {b[key].get(name)!r}")
    return out


def format_rows(rows: Sequence[dict]) -> str:
    head = (f"{'workload':<22} {'metric':<12} {'median A':>10} {'median B':>10} "
            f"{'B/A':>7} {'base A':>10} {'bound':>6} {'spread A':>9} {'spread B':>9}  verdict")
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r['workload']:<22} {r['metric']:<12} {r['median_a']:>10.4f} "
            f"{r['median_b']:>10.4f} {r['ratio_b_over_a']:>7.3f} "
            f"{r['median_a']:>8.3f}{r['unit']:>2} {r['bound']:>6.0%} "
            f"{r['spread_a']:>9.1%} {r['spread_b']:>9.1%}  {r['verdict']}"
        )
    return "\n".join(lines)


def failed_operations(runs: Sequence[dict]) -> int:
    return sum(run["failed"] for run in runs)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", flush=True)
        return 2
    a_runs, b_runs = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    rows = compare_runs(a_runs, b_runs)
    print(format_rows(rows))
    print(f"failed operations: A {failed_operations(a_runs)}, B {failed_operations(b_runs)}")
    for line in exact_mismatches(a_runs, b_runs):
        print("exact value differs: " + line)
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0
