"""The traced run: replay a workload inside spans, then probe every layer.

End-to-end metrics are never taken from here.  The replay runs twice,
first with the recorder off and then on, and the two outputs must be
identical.  Both walls are recorded, but on a shared box two runs of the
same second of work differ by far more than tracing costs, so the
overhead ratio is taken from the number of spans and the calibrated cost
of one span, over the untraced wall.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import SRC
from .procs import Children
from .probes import (
    PROBE_SIZES, SMOKE_PROBE_SIZES, ProbeContext, generator_cpu_s, run_probes,
)
from .replay import REPLAY_SIZES, SMOKE_REPLAY_SIZES, replay
from .spans import (
    Recorder, child_coverage, layer_self_times_ns, span_cost_ns, write_trace,
)
from .workloads import TMP_ROOT, Checks

__all__ = ["run_traced"]


def _identity_checks(checks: Checks, workload: str, plain: dict, traced: dict) -> None:
    checks.check(plain == traced, "traced and untraced replays produced different outputs")
    if workload == "dispatch_smallpoints":
        for name in ("pool", "connect", "connect_cached"):
            checks.check(traced[name] == traced["inline"],
                         f"replay: {name} results differ from the inline pass")
    elif workload != "offline_figs":
        checks.check(traced["warm"] == traced["cold"],
                     "replay: warm results differ from the cold pass")


def run_traced(
    workload: str, seed: int, smoke: bool, children: Children,
    trace_path: Path, fingerprint: dict,
) -> dict:
    TMP_ROOT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-trace-", dir=TMP_ROOT))
    (tmp / "home").mkdir()
    # In-process calls must not reach the user's caches either.
    os.environ["REPRO_SWEEP_CACHE"] = str(tmp / "default-sweep-cache.json")
    os.environ["REPRO_COST_CACHE"] = str(tmp / "default-cost-cache.json")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    replay_sizes = (SMOKE_REPLAY_SIZES if smoke else REPLAY_SIZES)[workload]
    probe_sizes = SMOKE_PROBE_SIZES if smoke else PROBE_SIZES
    rec = Recorder(workload)
    checks = Checks()
    try:
        # Imports and first-call costs are paid here, not by whichever of
        # the two timed replays happens to run first.
        replay(Recorder(workload, enabled=False), workload, SMOKE_REPLAY_SIZES[workload],
               seed, tmp / "warmup", children)
        plain = replay(Recorder(workload, enabled=False), workload, replay_sizes,
                       seed, tmp / "plain", children)
        traced = replay(rec, workload, replay_sizes, seed, tmp / "traced", children)
        _identity_checks(checks, workload, plain["outputs"], traced["outputs"])
        replay_spans = len(rec.spans)
        coverage = child_coverage(rec.spans, 0)

        ctx = ProbeContext(seed=seed, tmp=tmp, children=children, rec=rec, sizes=probe_sizes)
        values, errors = run_probes(ctx)
        for note in ctx.failures:
            checks.check(False, note)
        span_ns = span_cost_ns()
        values["bench.trace_overhead_ratio"] = (
            1.0 + replay_spans * span_ns / 1e9 / plain["wall_s"])
        values["bench.spans"] = len(rec.spans)
        values["bench.generator_cpu_s"] = generator_cpu_s()
        write_trace(trace_path, workload, rec.spans, fingerprint)
        layer_self = layer_self_times_ns(rec.spans[:replay_spans])
        return {
            "workload": workload,
            "seed": seed,
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": values,
            "details": {
                "replay_sizes": replay_sizes,
                "probe_sizes": probe_sizes,
                "probe_errors": errors,
                "null_metrics": sorted(k for k, v in values.items() if v is None),
                "replay_wall_s": {"untraced": plain["wall_s"], "traced": traced["wall_s"]},
                "replay_spans": replay_spans,
                "span_cost_us": span_ns / 1e3,
                "replay_span_coverage": coverage,
                "replay_layer_self_s": {
                    k: v / 1e9 for k, v in sorted(layer_self.items())},
                "trace_file": trace_path.name,
                "failures": checks.failures,
            },
        }
    finally:
        children.kill_all()
        shutil.rmtree(tmp, ignore_errors=True)
