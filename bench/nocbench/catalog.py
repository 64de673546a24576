"""Names, units and directions of every workload and metric.

``BENCHMARK.json`` at the repo root is :func:`benchmark_manifest` written
out; ``bench/tests`` asserts that the two agree.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = [
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "P4",
    "PHASES",
    "RUN_SECONDS",
    "benchmark_manifest",
]

RUN_SECONDS = 20

WORKLOADS: Dict[str, str] = {
    "sweep_mesh_wf": (
        "Fig 13 flagship sweep, cold then warm cache: netsim does >95% of the "
        "work; high rates are switch-allocation-bound, low rates traffic/link/delivery-bound"
    ),
    "sweep_fbfly_sepif": (
        "Same layer used differently: radix-10 fbfly, UGAL, separable allocators, "
        "where the compiled kernel's margin is thinnest; a mesh/wavefront-only tuning shows here"
    ),
    "dispatch_smallpoints": (
        "Many ~80 ms points swept inline, through the hardened pool and via --connect: "
        "bypasses the kernel, so per-point eval/serve/process costs dominate"
    ),
    "offline_figs": (
        "quality + cost + lint --netlists + verify --points: core, hw, analysis and verify "
        "do all the work and netsim none; no CLI cache, so warm equals cold"
    ),
}

# (name, unit, better, bound).  failed_fraction is not listed: it must be
# 0 and a bound is a share of the parent's median, so failures are
# reported through the result's ``failed``/``attempted`` counts instead.
# The issue asked for 10 % on every timing.  On the shared 2-core box the
# same run drifts by 5-15 % with the hour (IQR/median of ten runs: wall_s
# 4-11 %, warm_wall_s 3-16 %, setup_s up to 25 %), and a bound below the
# spread rejects unchanged code, so the timings take the contract's
# maximum; bench/README.md has the measurements.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("wall_s", "s", "lower", 0.25),
    ("warm_wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

P4 = ("mesh_wf_r015", "mesh_wf_r045", "fbfly_sepif_r015", "fbfly_sepif_r045")
PHASES = (
    "setup", "delivery", "event_calendar", "traffic", "routing",
    "vc_alloc", "sw_alloc", "link_traversal", "stats",
)
ARCHS = ("sep_if", "sep_of", "wf")


def _per_layer() -> List[Tuple[str, str, str]]:
    lo, hi = "lower", "higher"
    m: List[Tuple[str, str, str]] = [
        ("cli.import_s", "s", lo),
        ("cli.figures_s", "s", lo),
    ]
    # netsim
    m += [(f"netsim.build_s.{p}", "s", lo) for p in ("mesh_wf", "fbfly_sepif")]
    m += [(f"netsim.cycles_per_s.default.{p}", "cycles/s", hi) for p in P4]
    m += [
        (f"netsim.cycles_per_s.{k}.{p}", "cycles/s", hi)
        for k in ("reference", "fast", "compiled")
        for p in ("mesh_wf_r015", "fbfly_sepif_r015")
    ]
    m += [(f"netsim.cycles_per_s.{k}.mesh_wf_r045", "cycles/s", hi)
          for k in ("fast", "compiled")]
    m += [(f"netsim.compiled_over_fast.{p}", "ratio", hi)
          for p in ("mesh_wf_r015", "mesh_wf_r045", "fbfly_sepif_r015")]
    m += [("netsim.fast_over_reference.mesh_wf_r015", "ratio", hi),
          ("netsim.codegen_first_use_s", "s", lo)]
    m += [(f"netsim.phase_s.{ph}.{p}", "s", lo)
          for ph in PHASES for p in ("mesh_wf_r015", "mesh_wf_r045")]
    m += [(f"netsim.phase_coverage.{p}", "ratio", hi)
          for p in ("mesh_wf_r015", "mesh_wf_r045")]
    m += [(f"netsim.host_us_per_packet.{p}", "us", lo)
          for p in ("mesh_wf_r015", "mesh_wf_r045", "fbfly_sepif_r015")]
    m += [(f"netsim.sim.avg_latency_cycles.{p}", "cycles", lo) for p in P4]
    m += [(f"netsim.sim.accepted_flit_rate.{p}", "flits/cyc/term", hi) for p in P4]
    m += [("netsim.sim.misspeculations.mesh_wf_r045", "count", lo),
          ("netsim.sim.speculative_wins.mesh_wf_r045", "count", hi),
          ("netsim.sim.measured_packets.mesh_wf_r045", "count", hi)]
    # core
    m += [(f"core.sw_alloc_us.{a}", "us", lo) for a in ARCHS]
    m += [(f"core.vc_alloc_us.{a}", "us", lo) for a in ARCHS]
    m += [(f"core.sw_match_quality.{a}", "ratio", hi) for a in ARCHS]
    # hw
    m += [("hw.build_s.vc_mesh_v8_sepif_rr", "s", lo),
          ("hw.build_s.sw_fbfly_v4_wf", "s", lo),
          ("hw.timing_s", "s", lo),
          ("hw.sizing_s", "s", lo),
          ("hw.power_s", "s", lo),
          ("hw.verilog_emit_s", "s", lo),
          ("hw.cells.vc_mesh_v8_sepif_rr", "count", lo),
          ("hw.synth_total_s.vc_mesh_v8", "s", lo)]
    # analysis
    m += [("analysis.drc_s", "s", lo),
          ("analysis.drc_netlists", "count", hi),
          ("analysis.drc_findings", "count", lo),
          ("analysis.drc_ms_per_netlist_p50", "ms", lo),
          ("analysis.srclint_s", "s", lo)]
    # verify
    m += [("verify.points_s", "s", lo),
          ("verify.netlists_proved", "count", hi),
          ("verify.ms_per_netlist_p50", "ms", lo),
          ("verify.ms_per_netlist_max", "ms", lo),
          ("verify.e2e_s", "s", lo),
          ("verify.findings", "count", lo)]
    # eval
    m += [("eval.inline_overhead_us_per_point", "us", lo),
          ("eval.pool_overhead_ms_per_point", "ms", lo),
          ("eval.pool_jobs2_speedup", "ratio", hi),
          ("eval.cache_put_flush_us_per_entry", "us", lo),
          ("eval.cache_load_ms_1k", "ms", lo),
          ("eval.cache_hit_us", "us", lo),
          ("eval.cache_hit_ratio_warm", "ratio", hi),
          ("eval.checkpoint_record_us", "us", lo),
          ("eval.checkpoint_replay_ms_1k", "ms", lo),
          ("eval.cost_cache_hit_us", "us", lo),
          ("eval.quality_s.sw_mesh_v8", "s", lo),
          ("eval.quality_s.vc_mesh_v8", "s", lo)]
    # serve
    m += [("serve.server_ready_s", "s", lo),
          ("serve.worker_ready_s", "s", lo),
          ("serve.roundtrip_ms_per_point", "ms", lo),
          ("serve.cached_ms_per_point", "ms", lo),
          ("serve.frames_per_point", "count", lo),
          ("serve.shard_flush_ms", "ms", lo),
          ("serve.connect_overhead_ms_per_point", "ms", lo),
          ("serve.requeues", "count", lo),
          ("serve.point_failures", "count", lo)]
    # obs, faults, bench
    m += [("obs.observer_overhead_ratio", "ratio", lo),
          ("obs.tracer_overhead_ratio", "ratio", lo),
          ("obs.profiler_overhead_ratio", "ratio", lo),
          ("obs.metrics_rows", "count", hi),
          ("faults.materialize_ms", "ms", lo),
          ("faults.faulted_over_clean_ratio", "ratio", lo),
          ("bench.trace_overhead_ratio", "ratio", lo),
          ("bench.spans", "count", hi),
          ("bench.generator_cpu_s", "s", lo)]
    return m


PER_LAYER: List[Tuple[str, str, str]] = _per_layer()


def benchmark_manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
