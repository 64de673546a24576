"""Per-layer probes of the traced run.

Each probe times one package's public functions in-process, inside spans
recorded by the benchmark, and returns ``{metric name: value}``.  A probe
whose import or call fails (a later refactor moved the API it times)
reports its metrics as ``None`` with a ``probe_error`` and the run goes
on: probes degrade, the end-to-end passes do not depend on them.

Timings are host time.  ``sim.`` values and counts are statistics of the
modelled hardware; the simulator is deterministic, so they repeat
exactly for a seed.
"""

from __future__ import annotations

import inspect
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from . import SRC
from .catalog import ARCHS, P4, PER_LAYER, PHASES
from .procs import Children, ServerHandle, child_env, repro_argv
from .spans import Recorder

__all__ = ["ProbeContext", "PROBE_SIZES", "SMOKE_PROBE_SIZES", "run_probes"]

PROBE_SIZES = {
    "windows": (50, 160, 160),
    "identity_windows": (20, 60, 60),
    "alloc_samples": 300,
    "quality_samples": 200,
    "max_cells": 3000,
    "quick": False,
    "inline_points": 200,
    "pool_points": 16,
    "jobs2_points": 4,
    "cache_entries": 1000,
    "checkpoint_records": 100,
    "serve_points": 30,
    "repeats": 3,
}

SMOKE_PROBE_SIZES = {
    "windows": (10, 30, 30),
    "identity_windows": (10, 30, 30),
    "alloc_samples": 20,
    "quality_samples": 10,
    "max_cells": 3000,
    "quick": True,
    "inline_points": 10,
    "pool_points": 2,
    "jobs2_points": 2,
    "cache_entries": 50,
    "checkpoint_records": 5,
    "serve_points": 3,
    "repeats": 1,
}


@dataclass
class ProbeContext:
    seed: int
    tmp: Path
    children: Children
    rec: Recorder
    sizes: dict
    failures: List[str] = field(default_factory=list)

    @property
    def env(self) -> Dict[str, str]:
        return child_env(self.tmp)


def _timed(fn: Callable, *args, **kwargs) -> Tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _median_time(fn: Callable, repeats: int) -> float:
    return statistics.median(_timed(fn)[0] for _ in range(max(repeats, 1)))


def _probe_configs(seed: int, windows: Tuple[int, int, int]) -> dict:
    from repro.netsim.simulator import SimulationConfig

    warm, meas, drain = windows

    def cfg(topo: str, arch: str, rate: float):
        return SimulationConfig(
            topology=topo, vcs_per_class=4, injection_rate=rate,
            vc_alloc_arch=arch, sw_alloc_arch=arch, seed=seed,
            warmup_cycles=warm, measure_cycles=meas, drain_cycles=drain,
        )

    return {
        "mesh_wf_r015": cfg("mesh", "wf", 0.15),
        "mesh_wf_r045": cfg("mesh", "wf", 0.45),
        "fbfly_sepif_r015": cfg("fbfly", "sep_if", 0.15),
        "fbfly_sepif_r045": cfg("fbfly", "sep_if", 0.45),
    }


def _payload_text(result) -> str:
    # As text, so that a NaN field compares equal to itself.
    return json.dumps(result.to_payload(), sort_keys=True)


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------
def probe_cli(ctx: ProbeContext) -> dict:
    def wall(label: str, argv: List[str]) -> float:
        with ctx.rec.span(label, "cli"):
            result = ctx.children.run(label, argv, ctx.env, ctx.tmp)
        if not result.ok:
            raise RuntimeError(f"{label}: exit {result.returncode}: {result.stderr[-200:]}")
        return result.wall_s

    n = ctx.sizes["repeats"]
    return {
        "cli.import_s": statistics.median(
            wall("cli.import", [sys.executable, "-c", "import repro.cli"]) for _ in range(n)),
        "cli.figures_s": statistics.median(
            wall("cli.figures", repro_argv("figures")) for _ in range(n)),
    }


# ----------------------------------------------------------------------
# netsim
# ----------------------------------------------------------------------
_CODEGEN_SCRIPT = """
import json, time
from repro.netsim.simulator import SimulationConfig, run_simulation
cfg = SimulationConfig(topology="mesh", vcs_per_class=4, vc_alloc_arch="wf",
                       sw_alloc_arch="wf", injection_rate=0.15, seed=1,
                       warmup_cycles=0, measure_cycles=20, drain_cycles=0)
times = []
for _ in range(2):
    t0 = time.perf_counter(); run_simulation(cfg, kernel="compiled")
    times.append(time.perf_counter() - t0)
print(json.dumps(times))
"""


def probe_netsim(ctx: ProbeContext) -> dict:
    from repro.netsim.simulator import build_network, run_simulation
    from repro.obs import profile_point

    out: dict = {}
    cfgs = _probe_configs(ctx.seed, ctx.sizes["windows"])
    cycles = sum(ctx.sizes["windows"])
    rec = ctx.rec

    # First use of the compiled kernel in a fresh process, as each point
    # process of a hardened-pool sweep would pay it.
    with rec.span("codegen_first_use", "netsim"):
        res = ctx.children.run(
            "codegen", [sys.executable, "-c", _CODEGEN_SCRIPT], ctx.env, ctx.tmp)
    if res.ok:
        first, second = json.loads(res.stdout.strip().splitlines()[-1])
        out["netsim.codegen_first_use_s"] = max(first - second, 0.0)
    else:
        raise RuntimeError(f"codegen probe: {res.stderr[-300:]}")

    for label, name in (("mesh_wf", "mesh_wf_r015"), ("fbfly_sepif", "fbfly_sepif_r015")):
        with rec.span(f"build_network.{label}", "netsim"):
            out[f"netsim.build_s.{label}"] = _median_time(
                lambda: build_network(cfgs[name]), 5)

    def run(name: str, kernel: Optional[str]):
        kwargs = {} if kernel is None else {"kernel": kernel}
        with rec.span(f"run_simulation.{kernel or 'default'}.{name}", "netsim"):
            wall, result = _timed(run_simulation, cfgs[name], **kwargs)
        out[f"netsim.cycles_per_s.{kernel or 'default'}.{name}"] = cycles / wall
        return wall, result

    # The default kernel is timed through the default call; the same
    # timing is also that kernel's own number, not a second measurement.
    default_kernel = inspect.signature(run_simulation).parameters["kernel"].default
    walls: Dict[Tuple[str, str], float] = {}
    for name in P4:
        wall, result = run(name, None)
        walls[default_kernel, name] = wall
        out[f"netsim.cycles_per_s.{default_kernel}.{name}"] = cycles / wall
        out[f"netsim.sim.avg_latency_cycles.{name}"] = result.avg_latency
        out[f"netsim.sim.accepted_flit_rate.{name}"] = result.accepted_flit_rate
        if name != "fbfly_sepif_r045":
            out[f"netsim.host_us_per_packet.{name}"] = (
                1e6 * wall / max(result.measured_packets, 1))
        if name == "mesh_wf_r045":
            out["netsim.sim.misspeculations.mesh_wf_r045"] = result.misspeculations
            out["netsim.sim.speculative_wins.mesh_wf_r045"] = result.speculative_wins
            out["netsim.sim.measured_packets.mesh_wf_r045"] = result.measured_packets
    for kernel in ("fast", "compiled", "reference"):
        names = ["mesh_wf_r015", "fbfly_sepif_r015"]
        if kernel != "reference":
            names.append("mesh_wf_r045")
        for name in names:
            if (kernel, name) not in walls:
                walls[kernel, name] = run(name, kernel)[0]
    for name in ("mesh_wf_r015", "mesh_wf_r045", "fbfly_sepif_r015"):
        out[f"netsim.compiled_over_fast.{name}"] = (
            walls["fast", name] / walls["compiled", name])
    out["netsim.fast_over_reference.mesh_wf_r015"] = (
        walls["reference", "mesh_wf_r015"] / walls["fast", "mesh_wf_r015"])

    for name in ("mesh_wf_r015", "mesh_wf_r045"):
        with rec.span(f"profile_point.{name}", "netsim"):
            report = profile_point(cfgs[name])
        for phase in PHASES:
            out[f"netsim.phase_s.{phase}.{name}"] = report["phases"].get(phase, 0.0)
        out[f"netsim.phase_coverage.{name}"] = report["coverage"]

    # The three kernels must produce the identical payload.
    short = _probe_configs(ctx.seed, ctx.sizes["identity_windows"])["mesh_wf_r015"]
    with rec.span("kernel_identity", "netsim"):
        texts = {k: _payload_text(run_simulation(short, kernel=k))
                 for k in ("reference", "fast", "compiled")}
    if len(set(texts.values())) != 1:
        ctx.failures.append("reference/fast/compiled payloads differ on mesh_wf_r015")
    return out


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------
def probe_core(ctx: ProbeContext) -> dict:
    import numpy as np

    from repro.core import SwitchAllocator, VCAllocator, VCRequest
    from repro.eval import DesignPoint, switch_matching_quality

    point = DesignPoint("mesh", 5, 4)
    P, V, part = point.num_ports, point.num_vcs, point.partition
    n, rate = ctx.sizes["alloc_samples"], 0.5
    rng = np.random.default_rng(ctx.seed)
    active = rng.random((n, P, V)) < rate
    ports = rng.integers(P, size=(n, P, V))
    picks = rng.random((n, P, V))
    sw_requests = [
        [[int(ports[s, p, v]) if active[s, p, v] else None for v in range(V)]
         for p in range(P)]
        for s in range(n)
    ]
    successors = []
    for v in range(V):
        m_in, r_in, _ = part.vc_fields(v)
        successors.append(
            [tuple(part.class_vcs(m_in, r)) for r in part.successor_classes(r_in)])
    vc_requests = []
    for s in range(n):
        row = []
        for p in range(P):
            for v in range(V):
                if active[s, p, v]:
                    choices = successors[v]
                    cands = choices[int(picks[s, p, v] * len(choices))]
                    row.append(VCRequest(int(ports[s, p, v]), cands))
                else:
                    row.append(None)
        vc_requests.append(row)

    out = {}
    for arch in ARCHS:
        sw = SwitchAllocator(P, V, arch=arch, arbiter="rr")
        with ctx.rec.span(f"SwitchAllocator.allocate.{arch}", "core"):
            wall, _ = _timed(lambda: [sw.allocate(r) for r in sw_requests])
        out[f"core.sw_alloc_us.{arch}"] = 1e6 * wall / n
        vc = VCAllocator(P, part, arch=arch, arbiter="rr", sparse=True)
        with ctx.rec.span(f"VCAllocator.allocate.{arch}", "core"):
            wall, _ = _timed(lambda: [vc.allocate(r) for r in vc_requests])
        out[f"core.vc_alloc_us.{arch}"] = 1e6 * wall / n
        with ctx.rec.span(f"switch_matching_quality.{arch}", "core"):
            curves = switch_matching_quality(
                point, archs=(arch,), rates=(rate,),
                num_samples=ctx.sizes["quality_samples"], seed=ctx.seed)
        out[f"core.sw_match_quality.{arch}"] = curves[arch].quality[0]
    return out


# ----------------------------------------------------------------------
# hw
# ----------------------------------------------------------------------
def probe_hw(ctx: ProbeContext) -> dict:
    from repro.eval import DesignPoint
    from repro.hw import (
        analyze_power, analyze_timing, recover_timing, synthesize_vc_allocator, to_verilog,
    )
    from repro.hw.sw_alloc_gates import build_switch_allocator_netlist
    from repro.hw.vc_alloc_gates import build_vc_allocator_netlist

    mesh8, fbfly4 = DesignPoint("mesh", 5, 4), DesignPoint("fbfly", 10, 1)
    reps = max(ctx.sizes["repeats"], 1)

    def build_vc():
        return build_vc_allocator_netlist(5, mesh8.partition, "sep_if", "rr", True)

    def build_sw():
        return build_switch_allocator_netlist(10, fbfly4.num_vcs, "wf", "rr", "pessimistic")

    out = {}
    with ctx.rec.span("build_vc_allocator_netlist", "hw"):
        out["hw.build_s.vc_mesh_v8_sepif_rr"] = _median_time(build_vc, reps)
    with ctx.rec.span("build_switch_allocator_netlist", "hw"):
        out["hw.build_s.sw_fbfly_v4_wf"] = _median_time(build_sw, reps)
    nl = build_vc()
    out["hw.cells.vc_mesh_v8_sepif_rr"] = nl.num_gates
    with ctx.rec.span("analyze_timing", "hw"):
        out["hw.timing_s"] = _median_time(lambda: analyze_timing(nl), reps)
    with ctx.rec.span("analyze_power", "hw"):
        out["hw.power_s"] = _median_time(lambda: analyze_power(nl), reps)
    with ctx.rec.span("to_verilog", "hw"):
        out["hw.verilog_emit_s"] = _median_time(lambda: to_verilog(nl), reps)
    with ctx.rec.span("recover_timing", "hw"):
        # Sizing mutates the netlist, so each repeat sizes a fresh one.
        out["hw.sizing_s"] = statistics.median(
            _timed(recover_timing, build_vc(), max_iterations=8)[0] for _ in range(reps))
    with ctx.rec.span("synthesize_vc_allocator", "hw"):
        out["hw.synth_total_s.vc_mesh_v8"] = _median_time(
            lambda: synthesize_vc_allocator(5, mesh8.partition, "sep_if", "rr", True), reps)
    return out


# ----------------------------------------------------------------------
# analysis / verify
# ----------------------------------------------------------------------
def probe_analysis(ctx: ProbeContext) -> dict:
    from repro.analysis import NetlistDRC, iter_paper_netlists, lint_source_tree

    drc = NetlistDRC()
    times, findings = [], 0
    with ctx.rec.span("drc_matrix", "analysis"):
        for job in iter_paper_netlists(
                max_cells=ctx.sizes["max_cells"], quick=ctx.sizes["quick"]):
            if job.builder is None:
                continue
            with ctx.rec.span("build", "hw"):
                nl = job.builder()
            with ctx.rec.span("NetlistDRC.check", "analysis"):
                wall, found = _timed(drc.check, nl)
            times.append(wall)
            findings += len(found)
    with ctx.rec.span("lint_source_tree", "analysis"):
        srclint_s, _ = _timed(lint_source_tree, SRC / "repro")
    return {
        "analysis.drc_s": sum(times),
        "analysis.drc_netlists": len(times),
        "analysis.drc_findings": findings,
        "analysis.drc_ms_per_netlist_p50": 1e3 * statistics.median(times),
        "analysis.srclint_s": srclint_s,
    }


def probe_verify(ctx: ProbeContext) -> dict:
    from repro.verify import e2e_check_matrix, verify_paper_netlists

    marks: List[float] = []

    def progress(message: str) -> None:
        if message.startswith("prove "):
            marks.append(time.perf_counter())

    with ctx.rec.span("verify_paper_netlists", "verify"):
        t0 = time.perf_counter()
        found, _, proved = verify_paper_netlists(
            max_cells=ctx.sizes["max_cells"], quick=ctx.sizes["quick"],
            include_e2e=False, include_models=False, progress=progress)
        points_s = time.perf_counter() - t0
    per_netlist = [b - a for a, b in zip([t0] + marks[:-1], marks)]
    with ctx.rec.span("e2e_check_matrix", "verify"):
        e2e_s, e2e_found = _timed(e2e_check_matrix, quick=ctx.sizes["quick"])
    return {
        "verify.points_s": points_s,
        "verify.netlists_proved": proved,
        "verify.ms_per_netlist_p50": 1e3 * statistics.median(per_netlist),
        "verify.ms_per_netlist_max": 1e3 * max(per_netlist),
        "verify.e2e_s": e2e_s,
        "verify.findings": len(found) + len(e2e_found),
    }


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------
def _analytic_configs(n: int, seed: int) -> list:
    from repro.netsim.simulator import SimulationConfig

    return [SimulationConfig(injection_rate=0.01 + 0.5 * i / n, seed=seed) for i in range(n)]


def probe_eval(ctx: ProbeContext) -> dict:
    from repro.eval import (
        CostCache, CostResult, DesignPoint, ResultCache, SweepReporter, run_sweep,
        switch_matching_quality, vc_matching_quality,
    )
    from repro.eval.checkpoint import SweepCheckpoint, sweep_signature
    from repro.netsim.simulator import SimulationConfig
    from repro.serve.testing import analytic_result, analytic_sim, analytic_worker

    s, rec, out = ctx.sizes, ctx.rec, {}

    configs = _analytic_configs(s["inline_points"], ctx.seed)
    with rec.span("run_sweep.inline", "eval"):
        wall, _ = _timed(run_sweep, configs, sim_fn=analytic_sim)
    out["eval.inline_overhead_us_per_point"] = 1e6 * wall / len(configs)

    pool_configs = _analytic_configs(s["pool_points"], ctx.seed)
    with rec.span("run_sweep.pool", "eval"):
        wall, _ = _timed(run_sweep, pool_configs, timeout=60.0, worker_fn=analytic_worker)
    out["eval.pool_overhead_ms_per_point"] = 1e3 * wall / len(pool_configs)

    warm, meas, drain = s["windows"]
    busy = [
        SimulationConfig(injection_rate=0.10 + 0.01 * i, seed=ctx.seed,
                         warmup_cycles=warm, measure_cycles=meas, drain_cycles=drain)
        for i in range(s["jobs2_points"])
    ]
    with rec.span("run_sweep.jobs1", "eval"):
        wall1, _ = _timed(run_sweep, busy, jobs=1, timeout=120.0)
    with rec.span("run_sweep.jobs2", "eval"):
        wall2, _ = _timed(run_sweep, busy, jobs=2, timeout=120.0)
    out["eval.pool_jobs2_speedup"] = wall1 / wall2

    # Result cache: insert + one flush, load, hit, warm sweep.
    entries = _analytic_configs(s["cache_entries"], ctx.seed + 1)
    results = [analytic_result(c) for c in entries]
    cache_path = ctx.tmp / "probe-cache.json"
    cache = ResultCache(cache_path, flush_every=10 ** 9, flush_interval=1e9)
    with rec.span("ResultCache.put+flush", "eval"):
        t0 = time.perf_counter()
        for cfg, result in zip(entries, results):
            cache.put(cfg, result)
        cache.flush()
        out["eval.cache_put_flush_us_per_entry"] = (
            1e6 * (time.perf_counter() - t0) / len(entries))
    with rec.span("ResultCache.load", "eval"):
        wall, loaded = _timed(ResultCache, cache_path)
    out["eval.cache_load_ms_1k"] = 1e3 * wall * 1000 / len(entries)
    with rec.span("ResultCache.get", "eval"):
        wall, _ = _timed(lambda: [loaded.get(c) for c in entries])
    out["eval.cache_hit_us"] = 1e6 * wall / len(entries)

    class Capture(SweepReporter):
        stats = None

        def sweep_finished(self, stats) -> None:
            self.stats = stats

    capture = Capture()
    with rec.span("run_sweep.warm", "eval"):
        run_sweep(entries, cache=loaded, reporter=capture, sim_fn=analytic_sim)
    out["eval.cache_hit_ratio_warm"] = capture.stats.cache_hits / capture.stats.total

    # Checkpoint journal: fsynced appends, then replay at open.
    payload = results[0].to_payload()
    ckpt_path = ctx.tmp / "probe.ckpt.jsonl"
    signature = sweep_signature(["probe"])
    ckpt = SweepCheckpoint(ckpt_path, signature)
    with rec.span("SweepCheckpoint.record", "eval"):
        wall, _ = _timed(
            lambda: [ckpt.record(f"k{i}", payload) for i in range(s["checkpoint_records"])])
    ckpt.close()
    out["eval.checkpoint_record_us"] = 1e6 * wall / s["checkpoint_records"]
    header = {"kind": "header", "schema": 1, "signature": signature}
    rows = [header] + [
        {"kind": "point", "key": f"k{i}", "payload": payload}
        for i in range(s["cache_entries"])
    ]
    ckpt_path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with rec.span("SweepCheckpoint.replay", "eval"):
        wall, replayed = _timed(SweepCheckpoint, ckpt_path, signature)
    if len(replayed.recovered) != s["cache_entries"]:
        raise RuntimeError("checkpoint replay lost rows")
    out["eval.checkpoint_replay_ms_1k"] = 1e3 * wall * 1000 / s["cache_entries"]

    costs = CostCache(str(ctx.tmp / "probe-cost.json"))
    costs.put("k", CostResult("l", "sep_if", "rr", "sparse", 1.0, 2.0, 3.0, 4))
    with rec.span("CostCache.get", "eval"):
        wall, _ = _timed(lambda: [costs.get("k") for _ in range(1000)])
    out["eval.cost_cache_hit_us"] = 1e6 * wall / 1000

    mesh8 = DesignPoint("mesh", 5, 4)
    n = s["quality_samples"]
    with rec.span("switch_matching_quality", "eval"):
        out["eval.quality_s.sw_mesh_v8"], _ = _timed(
            switch_matching_quality, mesh8, rates=(0.5,), num_samples=n, seed=ctx.seed)
    with rec.span("vc_matching_quality", "eval"):
        out["eval.quality_s.vc_mesh_v8"], _ = _timed(
            vc_matching_quality, mesh8, rates=(0.5,), num_samples=max(n // 4, 1),
            seed=ctx.seed)
    return out


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def probe_serve(ctx: ProbeContext) -> dict:
    from repro.eval import config_key, run_sweep
    from repro.serve import RemoteScheduler
    from repro.serve.cache import ShardedResultCache
    from repro.serve.testing import analytic_result, analytic_sim

    out, rec = {}, ctx.rec
    configs = _analytic_configs(ctx.sizes["serve_points"], ctx.seed + 2)
    n = len(configs)
    # The analytic worker computes a point in microseconds, so what is
    # left is protocol + lease + cache cost.
    server = ServerHandle(ctx.children, ctx.env, ctx.tmp, ctx.tmp / "probe-st",
                          worker_fn="repro.serve.testing:analytic_worker")
    try:
        with rec.span("serve.bringup", "serve"):
            server.wait_ready()
        out["serve.server_ready_s"] = server.server_ready_s
        out["serve.worker_ready_s"] = server.worker_ready_s
        with rec.span("run_sweep.remote", "serve"):
            remote_s, first = _timed(
                run_sweep, configs, scheduler=RemoteScheduler(server.address))
        with rec.span("run_sweep.remote_cached", "serve"):
            cached_s, second = _timed(
                run_sweep, configs, scheduler=RemoteScheduler(server.address))
        events = server.events()
    finally:
        server.stop()
    with rec.span("run_sweep.inline", "eval"):
        inline_s, inline = _timed(run_sweep, configs, sim_fn=analytic_sim)
    texts = [[_payload_text(r) for r in rs] for rs in (first, second, inline)]
    if not texts[0] == texts[1] == texts[2]:
        ctx.failures.append("remote, remote-cached and inline results differ")
    out["serve.roundtrip_ms_per_point"] = 1e3 * remote_s / n
    out["serve.cached_ms_per_point"] = 1e3 * cached_s / n
    out["serve.connect_overhead_ms_per_point"] = 1e3 * (remote_s - inline_s) / n
    # Wire frames per computed point, from the server's own telemetry:
    # a lease is a request and a reply, a result is one frame, and the
    # client receives one point frame.
    counts: Dict[str, int] = {}
    for row in events:
        counts[row.get("event", "")] = counts.get(row.get("event", ""), 0) + 1
    out["serve.frames_per_point"] = (
        2 * counts.get("lease", 0) + 2 * counts.get("point_done", 0)) / n
    out["serve.requeues"] = counts.get("requeue", 0)
    out["serve.point_failures"] = counts.get("point_failed", 0) + counts.get("retry", 0)

    shards = ShardedResultCache(ctx.tmp / "probe-shards", shards=8,
                                flush_every=10 ** 9, flush_interval=1e9)
    for cfg in configs:
        payload = analytic_result(cfg).to_payload()
        shards.put_payload(config_key(cfg, shards.salt), payload)
    with rec.span("ShardedResultCache.flush", "serve"):
        wall, _ = _timed(shards.flush)
    out["serve.shard_flush_ms"] = 1e3 * wall
    return out


# ----------------------------------------------------------------------
# obs / faults
# ----------------------------------------------------------------------
def probe_obs(ctx: ProbeContext) -> dict:
    from repro.netsim.simulator import run_simulation
    from repro.obs import SimObserver, profile_point

    cfg = _probe_configs(ctx.seed, ctx.sizes["windows"])["mesh_wf_r015"]
    rec = ctx.rec
    with rec.span("run_simulation.plain", "netsim"):
        base, plain = _timed(run_simulation, cfg)
    metrics_path = ctx.tmp / "probe-metrics.jsonl"
    with rec.span("run_simulation.observer", "obs"):
        observer = SimObserver(metrics_path=metrics_path, sample_every=100)
        observed_s, observed = _timed(run_simulation, cfg, observer=observer)
        observer.finalize()
    with rec.span("run_simulation.tracer", "obs"):
        tracer = SimObserver(trace_path=ctx.tmp / "probe-flits.json")
        traced_s, traced = _timed(run_simulation, cfg, observer=tracer)
        tracer.finalize()
    with rec.span("profile_point", "obs"):
        profiled_s, _ = _timed(profile_point, cfg)
    if not _payload_text(plain) == _payload_text(observed) == _payload_text(traced):
        ctx.failures.append("an observed run changed the simulation's payload")
    return {
        "obs.observer_overhead_ratio": observed_s / base,
        "obs.tracer_overhead_ratio": traced_s / base,
        "obs.profiler_overhead_ratio": profiled_s / base,
        "obs.metrics_rows": len(metrics_path.read_text().splitlines()),
    }


def probe_faults(ctx: ProbeContext) -> dict:
    from repro.faults import FaultPlan
    from repro.netsim.simulator import build_network, run_simulation

    cfg = _probe_configs(ctx.seed, ctx.sizes["windows"])["mesh_wf_r015"]
    plan = FaultPlan(seed=ctx.seed, link_rate=0.0005, mean_downtime=10)
    net = build_network(cfg)
    ports = [r.num_ports for r in net.routers]
    horizon = cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles
    with ctx.rec.span("FaultPlan.materialize", "faults"):
        materialize_s = _median_time(
            lambda: plan.materialize(ports, net.routers[0].num_vcs, horizon), 3)
    with ctx.rec.span("run_simulation.clean", "netsim"):
        clean_s, _ = _timed(run_simulation, cfg)
    with ctx.rec.span("run_simulation.faulted", "faults"):
        faulted_s, _ = _timed(
            run_simulation, replace(cfg, faults=plan, watchdog_cycles=2000))
    return {
        "faults.materialize_ms": 1e3 * materialize_s,
        "faults.faulted_over_clean_ratio": faulted_s / clean_s,
    }


PROBES: List[Tuple[str, Callable[[ProbeContext], dict]]] = [
    ("cli", probe_cli),
    ("netsim", probe_netsim),
    ("core", probe_core),
    ("hw", probe_hw),
    ("analysis", probe_analysis),
    ("verify", probe_verify),
    ("eval", probe_eval),
    ("serve", probe_serve),
    ("obs", probe_obs),
    ("faults", probe_faults),
]


def run_probes(ctx: ProbeContext) -> Tuple[Dict[str, Optional[float]], Dict[str, str]]:
    """Run every probe; returns ``(values, probe_errors)``.

    ``values`` has a key for every per-layer metric of the probed layers
    (``bench.`` metrics are filled in by the caller); a failed probe
    leaves its layer's metrics ``None``.
    """
    values: Dict[str, Optional[float]] = {}
    errors: Dict[str, str] = {}
    for layer, probe in PROBES:
        names = [n for n, _, _ in PER_LAYER if n.startswith(layer + ".")]
        with ctx.rec.span(f"probe.{layer}", "bench"):
            try:
                got = probe(ctx)
            except Exception as exc:  # a moved API must not end the run
                got = {}
                errors[layer] = f"{type(exc).__name__}: {exc}"
                traceback.print_exc()
        for name in names:
            values[name] = got.get(name)
        missing = [n for n in names if got.get(n) is None]
        if missing and layer not in errors:
            errors[layer] = f"probe returned no value for {missing}"
    return values, errors


def generator_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime
