"""In-process replay of each workload's operations, inside spans.

The traced run cannot see inside the ``repro`` subprocesses that the
end-to-end passes time, so it replays the same operations -- at a reduced
size -- through public entry points only, with a span around each call
into a layer.  No hook is added inside ``src/``.  The replay returns its
outputs, so that two replays of one seed can be checked for identity.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Dict, List

from .procs import Children, ServerHandle, child_env
from .spans import Recorder
from .workloads import antithetic_rates, sweep_rates

__all__ = ["REPLAY_SIZES", "SMOKE_REPLAY_SIZES", "replay"]

REPLAY_SIZES: Dict[str, dict] = {
    "sweep_mesh_wf": {"cycles": 150, "rates": [0.05, 0.25, 0.45]},
    "sweep_fbfly_sepif": {"cycles": 240, "rates": [0.1, 0.3, 0.6]},
    "dispatch_smallpoints": {"points": 8, "cycles": 60, "rate_lo": 0.02, "rate_hi": 0.22},
    "offline_figs": {
        "quality_rates": 2, "samples_vc": 40, "samples_sw": 80,
        "cost": [["mesh", 1, "vc"], ["fbfly", 1, "switch"]], "max_cells": 1500,
        "quick": False,
    },
}

SMOKE_REPLAY_SIZES: Dict[str, dict] = {
    "sweep_mesh_wf": {"cycles": 30, "rates": [0.05, 0.25]},
    "sweep_fbfly_sepif": {"cycles": 30, "rates": [0.1, 0.4]},
    "dispatch_smallpoints": {"points": 2, "cycles": 30, "rate_lo": 0.02, "rate_hi": 0.22},
    "offline_figs": {
        "quality_rates": 2, "samples_vc": 5, "samples_sw": 5,
        "cost": [["mesh", 1, "vc"]], "max_cells": 1500, "quick": True,
    },
}


def _timing_cache(rec: Recorder, path: Path):
    """A ``ResultCache`` whose public calls are spans of the eval layer."""
    from repro.eval import ResultCache

    class TimingCache(ResultCache):
        def get(self, cfg):
            with rec.span("ResultCache.get", "eval"):
                return super().get(cfg)

        def put(self, cfg, result):
            with rec.span("ResultCache.put", "eval"):
                return super().put(cfg, result)

        def flush(self):
            with rec.span("ResultCache.flush", "eval"):
                return super().flush()

    with rec.span("ResultCache.load", "eval"):
        return TimingCache(path)


def _point_reporter(rec: Recorder, layer: str, name: str):
    """One span per point, rebuilt from the sweep's progress callbacks;
    for schedulers that compute the point in another process."""
    from repro.eval import SweepReporter

    class PointSpans(SweepReporter):
        def sweep_started(self, stats) -> None:
            self.mark = rec.clock()
            self.parent = rec.current

        def point_done(self, cfg, result, cached, stats) -> None:
            now = rec.clock()
            rec.add(name, layer, self.mark, now, self.parent)
            self.mark = now

    return PointSpans()


def _payloads(results) -> List[str]:
    return [json.dumps(r.to_payload(), sort_keys=True) for r in results]


def _sweep_configs(workload: str, sizes: dict, seed: int) -> list:
    from repro.netsim.simulator import SimulationConfig

    cycles = sizes["cycles"]
    windows = dict(warmup_cycles=cycles // 3, measure_cycles=cycles, drain_cycles=cycles)
    if workload == "dispatch_smallpoints":
        base = SimulationConfig(seed=seed, **windows)
    else:
        topo, arch = ("mesh", "wf") if workload == "sweep_mesh_wf" else ("fbfly", "sep_if")
        base = SimulationConfig(topology=topo, vcs_per_class=4, sw_alloc_arch=arch,
                                vc_alloc_arch=arch, seed=seed, **windows)
    return [replace(base, injection_rate=r) for r in sweep_rates(workload, sizes, seed)]


def _inline_pass(rec: Recorder, name: str, configs: list, cache_path: Path) -> List[str]:
    from repro.eval import run_sweep
    from repro.netsim.simulator import run_simulation

    def sim_fn(cfg):
        with rec.span("run_simulation", "netsim"):
            return run_simulation(cfg)

    with rec.span(name, "bench"):
        cache = _timing_cache(rec, cache_path)
        with rec.span("run_sweep", "eval"):
            return _payloads(run_sweep(configs, cache=cache, sim_fn=sim_fn))


def _replay_sweep(rec, workload, sizes, seed, tmp, children) -> dict:
    configs = _sweep_configs(workload, sizes, seed)
    cold = _inline_pass(rec, "pass.cold", configs, tmp / "replay-c.json")
    warm = _inline_pass(rec, "pass.warm", configs, tmp / "replay-c.json")
    return {"cold": cold, "warm": warm}


def _replay_dispatch(rec, workload, sizes, seed, tmp, children) -> dict:
    from repro.eval import config_key, run_sweep
    from repro.eval.checkpoint import SweepCheckpoint, sweep_signature
    from repro.serve import RemoteScheduler

    configs = _sweep_configs(workload, sizes, seed)
    out = {"inline": _inline_pass(rec, "pass.inline", configs, tmp / "replay-a.json")}

    with rec.span("pass.pool", "bench"):
        cache = _timing_cache(rec, tmp / "replay-b.json")
        keys = [config_key(cfg, cache.salt) for cfg in configs]
        with rec.span("SweepCheckpoint.open", "eval"):
            ckpt = SweepCheckpoint(tmp / "replay-b.ckpt.jsonl", sweep_signature(keys))
        with rec.span("run_sweep", "eval"):
            out["pool"] = _payloads(run_sweep(
                configs, cache=cache, timeout=120.0, checkpoint=ckpt,
                reporter=_point_reporter(rec, "eval", "pool.point")))

    with rec.span("pass.connect", "bench"):
        server = ServerHandle(children, child_env(tmp), tmp, tmp / "replay-st")
        try:
            with rec.span("serve.bringup", "serve"):
                server.wait_ready()
            for name in ("connect", "connect_cached"):
                with rec.span("run_sweep", "eval"):
                    out[name] = _payloads(run_sweep(
                        configs, scheduler=RemoteScheduler(server.address),
                        reporter=_point_reporter(rec, "serve", "remote.point")))
        finally:
            with rec.span("serve.teardown", "serve"):
                server.stop()
    return out


def _replay_offline(rec, workload, sizes, seed, tmp, children) -> dict:
    from repro.analysis import NetlistDRC, iter_paper_netlists
    from repro.eval import (
        DesignPoint, switch_allocator_costs, switch_matching_quality,
        vc_allocator_costs, vc_matching_quality,
    )
    from repro.verify import verify_paper_netlists

    out: dict = {}
    rates = antithetic_rates(seed, sizes["quality_rates"], 0.1, 1.0, "quality")
    mesh8 = DesignPoint("mesh", 5, 4)
    # repro.eval.matching drives repro.core.allocate() for nearly all of
    # its time, so the quality spans are booked to core.
    with rec.span("vc_matching_quality", "core"):
        curves = vc_matching_quality(mesh8, rates=rates, num_samples=sizes["samples_vc"])
    out["quality_vc"] = {k: c.quality for k, c in curves.items()}
    with rec.span("switch_matching_quality", "core"):
        curves = switch_matching_quality(mesh8, rates=rates, num_samples=sizes["samples_sw"])
    out["quality_switch"] = {k: c.quality for k, c in curves.items()}

    for topo, vcs, target in sizes["cost"]:
        point = DesignPoint(topo, 5 if topo == "mesh" else 10, vcs)
        fn = vc_allocator_costs if target == "vc" else switch_allocator_costs
        with rec.span(f"{target}_allocator_costs.{topo}", "hw"):
            out[f"cost_{target}_{topo}"] = [asdict(r) for r in fn(point)]

    drc, findings, checked = NetlistDRC(), 0, 0
    with rec.span("lint.netlists", "analysis"):
        for job in iter_paper_netlists(max_cells=sizes["max_cells"], quick=sizes["quick"]):
            if job.builder is None:
                continue
            with rec.span("netlist.build", "hw"):
                nl = job.builder()
            with rec.span("NetlistDRC.check", "analysis"):
                findings += len(drc.check(nl))
            checked += 1
    out["lint"] = {"checked": checked, "findings": findings}

    with rec.span("verify_paper_netlists", "verify") as parent:
        mark = [rec.clock()]

        def progress(message: str) -> None:
            now = rec.clock()
            rec.add(message.split(":")[0][:60], "verify", mark[0], now, parent)
            mark[0] = now

        # The end-to-end matrix is a fixed 2 s that does not shrink with
        # max_cells; the verify probe times it, the replay leaves it out.
        found, _, proved = verify_paper_netlists(
            max_cells=sizes["max_cells"], quick=sizes["quick"], include_models=False,
            include_e2e=False, progress=progress)
    out["verify"] = {"proved": proved, "findings": len(found)}
    return out


_REPLAYS = {
    "sweep_mesh_wf": _replay_sweep,
    "sweep_fbfly_sepif": _replay_sweep,
    "dispatch_smallpoints": _replay_dispatch,
    "offline_figs": _replay_offline,
}


def replay(
    rec: Recorder, workload: str, sizes: dict, seed: int, tmp: Path, children: Children,
) -> dict:
    """Replay ``workload`` under one root span; returns ``{"wall_s", "outputs"}``."""
    tmp.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    with rec.span(f"replay.{workload}", "bench"):
        outputs = _REPLAYS[workload](rec, workload, sizes, seed, tmp, children)
    return {"wall_s": time.perf_counter() - t0, "outputs": outputs}
