"""The default kernel: one constant, consumed everywhere, paid for once.

* every un-flagged entry point (``Router``, ``build_network``,
  ``run_simulation``, ``profile_point``) defaults to
  :data:`repro.netsim.kernels.DEFAULT_KERNEL`, and a ``repro sweep``
  table and cache do not depend on which kernel produced them;
* the compiled-kernel design point derives from the config alone
  (``kernel_spec``), which is what lets the hardened pool compile each
  one in the parent so forked point processes inherit the factories;
* the pool also *imports* in the parent: a forked point process finds
  every module it needs already loaded.
"""

import functools
import inspect
import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.eval.runner import run_sweep
from repro.netsim import codegen, simulator
from repro.netsim.kernels import DEFAULT_KERNEL, KERNELS
from repro.netsim.router import Router
from repro.netsim.simulator import (
    SimulationConfig,
    build_network,
    kernel_spec,
    prewarm_kernels,
    run_simulation,
)
from repro.obs import profile_point

from ..eval.test_runner_hardening import mixed_worker

WINDOWS = dict(warmup_cycles=40, measure_cycles=120, drain_cycles=120)


class TestOneDefault:
    @pytest.mark.parametrize(
        "fn", [Router.__init__, build_network, run_simulation, profile_point]
    )
    def test_every_entry_point_defaults_to_it(self, fn):
        default = inspect.signature(fn).parameters["kernel"].default
        # A plain registry string: the benchmark's netsim probe reads it.
        assert type(default) is str
        assert default == DEFAULT_KERNEL
        assert default in KERNELS

    def test_the_registry_is_shared_with_codegen(self):
        assert codegen.DEFAULT_KERNEL is DEFAULT_KERNEL
        assert codegen.KERNELS is KERNELS

    def test_unflagged_network_runs_the_generated_step(self):
        net = build_network(SimulationConfig(**WINDOWS))
        assert {r.kernel for r in net.routers} == {DEFAULT_KERNEL}
        step = net.routers[0]._alloc_step
        assert step.__code__.co_filename.startswith("<compiled-kernel:")


_SWEEPS = {
    "mesh-wf": ["--topology", "mesh", "--vcs-per-class", "2",
                "--sw-alloc", "wf", "--vc-alloc", "wf"],
    "fbfly-sep_if": ["--topology", "fbfly", "--vcs-per-class", "2",
                     "--sw-alloc", "sep_if", "--vc-alloc", "sep_if"],
}


@pytest.mark.parametrize("sweep", sorted(_SWEEPS))
def test_sweep_table_and_cache_do_not_depend_on_the_kernel(
    sweep, tmp_path, capsys, monkeypatch
):
    argv = ["sweep", *_SWEEPS[sweep], "--rates", "0.1,0.3", "--cycles", "150"]

    def table(cache_name):
        assert main(argv + ["--cache-path", str(tmp_path / cache_name)]) == 0
        body, _, cache_line = capsys.readouterr().out.rpartition("cache:")
        return body, cache_line

    default_table, line = table("default.json")
    assert "0 hit(s), 2 miss(es)" in line
    with monkeypatch.context() as m:
        m.setattr(simulator, "run_simulation",
                  functools.partial(run_simulation, kernel="reference"))
        reference_table, line = table("reference.json")
        assert "0 hit(s), 2 miss(es)" in line
    assert default_table == reference_table

    # Either cache serves the other kernel without simulating anything.
    def no_simulation(cfg, **kwargs):
        raise AssertionError("cache miss: the point was re-simulated")

    monkeypatch.setattr(simulator, "run_simulation", no_simulation)
    for cache_name in ("default.json", "reference.json"):
        served, line = table(cache_name)
        assert "2 hit(s), 0 miss(es)" in line
        assert served == default_table


@pytest.mark.parametrize(
    "topology,routing",
    [("mesh", "default"), ("mesh", "ft_dor"), ("fbfly", "default"),
     ("fbfly", "ft_ugal"), ("torus", "default")],
)
def test_kernel_spec_from_config_matches_the_built_routers(topology, routing):
    cfg = SimulationConfig(
        topology=topology, routing=routing, vcs_per_class=2,
        vc_alloc_arch="wf", sw_alloc_arch="sep_of", sw_alloc_arbiter="m",
        speculation="conventional", lookahead=False, **WINDOWS,
    )
    net = build_network(cfg)
    assert {codegen.spec_for_router(r) for r in net.routers} == {kernel_spec(cfg)}


def test_kernel_spec_rejects_an_unknown_shape():
    with pytest.raises(ValueError, match="'ft_ugal' is not supported on the mesh"):
        kernel_spec(SimulationConfig(topology="mesh", routing="ft_ugal"))
    prewarm_kernels([SimulationConfig(topology="hypercube")])  # skipped, not raised


class TestPoolPrewarm:
    """``ProcessPoolScheduler`` compiles in the parent, before forking."""

    @pytest.fixture
    def compile_log(self, tmp_path, monkeypatch):
        """Cold factory cache + a log of which process ran each
        ``compile()`` of :func:`codegen.kernel_factory` (forked children
        inherit the patched module)."""
        log = tmp_path / "compiles.log"
        log.touch()

        def logging_compile(*args, **kwargs):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return compile(*args, **kwargs)

        monkeypatch.setattr(codegen, "compile", logging_compile, raising=False)
        monkeypatch.setattr(codegen, "_FACTORIES", {})
        return lambda: [int(pid) for pid in log.read_text().split()]

    def test_forked_point_processes_compile_nothing(self, compile_log):
        if mp.get_start_method() != "fork":
            pytest.skip("spawned children import afresh and compile for themselves")
        configs = [
            SimulationConfig(topology=topo, injection_rate=rate, **WINDOWS)
            for topo in ("mesh", "fbfly")
            for rate in (0.05, 0.2)
        ]
        pooled = run_sweep(configs, timeout=120)
        # One compile per distinct design point, every one in this process.
        assert compile_log() == [os.getpid()] * 2
        inline = run_sweep(configs)
        assert [r.to_payload() for r in pooled] == [r.to_payload() for r in inline]

    def test_custom_worker_triggers_no_prewarm(self, compile_log):
        configs = [SimulationConfig(injection_rate=r) for r in (0.1, 0.2)]
        results = run_sweep(configs, timeout=60, worker_fn=mixed_worker)
        assert [r.injected_flit_rate for r in results] == [0.1, 0.2]
        assert compile_log() == []
        assert codegen._FACTORIES == {}


# Run in a fresh interpreter (this one has long since imported
# everything): log every import that reaches the finders -- i.e. every
# module not yet in sys.modules -- with the pid that asked for it, then
# sweep three points through the pool.  Forked children inherit the
# finder, so an import paid after the fork is logged under their pid.
# argv: log file, "default"/"custom" worker, "fixed"/"random" faults.
_LOGGED_SWEEP = """\
import os, sys

class LogImports:
    @staticmethod
    def find_spec(name, path=None, target=None):
        with open(sys.argv[1], "a") as fh:
            fh.write(f"{os.getpid()} {name}\\n")

sys.meta_path.insert(0, LogImports)

from repro.eval.runner import run_sweep
from repro.faults.plan import FaultPlan, StuckVC
from repro.netsim.config import SimulationConfig
from repro.serve.testing import analytic_worker

windows = dict(warmup_cycles=40, measure_cycles=120, drain_cycles=120)
faults = (FaultPlan(stuck_vc_rate=0.05, seed=3) if sys.argv[3] == "random"
          else FaultPlan(stuck_vcs=(StuckVC(0, 1, 0, 50),)))
configs = [
    SimulationConfig(injection_rate=0.05, **windows),
    SimulationConfig(topology="fbfly", traffic_pattern="transpose", **windows),
    SimulationConfig(faults=faults, **windows),
]
worker_fn = analytic_worker if sys.argv[2] == "custom" else None
results = run_sweep(configs, timeout=60, worker_fn=worker_fn)
assert all(r is not None for r in results)
print(os.getpid(), "numpy" in sys.modules, "repro.netsim.simulator" in sys.modules)
"""


def _logged_sweep(tmp_path, worker, faults="fixed"):
    log = tmp_path / "imports.log"
    log.touch()
    src = Path(__file__).resolve().parents[2] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _LOGGED_SWEEP, str(log), worker, faults],
        env=dict(os.environ, PYTHONPATH=str(src)), cwd=tmp_path,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    parent, numpy_loaded, simulator_loaded = done.stdout.split()
    imports = [line.split() for line in log.read_text().splitlines()]
    late = sorted({name for pid, name in imports if pid != parent})
    return late, numpy_loaded == "True", simulator_loaded == "True"


def test_forked_point_processes_import_nothing(tmp_path):
    if mp.get_start_method() != "fork":
        pytest.skip("spawned children import afresh")
    late, numpy_loaded, simulator_loaded = _logged_sweep(tmp_path, "default")
    # By the parent, before forking: the simulator, and no numpy -- no
    # point of this sweep draws from it (fixed fault events only).
    assert simulator_loaded and not numpy_loaded
    assert late == []


def test_forked_points_whose_faults_draw_import_nothing(tmp_path):
    # A fault plan with a rate > 0 draws from numpy's generator; the
    # parent imports it once instead of every point process.
    if mp.get_start_method() != "fork":
        pytest.skip("spawned children import afresh")
    late, numpy_loaded, simulator_loaded = _logged_sweep(
        tmp_path, "default", "random"
    )
    assert simulator_loaded and numpy_loaded
    assert late == []


def test_custom_worker_triggers_no_preload(tmp_path):
    _, numpy_loaded, simulator_loaded = _logged_sweep(tmp_path, "custom")
    assert not numpy_loaded and not simulator_loaded
