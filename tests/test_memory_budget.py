"""Memory budget: a process holds one point's network at a time.

``run_simulation`` closes the network it built, so a sweep's peak RSS is
the start-up floor plus its heaviest single point, however many points
it runs, and a long-lived ``repro work`` process stops growing after
its first point (docs/PERFORMANCE.md, "Memory").  Before that, every
finished network waited for a generation-2 collection under the next
point: 8 rates peaked ~8 MiB above 1 rate, and 12 points in one process
ended ~7 MiB above the second.

Peak RSS is ``ru_maxrss`` from ``os.wait4``.  A child's ``ru_maxrss`` is
never below its parent's RSS at fork time, and pytest is larger than
anything measured here, so each command runs under a launcher that
imports nothing.

A built network holds only its state (list input buffers, slotted
arbiters), and compiling a kernel leaves no freed C heap behind: both
are measured in a fresh child too, so no earlier test has warmed a
cache or dirtied the heap.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

_LAUNCHER = """\
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

_REUSE = """\
import resource
from repro.netsim.simulator import SimulationConfig, run_simulation_worker
cfg = SimulationConfig(injection_rate=0.3, warmup_cycles=20,
                       measure_cycles=60, drain_cycles=60).to_dict()
for call in range(12):
    run_simulation_worker(dict(cfg, seed=call))
    if call == 1:
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

_NETWORK_SIZE = """\
import sys, tracemalloc
from repro.netsim.simulator import SimulationConfig, build_network, prewarm_kernels
cfg = SimulationConfig(topology=sys.argv[1], vcs_per_class=4,
                       sw_alloc_arch=sys.argv[2], vc_alloc_arch=sys.argv[2])
prewarm_kernels([cfg])
tracemalloc.start()
net = build_network(cfg)
print(tracemalloc.get_traced_memory()[0])
tracemalloc.stop()
net.close()
"""

# The heap is trimmed first, so the figure does not depend on whether
# the imports above were compiled from source in this process.
_KERNEL_COMPILE_RSS = """\
import ctypes, os
from repro.netsim.codegen import kernel_factory
from repro.netsim.config import SimulationConfig, kernel_spec
spec = kernel_spec(SimulationConfig(topology="fbfly", vcs_per_class=4))
def rss():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
ctypes.CDLL(None).malloc_trim(0)
before = rss()
kernel_factory(spec)
print(rss() - before)
"""

BUDGET_MIB = 3.0


def _run(*argv):
    """Run ``python *argv`` under the launcher; return (its stdout lines
    before the launcher's, peak RSS in MiB)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, *argv],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    *lines, last = done.stdout.splitlines()
    status, maxrss_kb = last.split()
    assert status == "0", done.stderr
    return lines, int(maxrss_kb) / 1024


def _sweep_peak(rates):
    _, peak = _run("-m", "repro", "sweep", "--cycles", "60", "--no-cache",
                   "--rates", ",".join(f"{r:g}" for r in rates))
    return peak


def test_eight_points_peak_where_one_does():
    one = _sweep_peak([0.05])
    eight = _sweep_peak([0.05 * k for k in range(1, 9)])
    assert eight - one < BUDGET_MIB, (one, eight)


def test_a_reused_worker_process_stops_growing():
    (after_second,), at_exit = _run("-c", _REUSE)
    assert at_exit - int(after_second) / 1024 < BUDGET_MIB, (after_second, at_exit)


@pytest.mark.parametrize("topology,arch,budget_mb", [
    ("mesh", "wf", 2.0),  # V=8; 3.5 MB with a deque per input VC
    ("fbfly", "sep_if", 3.8),  # V=16; 6.2 MB with deques and dict arbiters
])
def test_a_built_network_holds_only_its_state(topology, arch, budget_mb):
    (traced,), _ = _run("-c", _NETWORK_SIZE, topology, arch)
    assert int(traced) / 1e6 <= budget_mb, (topology, int(traced))


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or sys.version_info[:2] != (3, 11),
    reason="sized on glibc with CPython 3.11's compiler",
)
def test_compiling_a_kernel_gives_its_heap_back():
    (grown,), _ = _run("-c", _KERNEL_COMPILE_RSS)
    assert int(grown) / 2**20 <= 1.75, int(grown)
