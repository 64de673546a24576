"""Shared infrastructure for the figure-regeneration benchmarks.

Each benchmark module regenerates one table/figure from the paper,
asserts its qualitative shape (who wins, by roughly what factor, where
crossovers fall), saves the rendered table under ``benchmarks/results/``
and reports wall time through pytest-benchmark.

Fidelity knobs (environment variables):

* ``REPRO_SAMPLES``  -- request matrices per matching-quality point
  (paper: 10000; default here: 500).
* ``REPRO_SIM_CYCLES`` -- measurement cycles per network-simulation
  point (default 1200; the paper's simulator runs far longer).
* ``REPRO_FULL=1``   -- paper fidelity for both knobs.
* ``REPRO_JOBS``     -- worker processes for the network sweeps
  (default 1; results are bit-identical at any job count).

Simulation sweeps are memoized in ``benchmarks/.sweep_cache.json``
(keyed by the full config + simulator revision, so fidelity-knob or
simulator changes re-simulate automatically); synthesis results in
``benchmarks/.cost_cache.json``, salted with a digest of the whole
``repro`` package, so any source edit re-synthesizes -- neither file
ever needs deleting by hand, and the cost cache is not committed.
"""

import os
from pathlib import Path

import pytest

from repro.eval.cost import CostCache
from repro.eval.runner import ResultCache

RESULTS_DIR = Path(__file__).parent / "results"

FULL = os.environ.get("REPRO_FULL", "") == "1"
NUM_SAMPLES = int(os.environ.get("REPRO_SAMPLES", "10000" if FULL else "500"))
SIM_MEASURE_CYCLES = int(
    os.environ.get("REPRO_SIM_CYCLES", "10000" if FULL else "1200")
)
SIM_WARMUP_CYCLES = max(300, SIM_MEASURE_CYCLES // 3)
SIM_DRAIN_CYCLES = SIM_MEASURE_CYCLES
SIM_JOBS = int(os.environ.get("REPRO_JOBS", "1"))


def save_result(name: str, text: str) -> None:
    """Persist a rendered figure table and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")


@pytest.fixture(scope="session")
def cost_cache():
    """Repo-local synthesis cache shared by the cost benchmarks."""
    return CostCache(str(Path(__file__).parent / ".cost_cache.json"))


@pytest.fixture(scope="session")
def sweep_cache():
    """Repo-local simulation-result cache shared by the network sweeps."""
    return ResultCache(Path(__file__).parent / ".sweep_cache.json")


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
