"""Shared infrastructure for the figure-regeneration tests.

Each module regenerates one table/figure from the paper, asserts its
qualitative shape (who wins, by roughly what factor, where crossovers
fall) and saves the rendered table under ``benchmarks/results/``.  The
committed tables are the default-fidelity output, so a run that
changes one shows up in ``git diff benchmarks/results``.

Environment:

* ``REPRO_FULL=1`` -- paper fidelity: 10000 request matrices per
  matching-quality point and 10000 measured cycles per network point
  (default: 500 and 1200).
* ``REPRO_JOBS`` -- worker processes for the network sweeps (default 1;
  results are bit-identical at any job count).

Simulation sweeps are memoized in ``benchmarks/.sweep_cache.json``
(keyed by the full config + simulator revision) and synthesis results
in ``benchmarks/.cost_cache.json`` (salted with a digest of the whole
``repro`` package).  Neither is committed, and neither ever needs
deleting by hand: a changed config or source re-computes on its own.
"""

import os
from pathlib import Path

import pytest

from repro.eval.cost import CostCache
from repro.eval.runner import ResultCache

RESULTS_DIR = Path(__file__).parent / "results"

FULL = os.environ.get("REPRO_FULL", "") == "1"
NUM_SAMPLES = 10000 if FULL else 500
_MEASURE = 10000 if FULL else 1200
#: The warmup / measure / drain windows of every network point.
SIM_WINDOWS = dict(
    warmup_cycles=max(300, _MEASURE // 3),
    measure_cycles=_MEASURE,
    drain_cycles=_MEASURE,
)
SIM_JOBS = int(os.environ.get("REPRO_JOBS", "1"))


def panel_tag(point) -> str:
    """A design point's label as a file-name fragment."""
    return point.label.replace(" ", "_").replace("(", "").replace(")", "")


def save_result(name: str, text: str) -> None:
    """Persist a rendered figure table and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")


@pytest.fixture(scope="session")
def cost_cache():
    """Repo-local synthesis cache shared by the cost tests."""
    return CostCache(str(Path(__file__).parent / ".cost_cache.json"))


@pytest.fixture(scope="session")
def sweep_cache():
    """Repo-local simulation-result cache shared by the network sweeps."""
    return ResultCache(Path(__file__).parent / ".sweep_cache.json")
