"""The repo benchmark: CLI-level workloads, end-to-end metrics, per-layer probes.

Entry points are ``bench/run.py`` and ``bench/compare.py``; see
``bench/README.md`` for the workload and metric tables.  Nothing here is
imported by ``src/repro`` and nothing here adds a hook inside it.
"""

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
