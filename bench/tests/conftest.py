"""Tests of the benchmark's own code: ``pytest bench/tests`` from the repo root.

They sit outside tier-1's ``testpaths`` on purpose: tier-1 tests the
program, these test the instrument.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
