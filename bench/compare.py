#!/usr/bin/env python3
"""Compare two benchmark result files: ``python3 bench/compare.py A.json B.json``.

Renders one row per workload and end-to-end metric (both medians, the
ratio with its base, the bound, both spreads) and marks a pair
``unresolved`` when the spread of either side exceeds the bound.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from nocbench.compare import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
