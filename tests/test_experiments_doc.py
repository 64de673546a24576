"""EXPERIMENTS.md quotes the committed figure tables.

The verdicts in EXPERIMENTS.md are prose over the tables the figure
benchmarks write under ``benchmarks/results/``.  These checks read both
committed files and run no simulation, so a table regenerated with new
numbers, or prose edited by hand, fails here until the two agree.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _speculation_gains():
    """The mesh speculation saturation gains (C=1, C=4) as ``+x.y%``."""
    table = (REPO / "benchmarks/results/fig14_speculation_gain.txt").read_text()
    ratios = re.search(r"C=1 -> (\d+\.\d+), C=4 -> (\d+\.\d+)", table).groups()
    return [f"+{(float(r) - 1) * 100:.1f}%" for r in ratios]


def test_speculation_saturation_gain_prose_matches_the_table():
    few, rich = _speculation_gains()
    doc = (REPO / "EXPERIMENTS.md").read_text()
    row = next(
        line for line in doc.splitlines()
        if line.startswith("| Speculation saturation gain")
    )
    assert f"**{few} / {rich}**" in row, (row, few, rich)
    note = re.search(r"mesh 2×1×1\) measures\s+(\+\d+\.\d%)", doc)
    assert note is not None and note.group(1) == few, (note, few)
