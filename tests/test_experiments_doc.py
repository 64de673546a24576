"""EXPERIMENTS.md quotes the committed figure tables.

The verdicts in EXPERIMENTS.md are prose over the tables the figure
tests write under ``benchmarks/results/``.  These checks read both
committed files and run no simulation, so a table regenerated with new
numbers, or prose edited by hand, fails here until the two agree.

Every number in the "Measured" column of the headline-claims table is
derived here from the table its row names, in the order the row quotes
it; design-point labels (``fbfly 2×2×2``, ``C=4``) and file names in
backticks are not numbers.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
RESULTS = REPO / "benchmarks" / "results"
DOC = (REPO / "EXPERIMENTS.md").read_text()

NUMBER = re.compile(r"\d+(?:\.\d+)?")


def _table(name):
    return (RESULTS / f"{name}.txt").read_text()


def _panels(prefix):
    """``{label: (rows, saturation rates)}`` of one figure's panels,
    e.g. ``"mesh 2×1×1"``; a row is its numbers, rate first."""
    panels = {}
    for path in sorted(RESULTS.glob(f"{prefix}_*_VCs_V=*.txt")):
        text = path.read_text()
        label = re.search(r"panel: (\w+ \d+x\d+x\d+)", text).group(1)
        rows = [
            [float(x) for x in line.split()]
            for line in text.splitlines() if re.match(r"\d+\.\d+ ", line)
        ]
        sats = dict(re.findall(r"(\w+)=(\d+\.\d+)",
                               text.split("saturation rates:")[1]))
        panels[label.replace("x", "×")] = (
            rows, {k: float(v) for k, v in sats.items()}
        )
    return panels


def _pct(fraction, digits=0):
    return f"{fraction * 100:.{digits}f}"


def _span(values):
    """``["lo", "hi"]``, or one string when both print the same."""
    lo, hi = min(values, key=float), max(values, key=float)
    return [lo] if lo == hi else [lo, hi]


def _sparse_vc():
    return list(re.search(
        r"max: delay (\S+)%, area (\S+)%, power (\S+)%",
        _table("claims_sparse_vc"),
    ).groups())


def _pessimistic_delay():
    return [re.search(r"saving: (\S+)%",
                      _table("fig10_peak_speculation_saving")).group(1)]


def _zero_load_cut():
    # Columns: rate, nonspec, spec_gnt, spec_req; zero load is the
    # lowest rate.
    cuts = {"mesh": [], "fbfly": []}
    for label, (rows, _) in _panels("fig14_speculation").items():
        nonspec, spec_req = rows[0][1], rows[0][3]
        cuts[label.split()[0]].append(_pct(1 - spec_req / nonspec))
    return _span(cuts["mesh"]) + _span(cuts["fbfly"])


def _wf_advantage():
    panels = _panels("fig13_network")
    gains = [
        _pct(sats["wf"] / sats["sep_if"] - 1, 1)
        for _, sats in (panels["fbfly 2×2×2"], panels["fbfly 2×2×4"])
    ]
    ratios = re.search(r"C=1 -> (\S+), C=4 -> (\S+) ",
                       _table("fig13_wf_advantage")).groups()
    return gains + list(ratios)


def _speculation_gain():
    ratios = re.search(r"C=1 -> (\S+), C=4 -> (\S+) ",
                       _table("fig14_speculation_gain")).groups()
    return [_pct(float(r) - 1, 1) for r in ratios]


def _pessimistic_throughput_loss():
    losses = {
        label: 1 - sats["spec_req"] / sats["spec_gnt"]
        for label, (_, sats) in _panels("fig14_speculation").items()
    }
    mesh = [_pct(x) for label, x in losses.items() if label.startswith("mesh")]
    fbfly = [_pct(x) for label, x in losses.items() if label.startswith("fbfly")]
    return [max(mesh, key=float)] + _span(fbfly) + [max(losses, key=losses.get)]


def _vc_alloc_insensitive():
    text = _table("claims_vc_alloc_insensitive")
    zero, sat = text.split("|")
    return _span(re.findall(r"=(\S+?),? ", zero)) + _span(NUMBER.findall(sat))


#: Headline row (by the start of its claim) -> what its Measured cell
#: quotes: numbers in order, plus any label it must name.
HEADLINES = {
    "Sparse VC allocation": _sparse_vc,
    "Pessimistic speculation reduces": _pessimistic_delay,
    "Speculation cuts zero-load": _zero_load_cut,
    "wf switch allocator saturation advantage": _wf_advantage,
    "Speculation saturation gain": _speculation_gain,
    "Pessimistic vs conventional throughput loss": _pessimistic_throughput_loss,
    "Network performance insensitive": _vc_alloc_insensitive,
}


def _headline_rows():
    section = DOC.split("## Headline claims")[1].split("\n## ")[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines() if line.startswith("| ")
    ]
    return rows[1:]  # the header


def _quoted_numbers(cell):
    cell = re.sub(r"`[^`]*`", "", cell)
    cell = re.sub(r"\w+ \d+[×x]\d+[×x]\d+|\b[CV]=\d+", "", cell)
    return NUMBER.findall(cell)


def test_every_headline_row_is_checked():
    claims = [row[0] for row in _headline_rows()]
    assert len(claims) == len(HEADLINES), claims
    for prefix in HEADLINES:
        assert sum(c.startswith(prefix) for c in claims) == 1, prefix


@pytest.mark.parametrize("prefix", HEADLINES)
def test_headline_numbers_are_the_tables(prefix):
    row = next(r for r in _headline_rows() if r[0].startswith(prefix))
    measured = row[2]
    expected = HEADLINES[prefix]()
    numbers = [e for e in expected if NUMBER.fullmatch(e)]
    assert _quoted_numbers(measured) == numbers, (measured, expected)
    for label in expected:
        if label not in numbers:
            assert label in measured, (measured, label)


def test_speculation_saturation_gain_prose_matches_the_table():
    few = _speculation_gain()[0]
    note = re.search(r"mesh 2×1×1\) measures\s+\+(\d+\.\d)%", DOC)
    assert note is not None and note.group(1) == few, (note, few)
