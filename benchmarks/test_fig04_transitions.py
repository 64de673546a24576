"""Figure 4: VC transition matrix for the flattened butterfly, 2x2x4 VCs.

Regenerates the legal-transition matrix and checks the numbers the
paper calls out: 96 of 256 transitions legal, at most 8 successors/
predecessors per VC, all transitions confined to the message-class
quadrants.
"""

import numpy as np

from conftest import save_result
from repro.core import VCPartition
from repro.eval.tables import format_table


def _render(part):
    mat = np.asarray(part.transition_matrix())
    V = part.num_vcs
    rows = []
    for vin in range(V):
        m, r, c = part.vc_fields(vin)
        marks = "".join("o" if mat[vin, vout] else "." for vout in range(V))
        rows.append([vin, f"m{m}/r{r}/c{c}", marks])
    header = format_table(
        ["in VC", "class", "legal output VCs (o)"],
        rows,
        title=f"Figure 4: VC transition matrix, fbfly {part.describe()}",
    )
    return header + f"\nlegal transitions: {part.num_legal_transitions()} / {V * V}"


def test_fig04_transition_matrix():
    part = VCPartition.fbfly(4)
    save_result("fig04_transitions", _render(part))

    mat = np.asarray(part.transition_matrix())
    # Headline numbers from Section 4.2.
    assert part.num_legal_transitions() == 96
    assert mat.sum(axis=1).max() == 8
    assert mat.sum(axis=0).max() == 8
    # Quadrant confinement (message classes never mix).
    assert not mat[:8, 8:].any() and not mat[8:, :8].any()
    # Within a message class: non-minimal rows reach both halves,
    # minimal rows only the minimal half.
    assert np.array_equal(mat[0, :8], np.ones(8, dtype=bool))
    assert np.array_equal(mat[4, :8], np.r_[np.zeros(4, bool), np.ones(4, bool)])
