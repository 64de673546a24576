"""Top-level driver: prove the full paper matrix, end to end.

Runs, in order: (1) oracle cross-validation -- the packed reference
functions the proofs compare against are themselves proved equal to the
behavioural arbiters, so the trust chain bottoms out in
:mod:`repro.core`, not in this package; (2) the round-robin bounded
starvation argument; (3) the component equivalence/property checker
over every buildable netlist of the paper's design-point matrix; and
(4) the end-to-end allocator equivalence matrix.  The checks inside
each stage are independent, so they run on the pool's forked workers
(:func:`repro.eval.runner.map_jobs`); findings keep this order.

All results are :class:`~repro.analysis.findings.Finding` objects so
the verify CLI shares the baseline/suppression machinery with the DRC
and source linter.  Capacity-skipped design points are reported as
``(label, reason)`` tuples, mirroring :func:`lint_paper_netlists` --
a skip is visible but does not gate CI.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple

from ..analysis.findings import Finding
from ..analysis.netlists import NetlistJob, map_paper_netlists, run_checks
from ..hw.synthesis import DEFAULT_MAX_CELLS
from ..hw.trace import tracing
from .equivalence import check_netlist, e2e_check_matrix
from .oracles import (
    validate_matrix_oracle,
    validate_rr_oracle,
    validate_wavefront_oracle,
)
from .properties import rr_starvation_bound

__all__ = ["VERIFY_RULES", "verify_paper_netlists"]

#: Rule catalogue for ``repro verify`` findings.  Everything is emitted
#: at severity ``error``: a verification finding is a disproof, and a
#: disproof is never advisory.
VERIFY_RULES = {
    "VER-EQUIV": (
        "netlist grant logic diverges from the behavioural "
        "allocator/arbiter on some input and reachable priority state"
    ),
    "VER-STATE": (
        "priority state-update logic diverges from the behavioural "
        "update (induction step fails)"
    ),
    "VER-STRUCT": (
        "gate structure does not match the proven component template"
    ),
    "VER-PROP": (
        "a declared allocator safety property is violated on a "
        "reachable state"
    ),
    "VER-STARVATION": (
        "round-robin bounded-starvation guarantee does not hold"
    ),
    "VER-TRACE": (
        "build trace is missing or inconsistent; the component could "
        "not be brought under proof"
    ),
    "VER-ORACLE": (
        "a packed oracle diverges from the behavioural model it "
        "summarises"
    ),
}


def _oracle_findings(kind: str, n: int, validate: Callable[[], None]) -> List[Finding]:
    """Cross-validate one oracle width: a finding if it diverges."""
    try:
        validate()
    except AssertionError as exc:
        return [
            Finding(
                rule="VER-ORACLE",
                severity="error",
                scope="oracles",
                location=f"{kind}/n={n}",
                message=str(exc),
            )
        ]
    return []


def _model_checks(quick: bool) -> List[Tuple[str, Callable[[], List[Finding]]]]:
    """The model layer as ``(label, check)`` pairs: every oracle width
    the component proofs rely on, then the round-robin starvation bound
    at every paper width."""
    rr_widths = (2, 3) if quick else (2, 3, 4, 5)
    matrix_jobs = [(3, {})] if quick else [(3, {}), (4, {}), (6, {"samples": 32})]
    wf_widths = (2,) if quick else (2, 3)
    oracles = (
        [("rr", n, partial(validate_rr_oracle, n)) for n in rr_widths]
        + [
            ("matrix", n, partial(validate_matrix_oracle, n, **kwargs))
            for n, kwargs in matrix_jobs
        ]
        + [("wavefront", n, partial(validate_wavefront_oracle, n)) for n in wf_widths]
    )
    starvation_widths = range(2, 5) if quick else range(2, 17)
    return [
        (f"oracle {kind} n={n}", partial(_oracle_findings, kind, n, validate))
        for kind, n, validate in oracles
    ] + [
        (f"starvation rr n={n}", partial(_starvation_findings, n))
        for n in starvation_widths
    ]


def _starvation_findings(n: int) -> List[Finding]:
    """Prove the n-1 round-robin starvation bound at width ``n``."""
    bound, per_pointer = rr_starvation_bound(n)
    if bound == n - 1:
        return []
    return [
        Finding(
            rule="VER-STARVATION",
            severity="error",
            scope="properties",
            location=f"rr/n={n}",
            message=(
                f"worst-case starvation bound is {bound}, expected "
                f"{n - 1}; per-pointer bounds {per_pointer}"
            ),
        )
    ]


def _prove(job: NetlistJob, proved: set) -> Tuple[List[Finding], int]:
    """Build one matrix netlist under a trace and prove it, skipping
    components whose shape ``proved`` already holds."""
    with tracing() as trace:
        nl = job.builder()
    return check_netlist(nl, trace, scope=job.label, proved=proved), nl.num_nets


def verify_paper_netlists(
    include_vc: bool = True,
    include_sw: bool = True,
    max_cells: int = DEFAULT_MAX_CELLS,
    quick: bool = False,
    progress=None,
    include_e2e: bool = True,
    include_models: bool = True,
    jobs: Optional[int] = None,
) -> Tuple[List[Finding], List[Tuple[str, str]], int]:
    """Run the full verification campaign over the paper matrix.

    Returns ``(findings, skipped, checked)`` in the same shape as
    :func:`repro.analysis.netlists.lint_paper_netlists`: ``skipped``
    holds ``(label, reason)`` for capacity-excluded design points and
    ``checked`` counts netlists actually proved.  ``quick`` restricts
    every stage to its smallest configuration for smoke runs;
    ``include_models`` covers the oracle cross-validation and the
    starvation bound (the model-level property layer).  Each stage's
    independent checks run on at most ``jobs`` pool workers (default:
    one per usable CPU); findings keep their serial order.
    """
    findings: List[Finding] = []
    if include_models:
        findings.extend(run_checks(_model_checks(quick), progress, jobs))

    # One memo of clean component shapes per run; a forked worker fills
    # its own copy, so a shape is proved at most once per process.
    found, skipped, checked = map_paper_netlists(
        partial(_prove, proved=set()), "prove",
        include_vc, include_sw, max_cells, quick, progress, jobs,
    )
    findings.extend(found)
    if include_e2e:
        findings.extend(
            e2e_check_matrix(progress=progress, quick=quick, jobs=jobs)
        )
    return findings, skipped, checked
