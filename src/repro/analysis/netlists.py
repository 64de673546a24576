"""DRC driver over every allocator netlist the paper evaluates.

Enumerates the six design points (8x8 mesh V in {2,4,8}; 4x4 flattened
butterfly V in {4,8,16}) across the allocator variants of Figures
5/6/10/11 -- VC allocators (sparse, the paper's optimized builds) and
switch allocators under all three speculation schemes -- builds each
netlist, and runs the :class:`~repro.analysis.drc.NetlistDRC` over it.

Design points whose gate estimate exceeds the synthesis capacity model
are *skipped* exactly as the synthesis flow fails them (Design Compiler
running out of memory in the paper); a skip is reported, not silently
dropped.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..eval.design_points import (
    ALL_POINTS,
    MESH_POINTS,
    SPECULATION_SCHEMES,
    SWITCH_VARIANTS,
    VC_VARIANTS,
    DesignPoint,
)
from ..eval.runner import map_jobs
from ..hw.netlist import Netlist
from ..hw.sw_alloc_gates import (
    build_switch_allocator_netlist,
    estimate_switch_allocator_gates,
)
from ..hw.synthesis import DEFAULT_MAX_CELLS
from ..hw.vc_alloc_gates import (
    build_vc_allocator_netlist,
    estimate_vc_allocator_gates,
)
from .drc import DrcConfig, NetlistDRC
from .findings import Finding

__all__ = [
    "NetlistJob",
    "iter_paper_netlists",
    "lint_paper_netlists",
    "map_paper_netlists",
    "run_checks",
]


class NetlistJob(NamedTuple):
    """One netlist to check, or the reason it cannot be built."""

    label: str
    builder: Optional[object]  # () -> Netlist, None when skipped
    skip_reason: str = ""


def _vc_jobs(point: DesignPoint, max_cells: int) -> Iterator[NetlistJob]:
    for arch, arbiter in VC_VARIANTS:
        label = f"vc/{point.label}/{arch}/{arbiter}/sparse"
        estimate = estimate_vc_allocator_gates(
            point.num_ports, point.partition, arch, arbiter, sparse=True
        )
        if estimate > max_cells:
            yield NetlistJob(
                label, None,
                f"~{estimate} cells exceeds the {max_cells}-cell synthesis "
                "capacity model (fails in the paper too)",
            )
            continue
        yield NetlistJob(
            label,
            lambda p=point, a=arch, b=arbiter: build_vc_allocator_netlist(
                p.num_ports, p.partition, a, b, sparse=True
            ),
        )


def _sw_jobs(point: DesignPoint, max_cells: int) -> Iterator[NetlistJob]:
    for arch, arbiter in SWITCH_VARIANTS:
        for scheme in SPECULATION_SCHEMES:
            label = f"sw/{point.label}/{arch}/{arbiter}/{scheme}"
            estimate = estimate_switch_allocator_gates(
                point.num_ports, point.num_vcs, arch, arbiter, scheme
            )
            if estimate > max_cells:
                yield NetlistJob(
                    label, None,
                    f"~{estimate} cells exceeds the {max_cells}-cell "
                    "synthesis capacity model (fails in the paper too)",
                )
                continue
            yield NetlistJob(
                label,
                lambda p=point, a=arch, b=arbiter, s=scheme:
                    build_switch_allocator_netlist(
                        p.num_ports, p.num_vcs, a, b, s
                    ),
            )


def iter_paper_netlists(
    include_vc: bool = True,
    include_sw: bool = True,
    max_cells: int = DEFAULT_MAX_CELLS,
    quick: bool = False,
) -> Iterator[NetlistJob]:
    """Lazily yield every checkable netlist job.

    ``quick`` restricts to the smallest mesh design point (V=2) for
    fast smoke runs; the full matrix is the CI configuration.
    """
    points: Sequence[DesignPoint] = MESH_POINTS[:1] if quick else ALL_POINTS
    for point in points:
        if include_vc:
            yield from _vc_jobs(point, max_cells)
        if include_sw:
            yield from _sw_jobs(point, max_cells)


def run_checks(
    checks: Sequence[Tuple[str, Callable[[], List[Finding]]]],
    progress=None,
    jobs: Optional[int] = None,
) -> List[Finding]:
    """Run ``(label, check)`` pairs on at most ``jobs`` pool workers:
    their findings in check order, each label to ``progress`` as its
    check lands."""

    def done(i: int, found: List[Finding]) -> None:
        if progress is not None:
            progress(checks[i][0])

    outcomes = map_jobs(
        lambda check: check[1](), checks, jobs=jobs,
        label=lambda check: check[0], done=done,
    )
    return [f for found in outcomes for f in found]


def map_paper_netlists(
    check: Callable[[NetlistJob], Tuple[List[Finding], int]],
    verb: str,
    include_vc: bool = True,
    include_sw: bool = True,
    max_cells: int = DEFAULT_MAX_CELLS,
    quick: bool = False,
    progress=None,
    jobs: Optional[int] = None,
) -> Tuple[List[Finding], List[Tuple[str, str]], int]:
    """Run ``check(job) -> (findings, nets)`` over every buildable
    netlist of the paper matrix, on at most ``jobs`` pool workers (see
    :func:`~repro.eval.runner.map_jobs`; ``check`` builds the netlist
    itself, in the worker).

    Returns ``(findings, skipped, checked)``: findings in matrix order,
    ``(label, reason)`` per capacity-excluded point and the count of
    netlists checked.  ``progress`` receives a ``skip`` line per skipped
    point, then ``"<verb> <label>: ..."`` as each check lands.
    """
    todo: List[NetlistJob] = []
    skipped: List[Tuple[str, str]] = []
    for job in iter_paper_netlists(include_vc, include_sw, max_cells, quick):
        if job.builder is None:
            skipped.append((job.label, job.skip_reason))
            if progress is not None:
                progress(f"skip {job.label}: {job.skip_reason}")
        else:
            todo.append(job)

    def done(i: int, outcome: Tuple[List[Finding], int]) -> None:
        if progress is not None:
            found, nets = outcome
            progress(f"{verb} {todo[i].label}: {nets} nets, "
                     f"{len(found)} finding(s)")

    outcomes = map_jobs(
        check, todo, jobs=jobs, label=lambda job: job.label, done=done
    )
    findings = [f for found, _ in outcomes for f in found]
    return findings, skipped, len(todo)


def lint_paper_netlists(
    config: Optional[DrcConfig] = None,
    include_vc: bool = True,
    include_sw: bool = True,
    max_cells: int = DEFAULT_MAX_CELLS,
    quick: bool = False,
    progress=None,
    jobs: Optional[int] = None,
) -> Tuple[List[Finding], List[Tuple[str, str]], int]:
    """Run the DRC across the paper matrix.

    Returns ``(findings, skipped, checked)`` where ``skipped`` is a list
    of ``(label, reason)`` for capacity-excluded points and ``checked``
    counts netlists actually built and checked.  ``progress`` is an
    optional callable receiving one status line per job; ``jobs`` is
    the worker count (default: one per usable CPU).
    """
    drc = NetlistDRC(config)

    def check(job: NetlistJob) -> Tuple[List[Finding], int]:
        nl: Netlist = job.builder()
        return drc.check(nl), nl.num_nets

    return map_paper_netlists(
        check, "drc ", include_vc, include_sw, max_cells, quick, progress, jobs
    )
