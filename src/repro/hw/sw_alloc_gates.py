"""Gate-level switch allocator netlists (Figures 8 and 9).

Builds complete switch allocators for a ``P``-port, ``V``-VC router.
Runtime inputs: per (input port, VC) a one-hot P-wide output-port
request vector.  Outputs: the P x P crossbar control matrix plus the
per-port winning-VC vector.

Speculation variants (Figure 9) wrap two identical allocator cores:

* ``conventional`` masks speculative grants with the non-speculative
  *grant* matrix: the row/column OR-reduction trees and the NOR stage
  sit after the non-speculative allocator on the critical path;
* ``pessimistic`` masks with the non-speculative *request* matrix: the
  reductions are computed directly from primary inputs, in parallel
  with allocation, leaving only the final AND (and the grant-combine OR)
  on the critical path -- the delay saving the paper proposes.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

from .alloc_gates import build_wavefront_matrix, wavefront_gate_estimate
from .arbiter_gates import arbiter_gate_estimate, build_arbiter, is_stateless
from .logic import fixed_priority_grants, or_reduce, rotating_mask_update
from .netlist import Netlist
from .trace import PreselectTrace, active_trace

__all__ = [
    "build_switch_allocator_netlist",
    "estimate_switch_allocator_gates",
    "switch_allocator_netlist_name",
]

NetMatrix = List[List[int]]
#: req[p][v][q] primary-input request nets.
ReqNets = List[List[List[int]]]

#: ``finalize(surv_row, surv_col)`` -- emit deferred priority updates.
Finalizer = Callable[[List[int], Optional[List[int]]], None]


class CoreNets(NamedTuple):
    """One allocator core's nets plus its deferred-update contract.

    ``needs_surv_col`` tells the speculative wrapper whether
    ``finalize`` consumes per-output-port survival nets; the wavefront
    core keeps state per input port only, and building the column
    OR trees for it would leave them dangling.
    """

    xbar: NetMatrix
    vc_out: List[List[int]]
    finalize: Optional[Finalizer]
    needs_surv_col: bool = True


def _build_requests(nl: Netlist, P: int, V: int, tag: str) -> List[List[List[int]]]:
    """Primary inputs: req[p][v][q]."""
    return [
        [nl.inputs(P, f"{tag}req_p{p}v{v}_q") for v in range(V)]
        for p in range(P)
    ]


def _core(
    nl: Netlist,
    P: int,
    V: int,
    arch: str,
    arbiter: str,
    req: List[List[List[int]]],
    defer_updates: bool = False,
) -> CoreNets:
    """One switch allocator core.

    Returns a :class:`CoreNets`.  With ``defer_updates=False`` all
    priority-state update logic is emitted immediately and ``finalize``
    is ``None``.  With ``defer_updates=True`` the update logic is
    withheld and ``finalize(surv_row, surv_col)`` must be called later
    with per-input-port / per-output-port *survival* nets (``surv_col``
    may be ``None`` when ``needs_surv_col`` is false); updates are then
    gated on survival.  The speculative wrapper uses this so that a
    masked speculative grant does not advance the speculative core's
    priority state (update-on-success, mirroring
    :class:`repro.core.speculative.SpeculativeSwitchAllocator`).
    """
    if arch == "sep_if":
        return _core_sep_if(nl, P, V, arbiter, req, defer_updates)
    if arch == "sep_of":
        return _core_sep_of(nl, P, V, arbiter, req, defer_updates)
    if arch == "wf":
        return _core_wf(nl, P, V, req, defer_updates)
    raise ValueError(f"unknown switch allocator arch {arch!r}")


def _core_sep_if(
    nl: Netlist,
    P: int,
    V: int,
    arbiter: str,
    req: ReqNets,
    defer_updates: bool = False,
) -> CoreNets:
    # Stage 1: per input port, a V-input arbiter over active VCs.
    vgrants: List[List[int]] = []
    vc_fins = []
    for p in range(P):
        active = [or_reduce(nl, req[p][v]) for v in range(V)]
        g, fin = build_arbiter(nl, arbiter, active)
        vgrants.append(g)
        vc_fins.append(fin)

    # Forward the winning VC's request to its output port.
    preq: NetMatrix = []
    for p in range(P):
        row = []
        for q in range(P):
            terms = [nl.gate("AND2", vgrants[p][v], req[p][v][q]) for v in range(V)]
            row.append(or_reduce(nl, terms))
        preq.append(row)

    # Stage 2: per output port, a P-input arbiter.  Its grants drive the
    # crossbar control signals directly (Figure 8a).
    xbar: NetMatrix = [[0] * P for _ in range(P)]
    out_fins = []
    for q in range(P):
        g, fin = build_arbiter(nl, arbiter, [preq[p][q] for p in range(P)])
        if defer_updates:
            out_fins.append(fin)
        else:
            fin(None)
        for p in range(P):
            xbar[p][q] = g[p]

    # Input-stage priorities advance only on downstream success.
    vc_out: List[List[int]] = []
    for p in range(P):
        success = or_reduce(nl, xbar[p])
        if not defer_updates:
            vc_fins[p](success)
        vc_out.append(
            [nl.gate("AND2", vgrants[p][v], success) for v in range(V)]
        )
    if not defer_updates:
        return CoreNets(xbar, vc_out, None)

    def finalize(
        surv_row: List[int], surv_col: Optional[List[int]]
    ) -> None:
        for p in range(P):
            vc_fins[p](surv_row[p])
        for q in range(P):
            out_fins[q](surv_col[q])

    return CoreNets(xbar, vc_out, finalize)


def _core_sep_of(
    nl: Netlist,
    P: int,
    V: int,
    arbiter: str,
    req: ReqNets,
    defer_updates: bool = False,
) -> CoreNets:
    # Port-level requests combine all VCs (Figure 8b).
    preq = [
        [or_reduce(nl, [req[p][v][q] for v in range(V)]) for q in range(P)]
        for p in range(P)
    ]

    # Stage 1: output-port arbiters offer themselves to one input port.
    offers: NetMatrix = [[0] * P for _ in range(P)]  # [p][q]
    out_fins = []
    for q in range(P):
        g, fin = build_arbiter(nl, arbiter, [preq[p][q] for p in range(P)])
        out_fins.append(fin)
        for p in range(P):
            offers[p][q] = g[p]

    # Stage 2: per input port, arbitrate among VCs able to use a granted
    # output.
    xbar: NetMatrix = [[0] * P for _ in range(P)]
    vc_out: List[List[int]] = []
    vc_fins = []
    for p in range(P):
        elig = []
        for v in range(V):
            terms = [nl.gate("AND2", req[p][v][q], offers[p][q]) for q in range(P)]
            elig.append(or_reduce(nl, terms))
        g, fin = build_arbiter(nl, arbiter, elig)
        if defer_updates:
            vc_fins.append(fin)
        else:
            fin(None)
        vc_out.append(g)
        # Crossbar controls are generated after allocation completes
        # (the output arbiters cannot drive them directly here).
        for q in range(P):
            acc = or_reduce(
                nl, [nl.gate("AND2", g[v], req[p][v][q]) for v in range(V)]
            )
            xbar[p][q] = nl.gate("AND2", offers[p][q], acc)
    if not defer_updates:
        for q in range(P):
            if is_stateless(out_fins[q]):
                continue
            success = or_reduce(nl, [xbar[p][q] for p in range(P)])
            out_fins[q](success)
        return CoreNets(xbar, vc_out, None)

    def finalize(
        surv_row: List[int], surv_col: Optional[List[int]]
    ) -> None:
        for p in range(P):
            vc_fins[p](surv_row[p])
        for q in range(P):
            out_fins[q](surv_col[q])

    return CoreNets(xbar, vc_out, finalize)


def _core_wf(
    nl: Netlist, P: int, V: int, req: ReqNets, defer_updates: bool = False
) -> CoreNets:
    # Port-level requests; the wavefront grants at most one output per
    # input, so its outputs drive the crossbar directly (Figure 8c).
    preq = [
        [or_reduce(nl, [req[p][v][q] for v in range(V)]) for q in range(P)]
        for p in range(P)
    ]
    xbar = build_wavefront_matrix(nl, preq)

    # VC pre-selection in parallel with the wavefront: per input port a
    # shared rotating-mask register, combinationally replicated per
    # output port over the VCs requesting that output.
    vc_out: List[List[int]] = []
    pending_masks: List[Tuple[int, List[int], List[int], object]] = []
    for p in range(P):
        if V == 1:
            # The lone VC wins whenever its port gets any output; the
            # pre-selection network degenerates to pure wiring (no
            # constant-1 selects for synthesis to fold away).
            vc_out.append([or_reduce(nl, xbar[p])])
            continue
        mask = [nl.reg() for _ in range(V)]
        sel_by_q = []
        for q in range(P):
            lines = [req[p][v][q] for v in range(V)]
            masked = [nl.gate("AND2", lines[v], mask[v]) for v in range(V)]
            gm = fixed_priority_grants(nl, masked)
            gu = fixed_priority_grants(nl, lines)
            anym = or_reduce(nl, masked)
            sel_by_q.append(
                [nl.gate("MUX2", gu[v], gm[v], anym) for v in range(V)]
            )
        # Combine: VC v wins if its pre-selection fires for the granted q.
        grants_v = []
        for v in range(V):
            terms = [nl.gate("AND2", sel_by_q[q][v], xbar[p][q]) for q in range(P)]
            grants_v.append(or_reduce(nl, terms))
        vc_out.append(grants_v)
        trace = active_trace()
        presel = None
        if trace is not None:
            presel = PreselectTrace(
                port=p,
                mask_regs=list(mask),
                line_nets=[[req[p][v][q] for v in range(V)] for q in range(P)],
                sel_nets=[list(row) for row in sel_by_q],
                xbar_row=list(xbar[p]),
                grants_v=list(grants_v),
            )
            trace.preselects.append(presel)
        if defer_updates:
            pending_masks.append((p, mask, grants_v, presel))
        else:
            # Rotate the shared mask past the winning VC on success.
            upd = or_reduce(nl, grants_v)
            rotating_mask_update(nl, mask, grants_v, upd)
            if presel is not None:
                presel.update_enable = upd
    if not defer_updates:
        return CoreNets(xbar, vc_out, None)

    def finalize(
        surv_row: List[int], surv_col: Optional[List[int]]
    ) -> None:
        # Rotate the shared mask only when the port's grant survived the
        # speculation masking (survival implies this core granted, so no
        # extra AND with the core's own any-grant is needed).  The
        # wavefront's priority diagonal itself still rotates per
        # *allocation* -- see build_wavefront_matrix -- matching the
        # behavioural model.
        del surv_col  # wavefront mask state is per input port only
        for p, mask, grants_v, presel in pending_masks:
            rotating_mask_update(nl, mask, grants_v, surv_row[p])
            if presel is not None:
                presel.update_enable = surv_row[p]

    return CoreNets(xbar, vc_out, finalize, needs_surv_col=False)


# ----------------------------------------------------------------------
def switch_allocator_netlist_name(
    num_ports: int,
    num_vcs: int,
    arch: str = "sep_if",
    arbiter: str = "rr",
    speculation: str = "nonspec",
) -> str:
    """The name :func:`build_switch_allocator_netlist` gives its netlist
    (the scope of every DRC finding on it), without building it."""
    return f"sw_{arch}_{arbiter}_P{num_ports}_V{num_vcs}_{speculation}"


def build_switch_allocator_netlist(
    num_ports: int,
    num_vcs: int,
    arch: str = "sep_if",
    arbiter: str = "rr",
    speculation: str = "nonspec",
) -> Netlist:
    """Construct a switch allocator netlist for one design point.

    ``speculation`` is ``"nonspec"``, ``"conventional"`` or
    ``"pessimistic"`` (Figure 9); speculative variants instantiate two
    allocator cores plus the masking logic.
    """
    P, V = num_ports, num_vcs
    nl = Netlist(switch_allocator_netlist_name(P, V, arch, arbiter, speculation))

    req_ns = _build_requests(nl, P, V, "ns_")
    if speculation == "nonspec":
        xbar, vc_out, _, _ = _core(nl, P, V, arch, arbiter, req_ns)
        for p in range(P):
            for q in range(P):
                nl.mark_output(xbar[p][q], f"xbar_{p}_{q}")
            for v in range(V):
                nl.mark_output(vc_out[p][v], f"vcgnt_{p}_{v}")
        nl.validate()
        return nl
    if speculation not in ("conventional", "pessimistic"):
        raise ValueError(f"unknown speculation scheme {speculation!r}")

    req_sp = _build_requests(nl, P, V, "sp_")

    if speculation == "pessimistic":
        # Row/column busy bits from non-speculative REQUESTS: computed
        # straight from inputs, in parallel with both allocators.
        row_busy = [
            or_reduce(nl, [req_ns[p][v][q] for v in range(V) for q in range(P)])
            for p in range(P)
        ]
        col_busy = [
            or_reduce(nl, [req_ns[p][v][q] for v in range(V) for p in range(P)])
            for q in range(P)
        ]

    core_ns = _core(nl, P, V, arch, arbiter, req_ns)
    xbar_ns, vc_ns = core_ns.xbar, core_ns.vc_out
    # The speculative core's priority updates are deferred until the
    # masked (surviving) grants exist: a killed speculative grant must
    # leave the core's arbiter state untouched.
    core_sp = _core(nl, P, V, arch, arbiter, req_sp, defer_updates=True)
    xbar_sp, vc_sp = core_sp.xbar, core_sp.vc_out

    if speculation == "conventional":
        # Row/column busy bits from non-speculative GRANTS: the
        # reduction trees extend the critical path (Figure 9a).
        row_busy = [or_reduce(nl, xbar_ns[p]) for p in range(P)]
        col_busy = [
            or_reduce(nl, [xbar_ns[p][q] for p in range(P)]) for q in range(P)
        ]

    # NOR the summaries, mask speculative grants, combine.
    ok = [
        [nl.gate("INV", nl.gate("OR2", row_busy[p], col_busy[q])) for q in range(P)]
        for p in range(P)
    ]
    masked_all: NetMatrix = []
    surv_row: List[int] = []
    for p in range(P):
        masked_row = []
        for q in range(P):
            masked = nl.gate("AND2", xbar_sp[p][q], ok[p][q])
            masked_row.append(masked)
            nl.mark_output(
                nl.gate("OR2", xbar_ns[p][q], masked), f"xbar_{p}_{q}"
            )
        masked_all.append(masked_row)
        # A speculative VC grant is only valid if the port's speculative
        # crossbar grant survived the masking.
        surv = or_reduce(nl, masked_row)
        surv_row.append(surv)
        for v in range(V):
            nl.mark_output(vc_ns[p][v], f"vcgnt_ns_{p}_{v}")
            nl.mark_output(
                nl.gate("AND2", vc_sp[p][v], surv), f"vcgnt_sp_{p}_{v}"
            )
    surv_col = (
        [or_reduce(nl, [masked_all[p][q] for p in range(P)]) for q in range(P)]
        if core_sp.needs_surv_col
        else None
    )
    assert core_sp.finalize is not None
    core_sp.finalize(surv_row, surv_col)
    nl.validate()
    return nl


def estimate_switch_allocator_gates(
    num_ports: int,
    num_vcs: int,
    arch: str,
    arbiter: str = "rr",
    speculation: str = "nonspec",
) -> int:
    """Cheap gate-count estimate for the synthesis capacity model."""
    P, V = num_ports, num_vcs
    if arch == "wf":
        core = wavefront_gate_estimate(P) + P * P * (3 * V + 4)
    else:
        core = (
            P * arbiter_gate_estimate(arbiter, V)
            + P * arbiter_gate_estimate(arbiter, P)
            + 3 * P * P * V
        )
    if speculation == "nonspec":
        return core
    return 2 * core + 6 * P * P
