"""Gate-level VC allocator netlists (Figure 3) with sparse optimization.

Builds complete VC allocators for a router with ``P`` ports and a
:class:`~repro.core.vc_partition.VCPartition` describing the VC space.
With ``sparse=True`` the static restrictions of Section 4.2 are applied:

* the allocator splits into ``M`` independent per-message-class slices
  (for the wavefront: ``M`` smaller arrays);
* separable arbiter widths shrink from ``V`` / ``P*V`` to the successor/
  predecessor class counts times ``C``;
* requests select whole classes rather than individual VCs (one request
  line per candidate class, fanned out to the ``C`` per-VC arbiter
  inputs by wiring).

The resource-class restriction deliberately does **not** shrink the
wavefront arrays (the paper notes it "does not apply to the wavefront-
based implementation" except in special cases); illegal cells are tied
to constant-0 requests but their tiles remain, exactly like the RTL.

Runtime inputs per input VC: a request line per candidate class (sparse)
or per candidate output VC (dense), plus a one-hot destination-port
vector.  Outputs: the V-wide granted-VC vector per input VC.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.vc_partition import VCPartition
from .alloc_gates import (
    build_wavefront_matrix,
    build_wavefront_matrix_rotated,
    rotated_wavefront_gate_estimate,
    separable_gate_estimate,
    wavefront_gate_estimate,
)
from .arbiter_gates import arbiter_gate_estimate, build_arbiter, is_stateless
from .logic import or_reduce
from .netlist import Netlist

#: req[p][v]: candidate output VC -> request net; dest[p][v]: P-wide
#: one-hot destination vector (see ``_build_inputs``).
ReqNets = List[List[Dict[int, int]]]
DestNets = List[List[List[int]]]

__all__ = [
    "build_vc_allocator_netlist",
    "estimate_vc_allocator_gates",
    "vc_allocator_netlist_name",
]


class _VCStructure:
    """Static candidate structure shared by all the builders."""

    def __init__(
        self, num_ports: int, partition: VCPartition, sparse: bool
    ) -> None:
        self.P = num_ports
        self.part = partition
        self.V = partition.num_vcs
        self.sparse = sparse
        # candidate output VCs per input VC class index (same for every port)
        if sparse:
            self.candidates = [
                partition.candidate_vcs(v) for v in range(self.V)
            ]
        else:
            self.candidates = [list(range(self.V)) for _ in range(self.V)]
        # requesters (input VC class indices) that may target output VC u
        self.requesters: List[List[int]] = [[] for _ in range(self.V)]
        for v in range(self.V):
            for u in self.candidates[v]:
                self.requesters[u].append(v)


def _build_inputs(nl: Netlist, s: _VCStructure) -> Tuple[list, list]:
    """Create request/destination input nets for every input VC.

    Returns ``(req, dest)`` where ``req[p][v]`` maps candidate output VC
    -> request net (class-shared lines under sparse operation) and
    ``dest[p][v]`` is the P-wide one-hot destination vector.
    """
    req: List[List[Dict[int, int]]] = []
    dest: List[List[List[int]]] = []
    part = s.part
    for p in range(s.P):
        req_p = []
        dest_p = []
        for v in range(s.V):
            lines: Dict[int, int] = {}
            if s.sparse:
                # One request line per candidate class, shared by its C VCs.
                m_in, r_in, _ = part.vc_fields(v)
                for r_out in part.successor_classes(r_in):
                    line = nl.input(f"req_p{p}v{v}_c{r_out}")
                    for u in part.class_vcs(m_in, r_out):
                        lines[u] = line
            else:
                for u in s.candidates[v]:
                    lines[u] = nl.input(f"req_p{p}v{v}_u{u}")
            req_p.append(lines)
            dest_p.append(nl.inputs(s.P, f"dest_p{p}v{v}_"))
        req.append(req_p)
        dest.append(dest_p)
    return req, dest


def _mark_grant_outputs(nl: Netlist, grants: List[List[int]]) -> None:
    for i, vec in enumerate(grants):
        for u, net in enumerate(vec):
            nl.mark_output(net, f"gnt_{i}_{u}")


def vc_allocator_netlist_name(
    num_ports: int,
    partition: VCPartition,
    arch: str = "sep_if",
    arbiter: str = "rr",
    sparse: bool = True,
    wavefront_impl: str = "replicated",
) -> str:
    """The name :func:`build_vc_allocator_netlist` gives its netlist
    (the scope of every DRC finding on it), without building it."""
    suffix = f"_{wavefront_impl}" if arch == "wf" else ""
    return (
        f"vc_{arch}_{arbiter}_P{num_ports}_{partition.describe()}"
        f"_{'sparse' if sparse else 'dense'}{suffix}"
    )


def build_vc_allocator_netlist(
    num_ports: int,
    partition: VCPartition,
    arch: str = "sep_if",
    arbiter: str = "rr",
    sparse: bool = True,
    wavefront_impl: str = "replicated",
) -> Netlist:
    """Construct the full VC allocator netlist for one design point.

    ``wavefront_impl`` selects the loop-free wavefront realization:
    ``"replicated"`` (the paper's choice: one tile array per priority
    diagonal) or ``"rotated"`` (Hurt et al. [9]: barrel-rotate into a
    single array -- far smaller, somewhat slower; see the
    ``ablation_wavefront_impl`` benchmark).
    """
    if wavefront_impl not in ("replicated", "rotated"):
        raise ValueError(f"unknown wavefront implementation {wavefront_impl!r}")
    s = _VCStructure(num_ports, partition, sparse)
    nl = Netlist(vc_allocator_netlist_name(
        num_ports, partition, arch, arbiter, sparse, wavefront_impl
    ))
    req, dest = _build_inputs(nl, s)
    if arch == "sep_if":
        grants = _build_sep_if(nl, s, req, dest, arbiter)
    elif arch == "sep_of":
        grants = _build_sep_of(nl, s, req, dest, arbiter)
    elif arch == "wf":
        grants = _build_wf(nl, s, req, dest, wavefront_impl)
    else:
        raise ValueError(f"unknown VC allocator arch {arch!r}")
    _mark_grant_outputs(nl, grants)
    nl.validate()
    return nl


# ----------------------------------------------------------------------
def _build_sep_if(
    nl: Netlist, s: _VCStructure, req: ReqNets, dest: DestNets, arbiter: str
) -> List[List[int]]:
    P, V = s.P, s.V

    # Stage 1: per input VC, arbitrate among candidate output VCs.
    sel: List[List[Dict[int, int]]] = []
    input_finishers = []
    for p in range(P):
        sel_p = []
        for v in range(V):
            cands = s.candidates[v]
            lines = [req[p][v][u] for u in cands]
            g, fin = build_arbiter(nl, arbiter, lines)
            sel_p.append(dict(zip(cands, g)))
            input_finishers.append(((p, v), fin))
        sel.append(sel_p)

    # Forward the selected bid to the destination port's output VC.
    # fwd[(q, u)] collects nets indexed by requester (p, v).
    fwd: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
    for p in range(P):
        for v in range(V):
            for u, g in sel[p][v].items():
                for q in range(P):
                    net = nl.gate("AND2", g, dest[p][v][q])
                    fwd.setdefault((q, u), []).append((p, v, net))

    # Stage 2: output-VC arbiters (tree-structured by input port for rr).
    grant_net: Dict[Tuple[int, int, int, int], int] = {}
    for (q, u), entries in fwd.items():
        entries.sort()  # group by input port for the tree decomposition
        lines = [net for (_, _, net) in entries]
        groups = P if arbiter == "rr" and len(lines) > P else None
        g, fin = build_arbiter(nl, arbiter, lines, tree_groups=groups)
        fin(None)  # output-stage grants are final
        for (p, v, _), gn in zip(entries, g):
            grant_net[(p, v, q, u)] = gn

    # Grant reduction: V-wide granted-VC vector per input VC.
    grants: List[List[int]] = []
    nets_by_pv: Dict[Tuple[int, int], List[int]] = {}
    for p in range(P):
        for v in range(V):
            vec = []
            all_nets = []
            for u in range(V):
                nets = [
                    grant_net[(p, v, q, u)]
                    for q in range(P)
                    if (p, v, q, u) in grant_net
                ]
                vec.append(or_reduce(nl, nets) if nets else nl.const(0))
                all_nets.extend(nets)
            grants.append(vec)
            nets_by_pv[(p, v)] = all_nets
    for (p, v), fin in input_finishers:
        if is_stateless(fin):
            # Width-1 (sparse C=1) and fixed-priority input arbiters
            # hold no state; building their downstream-success OR tree
            # would leave it dangling.
            continue
        nets = nets_by_pv[(p, v)]
        fin(or_reduce(nl, nets) if nets else None)
    return grants


def _build_sep_of(
    nl: Netlist, s: _VCStructure, req: ReqNets, dest: DestNets, arbiter: str
) -> List[List[int]]:
    P, V = s.P, s.V

    # Requests are forwarded eagerly to every candidate output VC.
    fwd: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
    for p in range(P):
        for v in range(V):
            for u, line in req[p][v].items():
                for q in range(P):
                    net = nl.gate("AND2", line, dest[p][v][q])
                    fwd.setdefault((q, u), []).append((p, v, net))

    # Stage 1: output-VC arbiters offer themselves to one requester.
    offer_net: Dict[Tuple[int, int, int, int], int] = {}
    output_finishers = []
    for (q, u), entries in fwd.items():
        entries.sort()
        lines = [net for (_, _, net) in entries]
        groups = P if arbiter == "rr" and len(lines) > P else None
        g, fin = build_arbiter(nl, arbiter, lines, tree_groups=groups)
        output_finishers.append(((q, u), fin))
        for (p, v, _), gn in zip(entries, g):
            offer_net[(p, v, q, u)] = gn

    # Stage 2: per input VC, reduce offers per candidate VC and accept one.
    grants: List[List[int]] = []
    accepted: Dict[Tuple[int, int], List[int]] = {}
    for p in range(P):
        for v in range(V):
            cands = s.candidates[v]
            back = []
            for u in cands:
                nets = [
                    offer_net[(p, v, q, u)]
                    for q in range(P)
                    if (p, v, q, u) in offer_net
                ]
                back.append(or_reduce(nl, nets) if nets else nl.const(0))
            g, fin = build_arbiter(nl, arbiter, back)
            fin(None)  # input-stage grants are final
            vec = [nl.const(0)] * V
            for u, gn in zip(cands, g):
                vec[u] = gn
            grants.append(vec)
            accepted[(p, v)] = vec

    # Output arbiters advance only when their offer was accepted:
    # success(q, u) = OR over requesters of (offer AND accepted VC).
    for (q, u), fin in output_finishers:
        if is_stateless(fin):
            continue  # no priority state -> no acceptance tree needed
        terms = []
        for key, net in offer_net.items():
            pp, vv, qq, uu = key
            if (qq, uu) == (q, u):
                terms.append(nl.gate("AND2", net, accepted[(pp, vv)][u]))
        fin(or_reduce(nl, terms) if terms else None)
    return grants


def _build_wf(
    nl: Netlist,
    s: _VCStructure,
    req: ReqNets,
    dest: DestNets,
    wavefront_impl: str = "replicated",
) -> List[List[int]]:
    P, V = s.P, s.V
    part = s.part
    zero = nl.const(0)

    # Forwarded request matrix over (input VC, output VC) flat indices.
    n = P * V
    fwd = [[zero] * n for _ in range(n)]
    for p in range(P):
        for v in range(V):
            for u, line in req[p][v].items():
                for q in range(P):
                    fwd[p * V + v][q * V + u] = nl.gate(
                        "AND2", line, dest[p][v][q]
                    )

    if s.sparse and part.num_message_classes > 1:
        # M independent per-message-class wavefront blocks.
        blocks = []
        for m in range(part.num_message_classes):
            rows = [
                p * V + vc
                for p in range(P)
                for r in range(part.num_resource_classes)
                for vc in part.class_vcs(m, r)
            ]
            blocks.append(rows)
    else:
        blocks = [list(range(n))]

    builder = (
        build_wavefront_matrix
        if wavefront_impl == "replicated"
        else build_wavefront_matrix_rotated
    )
    grant_flat = [[zero] * n for _ in range(n)]
    for rows in blocks:
        sub = [[fwd[i][j] for j in rows] for i in rows]
        sub_grants = builder(nl, sub)
        for a, i in enumerate(rows):
            for b, j in enumerate(rows):
                grant_flat[i][j] = sub_grants[a][b]

    # Grant reduction to a V-wide vector per input VC.
    grants: List[List[int]] = []
    for i in range(n):
        vec = []
        for u in range(V):
            nets = [
                grant_flat[i][q * V + u]
                for q in range(P)
                if grant_flat[i][q * V + u] != zero
            ]
            vec.append(or_reduce(nl, nets) if nets else zero)
        grants.append(vec)
    return grants


# ----------------------------------------------------------------------
def estimate_vc_allocator_gates(
    num_ports: int,
    partition: VCPartition,
    arch: str,
    arbiter: str = "rr",
    sparse: bool = True,
    wavefront_impl: str = "replicated",
) -> int:
    """Cheap gate-count estimate for the synthesis capacity model.

    Mirrors the builder structure without allocating a netlist, so the
    driver can reject infeasible design points instantly -- the model of
    Design Compiler running out of memory.
    """
    P = num_ports
    V = partition.num_vcs
    total = 0
    if arch == "wf":
        wf_est = (
            wavefront_gate_estimate
            if wavefront_impl == "replicated"
            else rotated_wavefront_gate_estimate
        )
        if sparse and partition.num_message_classes > 1:
            block = P * partition.num_resource_classes * partition.vcs_per_class
            total += partition.num_message_classes * wf_est(block)
        else:
            total += wf_est(P * V)
        # fwd AND stage + grant reduction
        total += P * V * V * P // (1 if not sparse else max(1, partition.num_resource_classes))
        return total

    if sparse:
        succ = partition.max_successors() * partition.vcs_per_class
        pred = partition.max_predecessors() * partition.vcs_per_class
    else:
        succ = pred = V
    in_width = succ
    out_width = P * pred
    groups = P if arbiter == "rr" and out_width > P else None
    total += P * V * arbiter_gate_estimate(arbiter, in_width)
    total += P * V * arbiter_gate_estimate(arbiter, out_width, tree_groups=groups)
    # fwd demux + grant reduction glue
    total += P * V * succ * P + 2 * P * V * V
    return total
