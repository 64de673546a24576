"""Switch allocator front-ends (Section 5.1, Figure 8).

The switch allocator matches requests from the ``V`` input VCs at each
of the ``P`` input ports to crossbar output ports, subject to the extra
constraint that at most one VC per *input port* wins (the crossbar has
one input per port, not per VC).

Architectures, mirroring Figure 8:

* ``sep_if`` -- a V-input arbiter per input port first selects a winning
  VC; the winner's request is forwarded to its output port, where a
  P-input arbiter selects among ports.  Output arbiters can drive the
  crossbar directly.
* ``sep_of`` -- all VC requests are OR-combined per (input port, output
  port); each output port arbitrates among requesting input ports; an
  input port granted one or more outputs then runs V-input arbitration
  among the VCs able to use a granted port.
* ``wf`` -- a ``P x P`` wavefront allocator over the port-request
  matrix; since it grants at most one output per input, crossbar control
  comes straight from the wavefront outputs, and a winning VC per
  (input port, output port) is pre-selected in parallel by a stage of
  V-input arbiters.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..allocator_names import SWITCH_ALLOCATOR_ARCHS
from .arbiters import Arbiter, make_arbiter
from .wavefront import WavefrontAllocator

__all__ = ["SwitchAllocator", "SWITCH_ALLOCATOR_ARCHS", "port_request_matrix"]

# requests[p][v] is the output port requested by VC v at input port p,
# or None when the VC has no flit ready.
SwitchRequests = Sequence[Sequence[Optional[int]]]
# grants[p] is (winning vc, output port) or None.
SwitchGrants = List[Optional[Tuple[int, int]]]


def port_request_matrix(requests: SwitchRequests, num_ports: int) -> List[List[bool]]:
    """Collapse per-VC requests into the P x P port-level request matrix."""
    mat = [[False] * num_ports for _ in range(num_ports)]
    for p, vc_reqs in enumerate(requests):
        for q in vc_reqs:
            if q is not None:
                mat[p][q] = True
    return mat


class SwitchAllocator:
    """Per-cycle crossbar scheduler.

    Parameters
    ----------
    num_ports:
        Router radix ``P`` (crossbar is ``P x P``).
    num_vcs:
        VCs per input port ``V``.
    arch:
        ``"sep_if"``, ``"sep_of"`` or ``"wf"``.
    arbiter:
        ``"rr"`` or ``"m"`` for the separable stages; the wavefront
        variant uses round-robin pre-selection arbiters only.
    """

    def __init__(
        self,
        num_ports: int,
        num_vcs: int,
        arch: str = "sep_if",
        arbiter: str = "rr",
    ) -> None:
        if num_ports < 1 or num_vcs < 1:
            raise ValueError("num_ports and num_vcs must be >= 1")
        if arch not in SWITCH_ALLOCATOR_ARCHS:
            raise ValueError(f"unknown switch allocator arch {arch!r}")
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self.arch = arch
        self.arbiter_kind = arbiter
        #: Validate requests on every allocate() call; the network
        #: simulator disables this on its per-cycle hot path.
        self.check_requests = True
        #: Optional fault mask: output ports that must not be granted
        #: this cycle (downed links, see :mod:`repro.faults`).  ``None``
        #: in fault-free operation; the router updates it per cycle when
        #: transient link faults are scheduled.
        self.fault_mask: Optional[set] = None
        # Arbiter advances staged by the most recent
        # ``allocate(..., commit=False)`` call, keyed by input port.
        self._pending: Dict[int, Tuple[Tuple[Arbiter, int], ...]] = {}

        # V-input per-port VC arbiters (stage 1 for sep_if, stage 2 for
        # sep_of, pre-selection for wf).
        self._vc_arbs: List[Arbiter] = [
            make_arbiter(arbiter, num_vcs) for _ in range(num_ports)
        ]
        if arch == "wf":
            self._port_arbs: List[Arbiter] = []
            self._wavefront: Optional[WavefrontAllocator] = WavefrontAllocator(
                num_ports, num_ports
            )
        else:
            # P-input output-port arbiters.
            self._port_arbs = [make_arbiter(arbiter, num_ports) for _ in range(num_ports)]
            self._wavefront = None

    def reset(self) -> None:
        for arb in self._vc_arbs:
            arb.reset()
        for arb in self._port_arbs:
            arb.reset()
        if self._wavefront is not None:
            self._wavefront.reset()

    # ------------------------------------------------------------------
    def _validate(self, requests: SwitchRequests) -> None:
        if len(requests) != self.num_ports:
            raise ValueError(f"expected {self.num_ports} input ports")
        for p, vc_reqs in enumerate(requests):
            if len(vc_reqs) != self.num_vcs:
                raise ValueError(f"input port {p}: expected {self.num_vcs} VC slots")
            for q in vc_reqs:
                if q is not None and not 0 <= q < self.num_ports:
                    raise ValueError(f"input port {p}: output port {q} out of range")

    def allocate(self, requests: SwitchRequests, commit: bool = True) -> SwitchGrants:
        """Schedule one crossbar cycle.

        Returns, per input port, the ``(vc, output_port)`` pair that won
        switch access, or ``None``.  At most one grant per input port and
        per output port (a valid matching on the port-level matrix).

        With ``commit=False`` the arbiter priority updates for this
        cycle's grants are *staged* instead of applied; the caller must
        follow up with :meth:`commit`, naming the input ports whose
        grants actually took effect.  The speculative switch allocator
        uses this to honour the update-on-success rule end to end: a
        speculative grant masked off by the (pessimistic or
        conventional) filter never happened, so it must not advance
        arbiter state.  Grant *values* are identical either way --
        advances are applied only after every selection in the cycle is
        made, which matches the hardware's parallel evaluation.
        """
        if self.check_requests:
            self._validate(requests)
        if self.fault_mask is not None:
            requests = [
                [None if q in self.fault_mask else q for q in vc_reqs]
                for vc_reqs in requests
            ]
        self._pending = {}
        if self.arch == "sep_if":
            grants = self._allocate_sep_if(requests)
        elif self.arch == "sep_of":
            grants = self._allocate_sep_of(requests)
        else:
            grants = self._allocate_wavefront(requests)
        if commit:
            for advances in self._pending.values():
                for arb, winner in advances:
                    arb.advance(winner)
            self._pending.clear()
        return grants

    def commit(self, input_ports: Iterable[int]) -> None:
        """Apply the staged priority updates for the surviving grants.

        ``input_ports`` names the input ports (rows) of the grants from
        the preceding ``allocate(..., commit=False)`` call that were
        actually used; staged updates for every other grant are
        discarded (their arbiters keep their pre-cycle state).
        """
        pending = self._pending
        for p in input_ports:
            for arb, winner in pending.pop(p, ()):
                arb.advance(winner)
        pending.clear()

    @staticmethod
    def crossbar_config(grants: SwitchGrants, num_ports: int) -> List[List[bool]]:
        """P x P boolean crossbar control matrix from a grant vector."""
        xbar = [[False] * num_ports for _ in range(num_ports)]
        for p, g in enumerate(grants):
            if g is not None:
                xbar[p][g[1]] = True
        return xbar

    # -- separable input-first -----------------------------------------
    def _allocate_sep_if(self, requests: SwitchRequests) -> SwitchGrants:
        P = self.num_ports
        grants: SwitchGrants = [None] * P

        # Stage 1: pick a winning VC at each input port.
        port_bid: List[Optional[Tuple[int, int]]] = [None] * P  # (vc, out port)
        for p in range(P):
            active = [q is not None for q in requests[p]]
            if not any(active):
                continue
            vc = self._vc_arbs[p].select(active)
            if vc is not None:
                out = requests[p][vc]
                assert out is not None
                port_bid[p] = (vc, out)

        # Stage 2: arbitrate among forwarded requests at each output port.
        for q in range(P):
            incoming = [port_bid[p] is not None and port_bid[p][1] == q for p in range(P)]
            if not any(incoming):
                continue
            winner = self._port_arbs[q].select(incoming)
            if winner is None:
                continue
            vc, _ = port_bid[winner]  # type: ignore[misc]
            grants[winner] = (vc, q)
            self._pending[winner] = (
                (self._vc_arbs[winner], vc),
                (self._port_arbs[q], winner),
            )
        return grants

    # -- separable output-first ------------------------------------------
    def _allocate_sep_of(self, requests: SwitchRequests) -> SwitchGrants:
        P = self.num_ports
        V = self.num_vcs
        grants: SwitchGrants = [None] * P
        port_req = port_request_matrix(requests, P)

        # Stage 1: each output port offers itself to one input port.
        offers: List[Optional[int]] = [None] * P
        for q in range(P):
            col = [row[q] for row in port_req]
            if any(col):
                offers[q] = self._port_arbs[q].select(col)

        # Stage 2: each input port arbitrates among VCs that can use a
        # granted output port.
        for p in range(P):
            granted_ports = {q for q in range(P) if offers[q] == p}
            if not granted_ports:
                continue
            eligible = [requests[p][v] in granted_ports for v in range(V)]
            if not any(eligible):
                continue
            vc = self._vc_arbs[p].select(eligible)
            if vc is None:
                continue
            out = requests[p][vc]
            assert out is not None
            grants[p] = (vc, out)
            self._pending[p] = (
                (self._vc_arbs[p], vc),
                (self._port_arbs[out], p),
            )
        return grants

    # -- wavefront -------------------------------------------------------
    def _allocate_wavefront(self, requests: SwitchRequests) -> SwitchGrants:
        P = self.num_ports
        V = self.num_vcs
        grants: SwitchGrants = [None] * P
        port_req = port_request_matrix(requests, P)
        assert self._wavefront is not None
        port_grants = self._wavefront.allocate(port_req)

        for p, row in enumerate(port_grants):
            if True not in row:
                continue
            q = row.index(True)  # a wavefront grants one output per row
            # Pre-selection: among VCs at p requesting q, pick one using
            # the per-port arbiter state (performed in parallel with the
            # wavefront in hardware).
            eligible = [requests[p][v] == q for v in range(V)]
            vc = self._vc_arbs[p].select(eligible)
            assert vc is not None  # port_req[p][q] implies an eligible VC
            grants[p] = (vc, q)
            self._pending[p] = ((self._vc_arbs[p], vc),)
        return grants
