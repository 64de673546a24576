"""VC allocator front-ends (Section 4.1, Figure 3).

The VC allocator matches ``P*V`` input VCs (requesters) to ``P*V``
output VCs (resources), subject to the constraint that all output VCs
requested by one input VC sit at the single output port chosen by the
routing function.

Three architectures are provided, mirroring Figure 3:

* ``sep_if`` -- each input VC first picks one candidate output VC
  (V-input arbiter), then each output VC arbitrates among incoming
  bids with a ``P*V``-input tree arbiter;
* ``sep_of`` -- each input VC bids on all candidates, each output VC
  arbitrates (``P*V``-input), then each input VC picks among the output
  VCs that granted it (V-input arbiter);
* ``wf`` -- a ``P*V x P*V`` wavefront allocator over the full request
  matrix.

With ``sparse=True`` the allocator enforces (and, in the hardware model,
exploits) the static VC-transition restrictions of Section 4.2; under
sparse operation the wavefront implementation is split into ``M``
independent per-message-class blocks.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..allocator_names import VC_ALLOCATOR_ARCHS
from .arbiters import Arbiter, TreeArbiter, make_arbiter
from .vc_partition import VCPartition
from .wavefront import WavefrontAllocator

__all__ = ["VCRequest", "VCAllocator", "VC_ALLOCATOR_ARCHS"]


class VCRequest(NamedTuple):
    """A head flit's VC allocation request.

    Attributes
    ----------
    output_port:
        Output port selected by the routing function.
    candidate_vcs:
        VC indices (``0..V-1``) at ``output_port`` the flit may use; all
        candidates belong to the packet's message class and to legal
        successor resource classes.
    """

    output_port: int
    candidate_vcs: Tuple[int, ...]


class VCAllocator:
    """Matches input VCs to output VCs once per packet.

    Parameters
    ----------
    num_ports:
        Router radix ``P``.
    partition:
        :class:`VCPartition` describing the VC space (``V`` is derived).
    arch:
        ``"sep_if"``, ``"sep_of"`` or ``"wf"``.
    arbiter:
        ``"rr"`` or ``"m"`` for the separable variants; the wavefront
        variant only uses (round-robin) arbiters for pre-selection and
        ignores this argument's ``"m"`` setting per Section 4.3.1.
    sparse:
        Enforce the static transition restrictions of Section 4.2.  The
        behavioural matching is identical for legal request streams; the
        flag gates request legality checks and selects the partitioned
        wavefront implementation.
    """

    def __init__(
        self,
        num_ports: int,
        partition: VCPartition,
        arch: str = "sep_if",
        arbiter: str = "rr",
        sparse: bool = True,
    ) -> None:
        if num_ports < 1:
            raise ValueError("num_ports must be >= 1")
        if arch not in VC_ALLOCATOR_ARCHS:
            raise ValueError(f"unknown VC allocator arch {arch!r}")
        self.num_ports = num_ports
        self.partition = partition
        self.num_vcs = partition.num_vcs
        self.arch = arch
        self.arbiter_kind = arbiter
        self.sparse = sparse
        #: Validate requests on every allocate() call.  The network
        #: simulator disables this on its per-cycle hot path; the
        #: request streams it produces are validated by construction.
        self.check_requests = True
        #: Optional fault mask: flat output-VC indices (``port * V +
        #: vc``) that must never be granted (stuck-at VCs, see
        #: :mod:`repro.faults`).  ``None`` -- the default and the only
        #: value in fault-free operation -- adds a single identity check
        #: per allocate() call.
        self.fault_mask: Optional[frozenset] = None
        n = num_ports * self.num_vcs
        self._n = n

        if arch in ("sep_if", "sep_of"):
            # One V-input arbiter per input VC (stage 1 for sep_if,
            # stage 2 for sep_of) ...
            self._input_arbs: List[Arbiter] = [
                make_arbiter(arbiter, self.num_vcs) for _ in range(n)
            ]
            # ... and one P*V-input tree arbiter per output VC.
            self._output_arbs: List[Arbiter] = [
                TreeArbiter(num_ports, self.num_vcs, lambda k: make_arbiter(arbiter, k))
                for _ in range(n)
            ]
            self._wavefronts: List[WavefrontAllocator] = []
        else:
            self._input_arbs = []
            self._output_arbs = []
            if sparse and partition.num_message_classes > 1:
                block = (
                    num_ports
                    * partition.num_resource_classes
                    * partition.vcs_per_class
                )
                self._wavefronts = [
                    WavefrontAllocator(block, block)
                    for _ in range(partition.num_message_classes)
                ]
                self._wf_block_rows = [
                    self._message_class_rows(m)
                    for m in range(partition.num_message_classes)
                ]
            else:
                self._wavefronts = [WavefrontAllocator(n, n)]
                self._wf_block_rows = [list(range(n))]
            # flat VC index -> (block index, block-local index): feeds
            # each wavefront block its own cells directly instead of
            # materialising the n x n request matrix.
            self._wf_local: List[Optional[Tuple[int, int]]] = [None] * n
            for b, rows in enumerate(self._wf_block_rows):
                for a, flat in enumerate(rows):
                    self._wf_local[flat] = (b, a)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore all arbiters/wavefront diagonals to their initial state."""
        for arb in self._input_arbs:
            arb.reset()
        for arb in self._output_arbs:
            arb.reset()
        for wf in self._wavefronts:
            wf.reset()

    # ------------------------------------------------------------------
    def _flat(self, port: int, vc: int) -> int:
        return port * self.num_vcs + vc

    def _validate(self, requests: Sequence[Optional[VCRequest]]) -> None:
        if len(requests) != self._n:
            raise ValueError(
                f"expected {self._n} request slots (P*V), got {len(requests)}"
            )
        for idx, req in enumerate(requests):
            if req is None:
                continue
            if not 0 <= req.output_port < self.num_ports:
                raise ValueError(f"request {idx}: output port out of range")
            if not req.candidate_vcs:
                raise ValueError(f"request {idx}: empty candidate set")
            vc_in = idx % self.num_vcs
            for cand in req.candidate_vcs:
                if not 0 <= cand < self.num_vcs:
                    raise ValueError(f"request {idx}: candidate VC out of range")
                if self.sparse and not self.partition.legal_transition(vc_in, cand):
                    raise ValueError(
                        f"request {idx}: transition VC {vc_in} -> VC {cand} is "
                        "illegal under the sparse VC partition"
                    )

    # ------------------------------------------------------------------
    def allocate(
        self, requests: Sequence[Optional[VCRequest]]
    ) -> List[Optional[Tuple[int, int]]]:
        """Allocate output VCs for one cycle of requests.

        Parameters
        ----------
        requests:
            One entry per input VC in flat order (``port * V + vc``);
            ``None`` where no head flit is waiting.

        Returns
        -------
        list of (output_port, output_vc) or None per input VC.
        """
        if self.check_requests:
            self._validate(requests)
        elif len(requests) != self._n:
            raise ValueError(
                f"expected {self._n} request slots (P*V), got {len(requests)}"
            )
        if self.fault_mask is not None:
            requests = self._mask_requests(requests)
        if self.arch == "sep_if":
            return self._allocate_sep_if(requests)
        if self.arch == "sep_of":
            return self._allocate_sep_of(requests)
        return self._allocate_wavefront(requests)

    def _mask_requests(
        self, requests: Sequence[Optional[VCRequest]]
    ) -> List[Optional[VCRequest]]:
        """Strip fault-masked output VCs from every candidate set.

        A request whose candidates are all masked becomes ``None`` --
        the head flit simply keeps waiting, exactly as if the VCs were
        held by other packets.
        """
        mask = self.fault_mask
        V = self.num_vcs
        out: List[Optional[VCRequest]] = list(requests)
        for i, req in enumerate(requests):
            if req is None:
                continue
            base = req.output_port * V
            survivors = tuple(
                u for u in req.candidate_vcs if base + u not in mask
            )
            if len(survivors) != len(req.candidate_vcs):
                out[i] = (
                    VCRequest(req.output_port, survivors) if survivors else None
                )
        return out

    # -- separable input-first -----------------------------------------
    def _allocate_sep_if(
        self, requests: Sequence[Optional[VCRequest]]
    ) -> List[Optional[Tuple[int, int]]]:
        n = self._n
        V = self.num_vcs
        grants: List[Optional[Tuple[int, int]]] = [None] * n

        # Stage 1: each input VC picks one candidate output VC to bid on.
        bids: List[Optional[int]] = [None] * n  # flat output VC index
        for i, req in enumerate(requests):
            if req is None:
                continue
            mask = [False] * V
            for cand in req.candidate_vcs:
                mask[cand] = True
            choice = self._input_arbs[i].select(mask)
            if choice is not None:
                bids[i] = self._flat(req.output_port, choice)

        # Stage 2: each output VC with bids arbitrates among them.
        bidders: dict = {}
        for i, b in enumerate(bids):
            if b is not None:
                bidders.setdefault(b, []).append(i)
        for out, who in bidders.items():
            incoming = [False] * n
            for i in who:
                incoming[i] = True
            winner = self._output_arbs[out].select(incoming)
            if winner is None:
                continue
            port, vc = divmod(out, V)
            grants[winner] = (port, vc)
            self._input_arbs[winner].advance(vc)
            self._output_arbs[out].advance(winner)
        return grants

    # -- separable output-first ------------------------------------------
    def _allocate_sep_of(
        self, requests: Sequence[Optional[VCRequest]]
    ) -> List[Optional[Tuple[int, int]]]:
        n = self._n
        V = self.num_vcs
        grants: List[Optional[Tuple[int, int]]] = [None] * n

        # Expand: which input VCs request each output VC?
        requested_by: dict = {}
        for i, req in enumerate(requests):
            if req is None:
                continue
            base = req.output_port * V
            for cand in req.candidate_vcs:
                requested_by.setdefault(base + cand, []).append(i)

        # Stage 1: each requested output VC offers itself to one input VC.
        offers: List[Optional[int]] = [None] * n
        for out, who in requested_by.items():
            col = [False] * n
            for i in who:
                col[i] = True
            offers[out] = self._output_arbs[out].select(col)

        # Stage 2: each input VC picks among the output VCs offered to it.
        for i, req in enumerate(requests):
            if req is None:
                continue
            offered_mask = [False] * V
            offered_any = False
            base = req.output_port * V
            for cand in req.candidate_vcs:
                if offers[base + cand] == i:
                    offered_mask[cand] = True
                    offered_any = True
            if not offered_any:
                continue
            choice = self._input_arbs[i].select(offered_mask)
            if choice is None:
                continue
            grants[i] = (req.output_port, choice)
            self._input_arbs[i].advance(choice)
            self._output_arbs[base + choice].advance(i)
        return grants

    # -- wavefront -------------------------------------------------------
    def _message_class_rows(self, message_class: int) -> List[int]:
        """Flat input/output VC indices belonging to one message class."""
        part = self.partition
        rows: List[int] = []
        for port in range(self.num_ports):
            for r in range(part.num_resource_classes):
                for vc in part.class_vcs(message_class, r):
                    rows.append(self._flat(port, vc))
        return rows

    def _allocate_wavefront(
        self, requests: Sequence[Optional[VCRequest]]
    ) -> List[Optional[Tuple[int, int]]]:
        """Fill each (per-message-class) wavefront block's request matrix
        and sweep it; returns flat per-input-VC grants.  A cell whose
        output VC lies in another block than its input VC is ignored."""
        V = self.num_vcs
        wf_local = self._wf_local
        blocks = [[[False] * len(rows) for _ in rows] for rows in self._wf_block_rows]
        for i, req in enumerate(requests):
            if req is None:
                continue
            b, a = wf_local[i]
            row = blocks[b][a]
            base = req.output_port * V
            for cand in req.candidate_vcs:
                b_out, c = wf_local[base + cand]
                if b_out == b:
                    row[c] = True

        grants: List[Optional[Tuple[int, int]]] = [None] * self._n
        for wf, rows, sub in zip(self._wavefronts, self._wf_block_rows, blocks):
            if not any(map(any, sub)):
                continue
            for a, granted in enumerate(wf.allocate(sub)):
                if True in granted:
                    grants[rows[a]] = divmod(rows[granted.index(True)], V)
        return grants
