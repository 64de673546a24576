"""Speculative switch allocation (Section 5.2, Figure 9).

Speculation lets head flits bid for crossbar access in the same cycle
they request an output VC, hiding the VC allocation stage at low load.
Two separate switch allocators handle non-speculative requests (flits
already holding an output VC) and speculative requests (head flits
still waiting for one); non-speculative traffic must win any conflict.

Two masking schemes are modelled:

* ``conventional`` (the paper's ``spec_gnt``, Figure 9a, after Peh &
  Dally): a speculative grant is discarded if any non-speculative
  *grant* uses the same input or output port.  Exact, but the grant
  reduction ORs + NOR + AND extend the allocator's critical path.
* ``pessimistic`` (the paper's ``spec_req``, Figure 9b, this paper's
  proposal): a speculative grant is discarded if any non-speculative
  *request* uses the same input or output port.  Requests are available
  before allocation starts, so the reduction happens in parallel with
  allocation and only a final AND remains on the critical path -- at the
  price of discarding some viable speculative grants near saturation
  (a non-speculative request that ultimately *lost* still masks).

``scheme="nonspec"`` disables speculation altogether (the baseline of
Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..allocator_names import SPECULATION_SCHEMES
from .switch_allocator import SwitchAllocator, SwitchGrants, SwitchRequests

__all__ = ["SpeculativeSwitchAllocator", "SpeculativeGrants", "SPECULATION_SCHEMES"]


@dataclass
class SpeculativeGrants:
    """Outcome of one speculative switch allocation cycle.

    ``nonspec`` and ``spec`` each hold, per input port, the winning
    ``(vc, output_port)`` or ``None``.  The two never conflict on an
    input or output port.  ``spec_discarded`` counts speculative grants
    that were produced by the speculative allocator but masked -- the
    misspeculation statistic used by the ablation benchmarks.
    """

    nonspec: SwitchGrants
    spec: SwitchGrants
    spec_discarded: int = 0

    def combined(self) -> SwitchGrants:
        """Merged grant vector (non-speculative wins are already disjoint)."""
        return [ns if ns is not None else sp for ns, sp in zip(self.nonspec, self.spec)]

    def grant_counts(self) -> Tuple[int, int]:
        """(non-speculative, surviving speculative) grant counts -- the
        per-cycle numerators for switch-matching-efficiency metrics."""
        return (
            sum(1 for g in self.nonspec if g is not None),
            sum(1 for g in self.spec if g is not None),
        )


class SpeculativeSwitchAllocator:
    """Two-allocator speculative switch allocation.

    Parameters
    ----------
    num_ports, num_vcs:
        Router dimensions.
    arch, arbiter:
        Architecture/arbiter of both underlying allocators (they are
        assumed identical, as in the paper's implementation).
    scheme:
        ``"nonspec"``, ``"conventional"`` or ``"pessimistic"``.
    """

    def __init__(
        self,
        num_ports: int,
        num_vcs: int,
        arch: str = "sep_if",
        arbiter: str = "rr",
        scheme: str = "pessimistic",
    ) -> None:
        if scheme not in SPECULATION_SCHEMES:
            raise ValueError(f"unknown speculation scheme {scheme!r}")
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self.scheme = scheme
        self.arch = arch
        self._nonspec_alloc = SwitchAllocator(num_ports, num_vcs, arch, arbiter)
        if scheme == "nonspec":
            self._spec_alloc: Optional[SwitchAllocator] = None
        else:
            self._spec_alloc = SwitchAllocator(num_ports, num_vcs, arch, arbiter)
        self._empty_grants: SwitchGrants = [None] * num_ports
        # Shadow the forwarding method with the bound target: the
        # uncontested fast path calls this once per conflict-free
        # router cycle, and the extra frame is pure overhead.
        self.grant_uncontested = self._nonspec_alloc.grant_uncontested

    @property
    def check_requests(self) -> bool:
        """Request validation flag, forwarded to both allocator cores."""
        return self._nonspec_alloc.check_requests

    @check_requests.setter
    def check_requests(self, value: bool) -> None:
        self._nonspec_alloc.check_requests = value
        if self._spec_alloc is not None:
            self._spec_alloc.check_requests = value

    @property
    def fault_mask(self) -> Optional[set]:
        """Blocked-output-port mask, forwarded to both allocator cores
        (see :attr:`SwitchAllocator.fault_mask`)."""
        return self._nonspec_alloc.fault_mask

    @fault_mask.setter
    def fault_mask(self, value: Optional[set]) -> None:
        self._nonspec_alloc.fault_mask = value
        if self._spec_alloc is not None:
            self._spec_alloc.fault_mask = value

    def reset(self) -> None:
        self._nonspec_alloc.reset()
        if self._spec_alloc is not None:
            self._spec_alloc.reset()

    # ------------------------------------------------------------------
    def allocate(
        self,
        nonspec_requests: SwitchRequests,
        spec_requests: SwitchRequests,
        any_nonspec: Optional[bool] = None,
        any_spec: Optional[bool] = None,
    ) -> SpeculativeGrants:
        """Run both allocators and apply the masking scheme.

        ``nonspec_requests`` come from VCs that hold an output VC;
        ``spec_requests`` from head flits concurrently bidding in VC
        allocation.  A given (port, vc) slot should appear in at most
        one of the two (the router guarantees this by construction).

        ``any_nonspec`` / ``any_spec`` are optional caller-provided
        hints ("this side has at least one request"); an empty side
        skips its allocator core entirely, which matters on the network
        simulator's per-router per-cycle hot path.
        """
        if any_nonspec is None:
            any_nonspec = any(
                q is not None for row in nonspec_requests for q in row
            )
        if any_spec is None:
            any_spec = any(q is not None for row in spec_requests for q in row)

        if any_nonspec:
            ns_grants = self._nonspec_alloc.allocate(nonspec_requests)
        else:
            ns_grants = list(self._empty_grants)
        if self._spec_alloc is None or not any_spec:
            return SpeculativeGrants(ns_grants, list(self._empty_grants))

        # Stage the speculative core's arbiter updates: a speculative
        # grant that the masking stage discards never took effect, so
        # under the update-on-success rule it must not advance the
        # round-robin pointers / matrix state of the speculative
        # allocator.  (The wavefront core's priority diagonal still
        # rotates per *allocation*, not per surviving grant, matching
        # the paper's weak-fairness rule.)
        sp_grants = self._spec_alloc.allocate(spec_requests, commit=False)

        if self.scheme == "conventional":
            in_busy, out_busy = self._grant_summary(ns_grants)
        else:  # pessimistic
            in_busy, out_busy = self._request_summary(nonspec_requests)

        masked: SwitchGrants = [None] * self.num_ports
        discarded = 0
        survivors: List[int] = []
        for p, g in enumerate(sp_grants):
            if g is None:
                continue
            _, q = g
            if in_busy[p] or out_busy[q]:
                discarded += 1
            else:
                masked[p] = g
                survivors.append(p)
        self._spec_alloc.commit(survivors)
        return SpeculativeGrants(ns_grants, masked, discarded)

    # ------------------------------------------------------------------
    def grant_uncontested(self, items: Sequence[Tuple[int, int, int]]) -> None:
        """Uncontested-cycle commit, forwarded to the non-speculative
        core (see :meth:`SwitchAllocator.grant_uncontested`).

        Cycles eligible for this path have no speculative requests by
        definition, so the speculative core's state is untouched --
        exactly what :meth:`allocate_sparse` does with empty
        ``sp_items``.
        """
        self._nonspec_alloc.grant_uncontested(items)

    # ------------------------------------------------------------------
    def allocate_sparse(
        self,
        ns_items: Sequence[Tuple[int, int, int]],
        sp_items: Sequence[Tuple[int, int, int]],
    ) -> SpeculativeGrants:
        """Hot-path :meth:`allocate` over sparse requests.

        ``ns_items`` / ``sp_items`` list the active requests as
        ``(input_port, vc, output_port)`` triples, ascending by
        ``(input_port, vc)`` (see
        :meth:`repro.core.switch_allocator.SwitchAllocator.allocate_sparse`).
        Grants, misspeculation accounting and arbiter updates are
        identical to the dense path.
        """
        if ns_items:
            ns_grants = self._nonspec_alloc.allocate_sparse(ns_items)
        else:
            ns_grants = list(self._empty_grants)
        if self._spec_alloc is None or not sp_items:
            return SpeculativeGrants(ns_grants, list(self._empty_grants))

        if not ns_items:
            # No non-speculative requests: neither masking scheme can
            # discard anything (pessimistic masks on requests,
            # conventional on grants -- both empty here), so every
            # speculative grant survives and the arbiter updates commit
            # inline instead of staging + commit-all.
            sp_grants = self._spec_alloc.allocate_sparse(sp_items)
            return SpeculativeGrants(ns_grants, sp_grants, 0)

        sp_grants = self._spec_alloc.allocate_sparse(sp_items, commit=False)

        if self.scheme == "conventional":
            in_busy, out_busy = self._grant_summary(ns_grants)
        else:  # pessimistic: busy bits straight from the request triples
            in_busy = [False] * self.num_ports
            out_busy = [False] * self.num_ports
            for p, _v, q in ns_items:
                in_busy[p] = True
                out_busy[q] = True

        masked: SwitchGrants = [None] * self.num_ports
        discarded = 0
        survivors: List[int] = []
        for p, g in enumerate(sp_grants):
            if g is None:
                continue
            _, q = g
            if in_busy[p] or out_busy[q]:
                discarded += 1
            else:
                masked[p] = g
                survivors.append(p)
        self._spec_alloc.commit(survivors)
        return SpeculativeGrants(ns_grants, masked, discarded)

    # ------------------------------------------------------------------
    def _grant_summary(self, grants: SwitchGrants) -> Tuple[List[bool], List[bool]]:
        """Row/column busy bits from non-speculative *grants* (Fig 9a)."""
        in_busy = [False] * self.num_ports
        out_busy = [False] * self.num_ports
        for p, g in enumerate(grants):
            if g is not None:
                in_busy[p] = True
                out_busy[g[1]] = True
        return in_busy, out_busy

    def _request_summary(
        self, requests: SwitchRequests
    ) -> Tuple[List[bool], List[bool]]:
        """Row/column busy bits from non-speculative *requests* (Fig 9b)."""
        in_busy = [False] * self.num_ports
        out_busy = [False] * self.num_ports
        for p, vc_reqs in enumerate(requests):
            for q in vc_reqs:
                if q is not None:
                    in_busy[p] = True
                    out_busy[q] = True
        return in_busy, out_busy
