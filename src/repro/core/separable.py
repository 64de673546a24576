"""Separable allocators (Section 2.1, Figure 1).

A separable allocator decomposes allocation into independent arbitration
across requesters and across resources:

* *input-first* (``sep_if``): each requester first picks one resource to
  bid on, then each resource arbitrates among the incoming bids.
* *output-first* (``sep_of``): each resource first picks a winner among
  all requests in its column, then each requester arbitrates among the
  resources that picked it.

Neither variant is guaranteed to produce a maximal matching.  Priority
state in the *first* arbitration stage is only advanced when the grant
also survives the second stage, and vice versa -- concretely, an
arbiter's priority is advanced exactly when its selected winner is part
of the final matching (the iSLIP update rule the paper adopts to avoid
traffic-pattern-dependent starvation).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .arbiters import Arbiter, RoundRobinArbiter
from .base import Allocator, Matrix

__all__ = [
    "SeparableAllocator",
    "SeparableInputFirstAllocator",
    "SeparableOutputFirstAllocator",
]

ArbiterFactory = Callable[[int], Arbiter]


class SeparableAllocator(Allocator):
    """Common state for the two separable variants.

    Parameters
    ----------
    num_requesters, num_resources:
        Matrix dimensions.
    arbiter_factory:
        Callable ``n -> Arbiter`` used for both stages (default:
        round-robin, the paper's ``rr`` variants).
    """

    def __init__(
        self,
        num_requesters: int,
        num_resources: int,
        arbiter_factory: ArbiterFactory = RoundRobinArbiter,
    ) -> None:
        super().__init__(num_requesters, num_resources)
        self._row_arbs: List[Arbiter] = [
            arbiter_factory(num_resources) for _ in range(num_requesters)
        ]
        self._col_arbs: List[Arbiter] = [
            arbiter_factory(num_requesters) for _ in range(num_resources)
        ]
        # Arbiter advances staged by the most recent
        # ``allocate(..., commit=False)`` call, keyed by requester row.
        self._pending: Dict[int, Tuple[Tuple[Arbiter, int], ...]] = {}

    def reset(self) -> None:
        for arb in self._row_arbs:
            arb.reset()
        for arb in self._col_arbs:
            arb.reset()
        self._pending.clear()

    def _commit_all(self) -> None:
        for advances in self._pending.values():
            for arb, winner in advances:
                arb.advance(winner)
        self._pending.clear()

    def commit(self, rows: Iterable[int]) -> None:
        """Apply staged priority updates for the surviving grants only.

        Mirrors :meth:`repro.core.switch_allocator.SwitchAllocator.commit`:
        after an ``allocate(..., commit=False)`` call, ``rows`` names the
        requester rows whose grants were actually used; every other
        staged update is discarded, leaving those arbiters' priority
        state untouched (update-on-success).
        """
        pending = self._pending
        for i in rows:
            for arb, winner in pending.pop(i, ()):
                arb.advance(winner)
        pending.clear()


class SeparableInputFirstAllocator(SeparableAllocator):
    """``sep_if``: requester-side arbitration, then resource-side."""

    def allocate(self, requests: Matrix, commit: bool = True) -> List[List[bool]]:
        req = self._validated(requests)
        m, n = self.shape
        grants = self._no_grants()
        self._pending = {}

        # Stage 1: each requester selects a single resource to bid on.
        bids: List[Optional[int]] = [None] * m
        for i in range(m):
            row = req[i]
            if any(row):
                bids[i] = self._row_arbs[i].select(row)

        # Stage 2: each resource arbitrates among incoming bids.
        for j in range(n):
            incoming = [bids[i] == j for i in range(m)]
            if not any(incoming):
                continue
            winner = self._col_arbs[j].select(incoming)
            if winner is None:
                continue
            grants[winner][j] = True
            # Both stages succeeded for this (winner, j) pair.
            self._pending[winner] = (
                (self._row_arbs[winner], j),
                (self._col_arbs[j], winner),
            )
        if commit:
            self._commit_all()
        return grants


class SeparableOutputFirstAllocator(SeparableAllocator):
    """``sep_of``: resource-side arbitration, then requester-side."""

    def allocate(self, requests: Matrix, commit: bool = True) -> List[List[bool]]:
        req = self._validated(requests)
        m, n = self.shape
        grants = self._no_grants()
        self._pending = {}

        # Stage 1: each resource picks a winner among its column.
        offers: List[Optional[int]] = [None] * n
        for j in range(n):
            col = [row[j] for row in req]
            if any(col):
                offers[j] = self._col_arbs[j].select(col)

        # Stage 2: each requester picks among the resources offered to it.
        for i in range(m):
            offered = [offers[j] == i for j in range(n)]
            if not any(offered):
                continue
            choice = self._row_arbs[i].select(offered)
            if choice is None:
                continue
            grants[i][choice] = True
            self._pending[i] = (
                (self._row_arbs[i], choice),
                (self._col_arbs[choice], i),
            )
        if commit:
            self._commit_all()
        return grants
