"""Iterative SLIP allocator (extension beyond the paper).

Section 2.1 notes that "multiple iterations can be performed to improve
matching quality" of separable allocators but that tight delay budgets
usually rule this out in NoCs.  This module implements iSLIP
[McKeown 1999], the canonical iterative separable allocator, so the
repository can *quantify* that remark: the ablation benchmarks measure
how many iterations it takes to close the matching-quality gap between
a one-pass separable allocator and the wavefront allocator.

Each iteration runs grant (resource-side) then accept (requester-side)
arbitration over the still-unmatched rows/columns; pointers advance only
for grants accepted in the first iteration, which is what gives iSLIP
its desynchronization and starvation-freedom properties.
"""

from __future__ import annotations

from typing import Callable, List

from .arbiters import Arbiter, RoundRobinArbiter
from .base import Allocator, Matrix

__all__ = ["IterativeSLIPAllocator"]


class IterativeSLIPAllocator(Allocator):
    """iSLIP with a configurable iteration count.

    Parameters
    ----------
    num_requesters, num_resources:
        Matrix dimensions.
    iterations:
        Number of grant/accept rounds (>= 1).  With enough iterations the
        matching becomes maximal.
    arbiter_factory:
        Pointer-arbiter constructor (round-robin per the original paper).
    """

    def __init__(
        self,
        num_requesters: int,
        num_resources: int,
        iterations: int = 1,
        arbiter_factory: Callable[[int], Arbiter] = RoundRobinArbiter,
    ) -> None:
        super().__init__(num_requesters, num_resources)
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations
        self._grant_arbs: List[Arbiter] = [
            arbiter_factory(num_requesters) for _ in range(num_resources)
        ]
        self._accept_arbs: List[Arbiter] = [
            arbiter_factory(num_resources) for _ in range(num_requesters)
        ]

    def reset(self) -> None:
        for arb in self._grant_arbs:
            arb.reset()
        for arb in self._accept_arbs:
            arb.reset()

    def allocate(self, requests: Matrix) -> List[List[bool]]:
        req = self._validated(requests)
        m, n = self.shape
        grants = self._no_grants()
        row_free = [True] * m
        col_free = [True] * n

        for iteration in range(self.iterations):
            # Grant phase: every unmatched resource offers to one
            # unmatched requester from its column.
            offers = [-1] * n
            for j in range(n):
                if not col_free[j]:
                    continue
                col = [req[i][j] and row_free[i] for i in range(m)]
                if not any(col):
                    continue
                winner = self._grant_arbs[j].select(col)
                if winner is not None:
                    offers[j] = winner

            # Accept phase: every requester with offers accepts one.
            progressed = False
            for i in range(m):
                if not row_free[i]:
                    continue
                offered = [offers[j] == i for j in range(n)]
                if not any(offered):
                    continue
                choice = self._accept_arbs[i].select(offered)
                if choice is None:
                    continue
                grants[i][choice] = True
                row_free[i] = False
                col_free[choice] = False
                progressed = True
                # Pointers advance only on first-iteration accepts.
                if iteration == 0:
                    self._grant_arbs[choice].advance(i)
                    self._accept_arbs[i].advance(choice)
            if not progressed:
                break
        return grants
