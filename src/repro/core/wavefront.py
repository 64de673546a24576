"""Wavefront allocator (Section 2.2, Figure 2).

The wavefront allocator views the request matrix as a grid and sweeps
priority diagonals: all requests on the active diagonal are granted
(cells on one diagonal never share a row or a column), granted rows and
columns are knocked out, and the wave proceeds to the next diagonal,
wrapping around, until all diagonals have been serviced.  Because every
cell is considered exactly once against the current row/column
availability, the result is always a *maximal* matching -- though not
necessarily a *maximum* one.

Weak fairness is obtained by rotating the starting diagonal after every
allocation; the paper notes no stronger guarantee exists.  "After every
allocation" is literal: a cycle in which the request matrix is empty
performs no allocation, so the priority diagonal holds (both here and
in the gate-level model, whose pointer ring is enable-gated on the
request OR).
"""

from __future__ import annotations

from typing import List

from .base import Allocator, Matrix

__all__ = ["WavefrontAllocator"]


class WavefrontAllocator(Allocator):
    """Maximal-matching allocator with rotating priority diagonal.

    Rectangular matrices are handled by conceptually padding to an
    ``s x s`` square with ``s = max(m, n)``; padded cells never hold
    requests so they simply burn diagonal slots, matching how a
    hardware implementation would tie off unused tile inputs.

    Parameters
    ----------
    num_requesters, num_resources:
        Matrix dimensions.
    rotate_priority:
        If ``False`` the starting diagonal is fixed at 0 (used by the
        fairness ablation); the paper's implementation rotates.
    """

    def __init__(
        self,
        num_requesters: int,
        num_resources: int,
        rotate_priority: bool = True,
    ) -> None:
        super().__init__(num_requesters, num_resources)
        self._size = max(num_requesters, num_resources)
        self._diagonal = 0
        self.rotate_priority = rotate_priority

    @property
    def priority_diagonal(self) -> int:
        """Diagonal that receives priority on the next allocation."""
        return self._diagonal

    def reset(self) -> None:
        self._diagonal = 0

    def set_diagonal(self, diagonal: int) -> None:
        """Force the priority diagonal (verification oracle entry point).

        Lets :mod:`repro.verify` enumerate every reachable priority
        state and treat :meth:`allocate` as a pure function of
        ``(state, requests)``; never used on simulation paths.
        """
        if not 0 <= diagonal < self._size:
            raise ValueError(
                f"diagonal {diagonal} out of range [0, {self._size})"
            )
        self._diagonal = diagonal

    def allocate(self, requests: Matrix) -> List[List[bool]]:
        req = self._validated(requests)
        m, n = self.shape
        s = self._size
        grants = self._no_grants()

        # Equivalent to sweeping diagonals (start, start+1, ...) of the
        # padded s x s grid and granting conflict-free requests: sort
        # requests by their wave index (diagonal distance from the
        # priority diagonal) and grant greedily.  Cells sharing a wave
        # index never share a row or column, so intra-diagonal order is
        # irrelevant; sorting costs O(R log R) in the number of requests
        # rather than O(s^2), which matters in the network simulator
        # where request matrices are large but sparse.
        start = self._diagonal
        cells = [(i, j) for i, row in enumerate(req) for j, r in enumerate(row) if r]
        if cells:
            row_free = [True] * m
            col_free = [True] * n
            for i, j in sorted(cells, key=lambda ij: (ij[0] + ij[1] - start) % s):
                if row_free[i] and col_free[j]:
                    grants[i][j] = True
                    row_free[i] = False
                    col_free[j] = False
            # Rotate only when an allocation actually occurred (a
            # non-empty request matrix always yields >= 1 grant): the
            # paper's weak-fairness rule is "rotate after every
            # *allocation*", so idle cycles must not advance the
            # priority diagonal -- neither here nor in the
            # ``rotate_priority=False`` ablation's fixed-diagonal
            # baseline, which would otherwise differ from this
            # implementation even on all-idle traffic.
            if self.rotate_priority:
                self._diagonal = (self._diagonal + 1) % s
        return grants
