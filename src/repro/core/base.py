"""Allocator base class and matching predicates.

An allocator computes a *matching* between ``num_requesters`` rows and
``num_resources`` columns of a boolean request matrix (Section 2 of the
paper): grants are a subset of requests with at most one grant per row
and at most one grant per column.

A matrix is any sequence of equal-length rows of truthy values (lists,
tuples, a 2-D ndarray); allocators hand back ``List[List[bool]]`` rows.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, List, Optional, Sequence, Tuple

__all__ = [
    "Allocator",
    "as_request_matrix",
    "is_matching",
    "is_maximal_matching",
    "matching_size",
]

#: A request or grant matrix: rows of truthy values.
Matrix = Sequence[Sequence[Any]]


def as_request_matrix(
    requests: Matrix, shape: Optional[Tuple[int, int]] = None
) -> List[List[bool]]:
    """Copy ``requests`` into rows of bools, validating its shape."""
    try:
        rows = [[bool(x) for x in row] for row in requests]
    except TypeError:
        raise ValueError("request matrix must be 2-D: a sequence of rows") from None
    widths = sorted({len(row) for row in rows})
    if len(widths) > 1:
        raise ValueError(f"request matrix rows differ in length: {widths}")
    got = (len(rows), widths[0] if widths else 0)
    if shape is not None and got != tuple(shape):
        raise ValueError(f"expected request matrix of shape {shape}, got {got}")
    return rows


def is_matching(requests: Matrix, grants: Matrix) -> bool:
    """Check the three matching constraints from Section 2.

    Grants must be a subset of requests, with at most one grant per
    requester (row) and per resource (column).
    """
    req = as_request_matrix(requests)
    gnt = as_request_matrix(grants, shape=(len(req), len(req[0]) if req else 0))
    for req_row, gnt_row in zip(req, gnt):
        if sum(gnt_row) > 1 or any(g and not r for r, g in zip(req_row, gnt_row)):
            return False
    return all(sum(col) <= 1 for col in zip(*gnt))


def is_maximal_matching(requests: Matrix, grants: Matrix) -> bool:
    """True if no further grant can be added without removing one.

    A matching is maximal iff every request lies in a granted row or a
    granted column (otherwise it could simply be added).
    """
    req = as_request_matrix(requests)
    gnt = as_request_matrix(grants, shape=(len(req), len(req[0]) if req else 0))
    if not is_matching(req, gnt):
        return False
    col_used = [any(col) for col in zip(*gnt)]
    return not any(
        r and not col_used[j]
        for req_row, gnt_row in zip(req, gnt) if not any(gnt_row)
        for j, r in enumerate(req_row)
    )


def matching_size(grants: Matrix) -> int:
    """Number of grants in a grant matrix."""
    return sum(1 for row in grants for g in row if g)


class Allocator(ABC):
    """Abstract allocator over an ``num_requesters x num_resources`` matrix.

    Subclasses implement :meth:`allocate`, which must return a valid
    matching (checked by the test suite, not at runtime, to keep the
    hot path cheap).  Allocators are stateful: successive calls update
    internal priority state to provide fairness, mirroring the RTL.
    """

    def __init__(self, num_requesters: int, num_resources: int) -> None:
        if num_requesters < 1 or num_resources < 1:
            raise ValueError("allocator dimensions must be >= 1")
        self.num_requesters = num_requesters
        self.num_resources = num_resources

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.num_requesters, self.num_resources)

    @abstractmethod
    def allocate(self, requests: Matrix) -> List[List[bool]]:
        """Compute a grant matrix for ``requests`` and update priorities."""

    @abstractmethod
    def reset(self) -> None:
        """Restore initial priority state."""

    def _validated(self, requests: Matrix) -> List[List[bool]]:
        return as_request_matrix(requests, shape=self.shape)

    def _no_grants(self) -> List[List[bool]]:
        return [[False] * self.num_resources for _ in range(self.num_requesters)]
