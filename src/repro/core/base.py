"""Allocator base class and matching predicates.

An allocator computes a *matching* between ``num_requesters`` rows and
``num_resources`` columns of a boolean request matrix (Section 2 of the
paper): grants are a subset of requests with at most one grant per row
and at most one grant per column.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np
    from numpy.typing import ArrayLike

__all__ = [
    "Allocator",
    "as_request_matrix",
    "is_matching",
    "is_maximal_matching",
    "matching_size",
]


def as_request_matrix(
    requests: ArrayLike, shape: Optional[Tuple[int, int]] = None
) -> np.ndarray:
    """Coerce ``requests`` into a 2-D boolean ndarray, validating shape."""
    import numpy as np
    mat = np.asarray(requests, dtype=bool)
    if mat.ndim != 2:
        raise ValueError(f"request matrix must be 2-D, got shape {mat.shape}")
    if shape is not None and mat.shape != tuple(shape):
        raise ValueError(f"expected request matrix of shape {shape}, got {mat.shape}")
    return mat


def is_matching(requests: np.ndarray, grants: np.ndarray) -> bool:
    """Check the three matching constraints from Section 2.

    Grants must be a subset of requests, with at most one grant per
    requester (row) and per resource (column).
    """
    req = as_request_matrix(requests)
    gnt = as_request_matrix(grants, shape=req.shape)
    if (gnt & ~req).any():
        return False
    if (gnt.sum(axis=1) > 1).any():
        return False
    if (gnt.sum(axis=0) > 1).any():
        return False
    return True


def is_maximal_matching(requests: np.ndarray, grants: np.ndarray) -> bool:
    """True if no further grant can be added without removing one.

    A matching is maximal iff every request lies in a granted row or a
    granted column (otherwise it could simply be added).
    """
    req = as_request_matrix(requests)
    gnt = as_request_matrix(grants, shape=req.shape)
    if not is_matching(req, gnt):
        return False
    row_used = gnt.any(axis=1)
    col_used = gnt.any(axis=0)
    blocked = row_used[:, None] | col_used[None, :]
    return not (req & ~blocked).any()


def matching_size(grants: np.ndarray) -> int:
    """Number of grants in a grant matrix."""
    import numpy as np
    return int(np.count_nonzero(np.asarray(grants, dtype=bool)))


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
    def allocate(self, requests: np.ndarray) -> np.ndarray:
        """Compute a grant matrix for ``requests`` and update priorities."""

    @abstractmethod
    def reset(self) -> None:
        """Restore initial priority state."""

    def _validated(self, requests: ArrayLike) -> np.ndarray:
        return as_request_matrix(requests, shape=self.shape)
