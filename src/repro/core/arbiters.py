"""Arbiter primitives used by separable allocators.

An arbiter selects a single winner among a set of simultaneous requests.
The paper (Section 2.1) builds separable allocators from two stages of
arbiters and requires that an arbiter's priority state only be updated
when the grant it produces is also successful in the *other* arbitration
stage (the iSLIP-style "update on success" rule [McKeown 1999]).  To
support that, every arbiter exposes a pure :meth:`Arbiter.select` (no
state change) and an explicit :meth:`Arbiter.advance` that commits the
priority update for a given winner.

Three arbiter families from the paper are provided:

* :class:`FixedPriorityArbiter` -- lowest index wins; the building block
  for the others and the behavioural model of a priority/prefix network.
* :class:`RoundRobinArbiter` -- rotating priority pointer (``rr`` in the
  paper's figures); cheap, weakly fair.
* :class:`MatrixArbiter` -- least-recently-served via an NxN priority
  matrix (``m`` in the paper's figures); strongly fair, O(n^2) state.
* :class:`TreeArbiter` -- a two-level arbiter (a stage of group arbiters
  in parallel with a top-level arbiter across groups) used for the wide
  P*V-input arbitration in VC allocators (Section 4.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Type

from ..allocator_names import ARBITER_KINDS

__all__ = [
    "Arbiter",
    "FixedPriorityArbiter",
    "RoundRobinArbiter",
    "MatrixArbiter",
    "TreeArbiter",
    "make_arbiter",
]


class Arbiter(ABC):
    """Abstract n-input single-winner arbiter.

    Parameters
    ----------
    num_inputs:
        Number of request inputs (``n >= 1``).

    Arbiters are slotted (``abc.ABC`` declares ``__slots__ = ()``): a
    fabric builds tens of thousands of them, and a round-robin arbiter
    without a ``__dict__`` is 48 bytes instead of 88.
    """

    __slots__ = ("num_inputs",)

    def __init__(self, num_inputs: int) -> None:
        if num_inputs < 1:
            raise ValueError(f"arbiter needs >= 1 input, got {num_inputs}")
        self.num_inputs = num_inputs

    @abstractmethod
    def select(self, requests: Sequence[bool]) -> Optional[int]:
        """Return the winning input index for ``requests``, or ``None``.

        Pure function of the current priority state; does not modify it.
        """

    @abstractmethod
    def advance(self, winner: int) -> None:
        """Commit the priority update for a successful grant to ``winner``."""

    @abstractmethod
    def reset(self) -> None:
        """Restore the initial priority state."""

    def select_sparse(self, indices: Sequence[int]) -> Optional[int]:
        """Sparse-form :meth:`select`: ``indices`` lists the requesting
        inputs in ascending order.

        Returns exactly what ``select(dense)`` would for the equivalent
        dense request vector (``None`` only when ``indices`` is empty).
        This is the simulator's hot-path entry point -- no validation is
        performed, and the ascending-order precondition is relied upon.
        The base implementation densifies; concrete arbiters override
        it with O(len(indices)) scans.
        """
        if not indices:
            return None
        dense = [False] * self.num_inputs
        for i in indices:
            dense[i] = True
        return self.select(dense)

    def arbitrate(self, requests: Sequence[bool], update: bool = True) -> Optional[int]:
        """Select a winner and (by default) immediately commit the update."""
        winner = self.select(requests)
        if update and winner is not None:
            self.advance(winner)
        return winner

    def _check_requests(self, requests: Sequence[bool]) -> None:
        if len(requests) != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} requests, got {len(requests)}"
            )

    def _check_winner(self, winner: int) -> None:
        if not 0 <= winner < self.num_inputs:
            raise ValueError(f"winner {winner} out of range [0, {self.num_inputs})")


class FixedPriorityArbiter(Arbiter):
    """Static-priority arbiter; the lowest-indexed requester always wins.

    Models a priority (thermometer-mask) network.  Not fair: persistent
    low-index requests starve everything behind them.  Used standalone
    only where fairness is irrelevant and as a primitive inside
    :class:`RoundRobinArbiter`.
    """

    __slots__ = ()

    def select(self, requests: Sequence[bool]) -> Optional[int]:
        self._check_requests(requests)
        for i, req in enumerate(requests):
            if req:
                return i
        return None

    def advance(self, winner: int) -> None:
        self._check_winner(winner)

    def reset(self) -> None:  # stateless
        return None

    def select_sparse(self, indices: Sequence[int]) -> Optional[int]:
        return indices[0] if indices else None


class RoundRobinArbiter(Arbiter):
    """Rotating-priority arbiter (``rr``).

    The highest priority is held by the input at the pointer; priority
    decreases cyclically from there.  After a successful grant the
    pointer moves one past the winner, making the winner the lowest
    priority input -- this guarantees any persistent requester is served
    at least once every ``n`` successful grants (weak fairness).
    """

    __slots__ = ("_pointer",)

    def __init__(self, num_inputs: int) -> None:
        super().__init__(num_inputs)
        self._pointer = 0

    @property
    def pointer(self) -> int:
        """Index that currently holds the highest priority."""
        return self._pointer

    def select(self, requests: Sequence[bool]) -> Optional[int]:
        n = self.num_inputs
        if len(requests) != n:
            raise ValueError(f"expected {n} requests, got {len(requests)}")
        p = self._pointer
        for i in range(p, n):
            if requests[i]:
                return i
        for i in range(p):
            if requests[i]:
                return i
        return None

    def advance(self, winner: int) -> None:
        # Validation is inlined: advance() runs ~1e6 times per simulated
        # second on the simulator hot path and the extra call is costly.
        n = self.num_inputs
        if not 0 <= winner < n:
            raise ValueError(f"winner {winner} out of range [0, {n})")
        w = winner + 1
        self._pointer = w if w < n else 0

    def reset(self) -> None:
        self._pointer = 0

    def set_pointer(self, pointer: int) -> None:
        """Force the priority pointer (verification oracle entry point).

        Lets :mod:`repro.verify` enumerate every reachable priority
        state and query :meth:`select` as a pure function of
        ``(state, requests)``; never used on simulation paths.
        """
        if not 0 <= pointer < self.num_inputs:
            raise ValueError(
                f"pointer {pointer} out of range [0, {self.num_inputs})"
            )
        self._pointer = pointer

    def select_sparse(self, indices: Sequence[int]) -> Optional[int]:
        # First requester at or after the pointer, else the first
        # requester overall (cyclic priority; indices are ascending).
        p = self._pointer
        for i in indices:
            if i >= p:
                return i
        return indices[0] if indices else None


#: Width -> the matrix arbiter's initial ``beats`` rows; read-only.
_INITIAL_BEATS: Dict[int, List[List[bool]]] = {}


def _initial_beats(n: int) -> List[List[bool]]:
    rows = _INITIAL_BEATS.get(n)
    if rows is None:
        rows = _INITIAL_BEATS[n] = [[i < j for j in range(n)] for i in range(n)]
    return rows


class MatrixArbiter(Arbiter):
    """Least-recently-served arbiter (``m``).

    Keeps an n x n priority matrix ``w`` where ``w[i][j]`` means input
    ``i`` currently beats input ``j``.  A requester wins iff no other
    requester beats it.  On a successful grant the winner's priority is
    cleared against everyone (it becomes least recently served), which
    yields strong fairness at O(n^2) state cost -- the area/power premium
    the paper measures for ``m`` variants.
    """

    __slots__ = ("_beats",)

    def __init__(self, num_inputs: int) -> None:
        super().__init__(num_inputs)
        self._beats: List[List[bool]] = []
        self.reset()

    def reset(self) -> None:
        # Upper-triangular initial state: lower indices start with
        # priority.  Rows are copied, never shared: advance() edits them.
        self._beats = [row[:] for row in _initial_beats(self.num_inputs)]

    def beats(self, i: int, j: int) -> bool:
        """True if input ``i`` currently has priority over input ``j``."""
        return self._beats[i][j]

    def set_beats(self, beats: Sequence[Sequence[bool]]) -> None:
        """Force the priority matrix (verification oracle entry point).

        ``beats`` must be antisymmetric off the diagonal
        (``beats[i][j] != beats[j][i]`` for ``i != j``) -- the invariant
        the hardware's triangle storage enforces by construction and
        that :mod:`repro.verify` proves inductive.
        """
        n = self.num_inputs
        if len(beats) != n or any(len(row) != n for row in beats):
            raise ValueError(f"expected an {n}x{n} matrix")
        for i in range(n):
            for j in range(i + 1, n):
                if bool(beats[i][j]) == bool(beats[j][i]):
                    raise ValueError(
                        f"beats[{i}][{j}] must differ from beats[{j}][{i}]"
                    )
        self._beats = [[bool(v) for v in row] for row in beats]

    def select(self, requests: Sequence[bool]) -> Optional[int]:
        self._check_requests(requests)
        n = self.num_inputs
        for i in range(n):
            if not requests[i]:
                continue
            beaten = False
            row_j = self._beats
            for j in range(n):
                if j != i and requests[j] and row_j[j][i]:
                    beaten = True
                    break
            if not beaten:
                return i
        return None

    def advance(self, winner: int) -> None:
        n = self.num_inputs
        if not 0 <= winner < n:
            raise ValueError(f"winner {winner} out of range [0, {n})")
        beats = self._beats
        row_w = beats[winner]
        for j in range(n):
            if j != winner:
                row_w[j] = False
                beats[j][winner] = True

    def select_sparse(self, indices: Sequence[int]) -> Optional[int]:
        # The matrix relation restricted to the requesters is still a
        # total order, so exactly one requester is unbeaten; the dense
        # scan returns the lowest-indexed such input, which this
        # reproduces because ``indices`` is ascending.
        beats = self._beats
        for i in indices:
            row_i = None
            for j in indices:
                if j != i and beats[j][i]:
                    row_i = j
                    break
            if row_i is None:
                return i
        return None


class TreeArbiter(Arbiter):
    """Two-level arbiter: per-group arbiters plus a top-level group arbiter.

    Implements the P*V-input tree arbiter from Section 4.1: "a stage of
    P V-input arbiters in parallel with a single P-input arbiter that
    selects among them".  Inputs are split into ``num_groups`` contiguous
    groups of ``group_size`` inputs each.
    """

    __slots__ = ("num_groups", "group_size", "_group_arbs", "_top_arb")

    def __init__(
        self,
        num_groups: int,
        group_size: int,
        arbiter_factory: Callable[[int], Arbiter] = RoundRobinArbiter,
    ) -> None:
        if num_groups < 1 or group_size < 1:
            raise ValueError("num_groups and group_size must be >= 1")
        super().__init__(num_groups * group_size)
        self.num_groups = num_groups
        self.group_size = group_size
        self._group_arbs = [arbiter_factory(group_size) for _ in range(num_groups)]
        self._top_arb = arbiter_factory(num_groups)

    def select(self, requests: Sequence[bool]) -> Optional[int]:
        self._check_requests(requests)
        gs = self.group_size
        group_winner: List[Optional[int]] = []
        group_any: List[bool] = []
        for g in range(self.num_groups):
            sub = requests[g * gs : (g + 1) * gs]
            w = self._group_arbs[g].select(sub)
            group_winner.append(w)
            group_any.append(w is not None)
        top = self._top_arb.select(group_any)
        if top is None:
            return None
        local = group_winner[top]
        assert local is not None
        return top * gs + local

    def advance(self, winner: int) -> None:
        # Range check inlined (this runs once per grant per cycle on
        # the simulator hot path); the sub-arbiters re-validate the
        # decomposed indices anyway.
        if not 0 <= winner < self.num_inputs:
            self._check_winner(winner)
        g, local = divmod(winner, self.group_size)
        self._group_arbs[g].advance(local)
        self._top_arb.advance(g)

    def reset(self) -> None:
        for arb in self._group_arbs:
            arb.reset()
        self._top_arb.reset()

    def select_sparse(self, indices: Sequence[int]) -> Optional[int]:
        # Group the (ascending) requesters; per-group locals stay
        # ascending and so does the group-id list.  Equivalent to the
        # dense path: a group's "any" bit is set exactly when it has a
        # requester (group arbiters always pick a winner from a
        # non-empty request set).
        if not indices:
            return None
        gs = self.group_size
        by_group: dict = {}
        for idx in indices:
            g, local = divmod(idx, gs)
            lst = by_group.get(g)
            if lst is None:
                by_group[g] = [local]
            else:
                lst.append(local)
        top = self._top_arb.select_sparse(list(by_group))
        if top is None:
            return None
        local = self._group_arbs[top].select_sparse(by_group[top])
        assert local is not None
        return top * gs + local


_ARBITER_KINDS: Dict[str, Type[Arbiter]] = dict(
    zip(ARBITER_KINDS, (RoundRobinArbiter, MatrixArbiter, FixedPriorityArbiter))
)


def make_arbiter(kind: str, num_inputs: int) -> Arbiter:
    """Construct an arbiter from the paper's shorthand.

    ``kind`` is one of ``"rr"`` (round-robin), ``"m"`` (matrix) or
    ``"fixed"`` (static priority).
    """
    try:
        cls = _ARBITER_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown arbiter kind {kind!r}; expected one of {sorted(_ARBITER_KINDS)}"
        ) from None
    return cls(num_inputs)
