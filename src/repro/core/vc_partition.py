"""VC partitioning for sparse VC allocation (Section 4.2, Figure 4).

The paper decomposes the total VC count as ``V = M * R * C``:

* ``M`` message classes (e.g. request/reply) -- a packet's message class
  never changes, so the VC allocator can be split into ``M`` fully
  independent sub-allocators;
* ``R`` resource classes (e.g. dateline phases, UGAL minimal/non-minimal
  phases) -- transitions between resource classes follow a fixed partial
  order, further shrinking each input VC's candidate set;
* ``C`` VCs per class -- functionally equivalent, so requests select a
  whole (message, resource) class rather than individual VCs.

:class:`VCPartition` captures this structure, exposes the VC index
algebra, and generates the legal VC-to-VC transition matrix of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = ["VCPartition"]


@dataclass(frozen=True)
class VCPartition:
    """Static structure of a router's VC space.

    Parameters
    ----------
    num_message_classes:
        ``M`` -- disjoint packet-type classes (requests vs replies).
    num_resource_classes:
        ``R`` -- deadlock-avoidance phases within a message class.
    vcs_per_class:
        ``C`` -- interchangeable VCs per (message, resource) class.
    resource_transitions:
        ``R x R`` boolean matrix (any nested sequence; stored as a tuple
        of bool tuples); entry ``[r_in][r_out]`` is True when a packet
        in resource class ``r_in`` may acquire a VC of resource class
        ``r_out`` at the next router.  Defaults to the identity (packets
        stay in their class), the mesh/DOR case.

    VC index layout: ``vc = (m * R + r) * C + c`` -- message class is the
    outermost field, matching the quadrant layout of Figure 4.
    """

    num_message_classes: int
    num_resource_classes: int = 1
    vcs_per_class: int = 1
    resource_transitions: Tuple[Tuple[bool, ...], ...] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.num_message_classes < 1:
            raise ValueError("need >= 1 message class")
        if self.num_resource_classes < 1:
            raise ValueError("need >= 1 resource class")
        if self.vcs_per_class < 1:
            raise ValueError("need >= 1 VC per class")
        R = self.num_resource_classes
        given = self.resource_transitions
        if given is None:
            given = tuple(tuple(r_in == r_out for r_out in range(R)) for r_in in range(R))
        trans = tuple(tuple(bool(x) for x in row) for row in given)
        if len(trans) != R or any(len(row) != R for row in trans):
            raise ValueError(
                f"resource_transitions must have shape {(R, R)}, got rows "
                f"of lengths {[len(row) for row in trans]}"
            )
        if not all(any(row) for row in trans):
            raise ValueError("every resource class needs >= 1 successor class")
        object.__setattr__(self, "resource_transitions", trans)

    # ------------------------------------------------------------------
    # index algebra
    # ------------------------------------------------------------------
    @property
    def num_vcs(self) -> int:
        """Total VC count ``V = M * R * C``."""
        return self.num_message_classes * self.num_resource_classes * self.vcs_per_class

    def vc_index(self, message_class: int, resource_class: int, vc: int) -> int:
        """Flat VC index for (message class, resource class, class-local VC)."""
        self._check_class(message_class, resource_class)
        if not 0 <= vc < self.vcs_per_class:
            raise ValueError(f"vc {vc} out of range")
        return (
            message_class * self.num_resource_classes + resource_class
        ) * self.vcs_per_class + vc

    def vc_fields(self, vc_index: int) -> Tuple[int, int, int]:
        """Inverse of :meth:`vc_index`."""
        if not 0 <= vc_index < self.num_vcs:
            raise ValueError(f"vc index {vc_index} out of range")
        cls, c = divmod(vc_index, self.vcs_per_class)
        m, r = divmod(cls, self.num_resource_classes)
        return m, r, c

    def message_class_of(self, vc_index: int) -> int:
        return self.vc_fields(vc_index)[0]

    def resource_class_of(self, vc_index: int) -> int:
        return self.vc_fields(vc_index)[1]

    def class_vcs(self, message_class: int, resource_class: int) -> List[int]:
        """All flat VC indices of one (message, resource) class."""
        base = self.vc_index(message_class, resource_class, 0)
        return list(range(base, base + self.vcs_per_class))

    def class_vcs_tuple(self, message_class: int, resource_class: int) -> Tuple[int, ...]:
        """Cached tuple form of :meth:`class_vcs` (ascending indices).

        The router's per-cycle request generation calls this once per
        waiting head flit, so the table is precomputed on first use
        (the partition is frozen, so it can never go stale).
        """
        try:
            table = self._class_vcs_table
        except AttributeError:
            table = {}
            for m in range(self.num_message_classes):
                for r in range(self.num_resource_classes):
                    base = (m * self.num_resource_classes + r) * self.vcs_per_class
                    table[m, r] = tuple(range(base, base + self.vcs_per_class))
            object.__setattr__(self, "_class_vcs_table", table)
        return table[message_class, resource_class]

    def _check_class(self, message_class: int, resource_class: int) -> None:
        if not 0 <= message_class < self.num_message_classes:
            raise ValueError(f"message class {message_class} out of range")
        if not 0 <= resource_class < self.num_resource_classes:
            raise ValueError(f"resource class {resource_class} out of range")

    # ------------------------------------------------------------------
    # transition structure
    # ------------------------------------------------------------------
    def successor_classes(self, resource_class: int) -> List[int]:
        """Resource classes reachable in one transition from ``resource_class``."""
        self._check_class(0, resource_class)
        row = self.resource_transitions[resource_class]
        return [r_out for r_out, legal in enumerate(row) if legal]

    def predecessor_classes(self, resource_class: int) -> List[int]:
        """Resource classes that may transition into ``resource_class``."""
        self._check_class(0, resource_class)
        return [
            r_in for r_in, row in enumerate(self.resource_transitions)
            if row[resource_class]
        ]

    def max_successors(self) -> int:
        """Largest successor-class count over all resource classes."""
        return max(map(sum, self.resource_transitions))

    def max_predecessors(self) -> int:
        """Largest predecessor-class count over all resource classes."""
        return max(map(sum, zip(*self.resource_transitions)))

    def legal_transition(self, vc_in: int, vc_out: int) -> bool:
        """True if a packet holding ``vc_in`` may acquire ``vc_out`` next."""
        m_in, r_in, _ = self.vc_fields(vc_in)
        m_out, r_out, _ = self.vc_fields(vc_out)
        return m_in == m_out and self.resource_transitions[r_in][r_out]

    def transition_matrix(self) -> List[List[bool]]:
        """The full ``V x V`` legal-transition matrix (Figure 4), as rows."""
        v = self.num_vcs
        return [
            [self.legal_transition(vc_in, vc_out) for vc_out in range(v)]
            for vc_in in range(v)
        ]

    def num_legal_transitions(self) -> int:
        """Count of legal VC-to-VC transitions (96 for fbfly 2x2x4)."""
        return sum(map(sum, self.transition_matrix()))

    def candidate_vcs(self, vc_in: int, resource_class: Optional[int] = None) -> List[int]:
        """Output VCs an input VC may legally request.

        If ``resource_class`` is given, candidates are limited to that
        class (the routing function selects a single class at runtime);
        it must be a legal successor of ``vc_in``'s class.
        """
        m_in, r_in, _ = self.vc_fields(vc_in)
        if resource_class is not None:
            if not self.resource_transitions[r_in][resource_class]:
                raise ValueError(
                    f"resource class {resource_class} is not a legal successor "
                    f"of class {r_in}"
                )
            classes: Sequence[int] = [resource_class]
        else:
            classes = self.successor_classes(r_in)
        out: List[int] = []
        for r_out in classes:
            out.extend(self.class_vcs(m_in, r_out))
        return out

    # ------------------------------------------------------------------
    # paper configurations
    # ------------------------------------------------------------------
    @staticmethod
    def uniform(num_vcs: int) -> "VCPartition":
        """Degenerate partition: a single class holding all VCs."""
        return VCPartition(1, 1, num_vcs)

    @staticmethod
    def mesh(vcs_per_class: int) -> "VCPartition":
        """Paper's mesh points: M=2 (request/reply), R=1, C in {1,2,4}."""
        return VCPartition(2, 1, vcs_per_class)

    @staticmethod
    def fbfly(vcs_per_class: int) -> "VCPartition":
        """Paper's flattened-butterfly points: M=2, R=2 (UGAL phases).

        Resource class 0 is the non-minimal (first, Valiant) phase and
        class 1 the minimal phase.  A packet may move from the
        non-minimal phase to the minimal one but never back, and minimal
        packets stay minimal -- giving each VC at most
        ``2 * C`` successors, confined to its message-class quadrant,
        exactly the Figure 4 structure (96 of 256 transitions legal for
        C=4).
        """
        transitions = ((True, True), (False, True))
        return VCPartition(2, 2, vcs_per_class, transitions)

    def describe(self) -> str:
        """Human-readable summary, e.g. ``2x2x4 VCs (V=16)``."""
        return (
            f"{self.num_message_classes}x{self.num_resource_classes}"
            f"x{self.vcs_per_class} VCs (V={self.num_vcs})"
        )
