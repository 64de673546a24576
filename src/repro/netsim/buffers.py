"""Input-VC buffer state for the router model.

Buffers are statically partitioned: each input VC owns ``buffer_depth``
flit slots (8 in the paper's configuration).  The VC state machine is
implicit in the fields: a VC with a head flit at the front and no
output VC is *waiting for VC allocation*; with an output VC assigned it
is *active* and competes in switch allocation.

The buffer is a plain ``list``, not a ``deque``: it never holds more
than ``depth`` flits (one more under a duplicated-credit fault), so
``pop(0)`` moves at most a handful of pointers, while an idle deque
holds a 528-byte block -- over ten times an empty list -- in each of
the thousands of input VCs a network builds (docs/PERFORMANCE.md,
"A built network holds only its state").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .flit import Flit

__all__ = ["InputVC"]


class InputVC:
    """One virtual-channel input buffer."""

    __slots__ = ("queue", "output_port", "output_vc", "depth", "high_water")

    def __init__(self, depth: int) -> None:
        self.queue: List[Flit] = []
        self.depth = depth
        # Route/allocation state for the packet currently at the front.
        self.output_port = -1
        self.output_vc = -1
        # Peak occupancy ever reached (observability: true high-water
        # mark, exact even between metric samples).
        self.high_water = 0

    @property
    def occupancy(self) -> int:
        return len(self.queue)

    @property
    def front(self) -> Optional[Flit]:
        return self.queue[0] if self.queue else None

    @property
    def waiting_for_vc(self) -> bool:
        """Head flit at the front without an assigned output VC."""
        f = self.front
        return f is not None and f.is_head and self.output_vc < 0

    @property
    def active(self) -> bool:
        """Holds an output VC and has a flit ready to traverse."""
        return self.output_vc >= 0 and bool(self.queue)

    def push(self, flit: Flit) -> None:
        if len(self.queue) >= self.depth:
            raise RuntimeError(
                "input VC overflow: credit-based flow control violated"
            )
        self.queue.append(flit)
        if len(self.queue) > self.high_water:
            self.high_water = len(self.queue)

    def force_push(self, flit: Flit) -> None:
        """Append past the depth limit.

        Only the fault injector uses this: a duplicated credit can let
        the upstream router legitimately overrun this buffer, and the
        overflow is the fault's observable effect rather than a
        flow-control bug (the router counts it as ``buffer_overflows``).
        """
        self.queue.append(flit)
        if len(self.queue) > self.high_water:
            self.high_water = len(self.queue)

    def assign_output(self, port: int, vc: int) -> None:
        self.output_port = port
        self.output_vc = vc

    def pop_front(self) -> Tuple[Flit, bool]:
        """Remove the front flit; returns (flit, packet_finished)."""
        flit = self.queue.pop(0)
        finished = flit.is_tail
        if finished:
            self.output_port = -1
            self.output_vc = -1
        return flit, finished
